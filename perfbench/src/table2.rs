//! `table2_cold`: the Fig. 8 Newton columns. One op per (Table II layer,
//! {Full, NonOpt}) cell on the paper's 24-channel HBM2E configuration:
//! `NewtonSystem::new` → `load_matrix` → `run_resident`, plus the Ideal
//! Non-PIM run of the same layer.

use newton_bf16::Bf16;
use newton_core::config::{NewtonConfig, OptLevel};
use newton_core::system::SystemRun;
use newton_workloads::rng::mix64;
use newton_workloads::{generator, Benchmark};

use crate::common::{
    bail, fast_system, ideal_ns, oracle_system, output_bits, pinned, same_run, validate_audits,
    Expected, Outcome, Res, Tally,
};
use crate::spans::{geomean, Tracer, CHECK, SETUP};
use crate::RunArgs;

/// Untimed warm-up passes over every cell; `setup_s` is their median.
const WARMUP_PASSES: usize = 5;

struct Cell<'a> {
    bench: Benchmark,
    full: bool,
    cfg: NewtonConfig,
    m: usize,
    n: usize,
    matrix: &'a [Bf16],
    vector: &'a [Bf16],
    expected: &'a Expected,
}

struct CellRun {
    run: SystemRun,
    ideal_ns: f64,
    tally: Tally,
}

fn run_cell(t: &mut Tracer, c: &Cell) -> Res<CellRun> {
    let mut sys = fast_system(t, &c.cfg)?;
    let loaded = t
        .call("core.load_matrix", || sys.load_matrix(c.matrix, c.m, c.n))
        .map_err(|e| format!("{} load_matrix: {e}", c.bench))?;
    let run = t
        .call("core.run", || sys.run_resident(&loaded, c.vector))
        .map_err(|e| format!("{} run_resident: {e}", c.bench))?;
    let ideal_ns = ideal_ns(t, &c.cfg, c.m, c.n)?;
    let tally = Tally::of(&sys);
    t.call("core.system_drop", move || drop((sys, loaded)));
    Ok(CellRun {
        run,
        ideal_ns,
        tally,
    })
}

/// Runs the workload.
pub fn run(t: &mut Tracer, args: &RunArgs) -> Res<Outcome> {
    let layers: Vec<Benchmark> = if args.quick {
        vec![Benchmark::DlrmS1, Benchmark::BertS1]
    } else {
        Benchmark::all().to_vec()
    };
    // Inputs and f64 references: generated outside every program call.
    let inputs: Vec<(Vec<Bf16>, Vec<Bf16>, Expected)> = layers
        .iter()
        .map(|&bench| {
            let shape = bench.shape();
            let matrix = generator::matrix(shape, mix64(args.seed ^ bench.seed()));
            let vector = generator::vector(shape.n, mix64(args.seed ^ bench.seed() ^ 0x7ec7));
            let lanes = NewtonConfig::paper_default().multipliers_per_bank;
            let expected = Expected::mv(&matrix, shape.m, shape.n, &vector, lanes);
            (matrix, vector, expected)
        })
        .collect();
    let mut cells = Vec::new();
    for (&bench, (matrix, vector, expected)) in layers.iter().zip(&inputs) {
        for (level, full) in [(OptLevel::Full, true), (OptLevel::NonOpt, false)] {
            cells.push(Cell {
                bench,
                full,
                cfg: pinned(NewtonConfig::at_level(level)),
                m: bench.shape().m,
                n: bench.shape().n,
                matrix,
                vector,
                expected,
            });
        }
    }

    let mut out = Outcome::default();
    out.note_inputs_resident();
    // Per cell: the first run's output bits and cycles, and its Ideal
    // Non-PIM over Newton time.
    let mut first: Vec<Option<(Vec<u32>, u64, f64)>> = vec![None; cells.len()];
    let mut check = |i: usize, r: &CellRun| -> Res<()> {
        let c = &cells[i];
        let what = format!("{} {}", c.bench, if c.full { "Full" } else { "NonOpt" });
        match &first[i] {
            None => {
                c.expected.check(&what, &r.run.output)?;
                first[i] = Some((
                    output_bits(&r.run),
                    r.run.cycles,
                    r.ideal_ns / r.run.elapsed_ns,
                ));
            }
            Some((bits, cycles, _)) => {
                if *bits != output_bits(&r.run) || *cycles != r.run.cycles {
                    bail!("{what}: a repeated run differs from the first");
                }
            }
        }
        Ok(())
    };

    let passes = if args.quick { 1 } else { WARMUP_PASSES };
    for _ in 0..passes {
        let before = t.in_program_s();
        let (runs, _) = t.root(SETUP, None, |t| {
            cells
                .iter()
                .map(|c| run_cell(t, c))
                .collect::<Res<Vec<_>>>()
        });
        out.setup_s.push(t.in_program_s() - before);
        for (i, r) in runs?.iter().enumerate() {
            check(i, r)?;
        }
    }

    let oracle_cell = cells
        .iter()
        .position(|c| c.bench == Benchmark::DlrmS1 && c.full)
        .expect("DLRM S1 is always measured");
    let mut oracle_fast: Option<SystemRun> = None;
    let mut sim_ns = Vec::new();
    let started = std::time::Instant::now();
    let mut op_id = 0u64;
    while out.rounds.count() == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for (i, c) in cells.iter().enumerate() {
            let (r, w) = t.op(op_id, |t| run_cell(t, c));
            op_id += 1;
            let r = r?;
            out.rounds.record(w, 1)?;
            out.attempted += 1;
            check(i, &r)?;
            sim_ns.push(r.run.elapsed_ns);
            out.ledger.add_tally(&r.tally);
            out.ledger.aim.merge(&r.run.stats);
            if i == oracle_cell && oracle_fast.is_none() {
                oracle_fast = Some(r.run);
            }
        }
        out.rounds.end_round()?;
    }
    out.note_peak_resident();
    out.set_sim_latencies(sim_ns);

    let ratios: Vec<f64> = cells
        .iter()
        .zip(&first)
        .filter(|(c, _)| c.full)
        .map(|(_, f)| f.as_ref().expect("every cell ran").2)
        .collect();
    out.newton_vs_ideal_x = geomean(&ratios);

    // Oracle pass on the DLRM S1 Full cell, outside the timed rounds.
    let fast = oracle_fast.expect("the oracle cell ran in the timed rounds");
    let c = &cells[oracle_cell];
    let (res, _) = t.root(CHECK, None, |t| -> Res<()> {
        let mut sys = oracle_system(t, &c.cfg)?;
        let loaded = t
            .call("core.load_matrix", || sys.load_matrix(c.matrix, c.m, c.n))
            .map_err(|e| format!("oracle load_matrix: {e}"))?;
        let run = t
            .call("core.run", || sys.run_resident(&loaded, c.vector))
            .map_err(|e| format!("oracle run_resident: {e}"))?;
        validate_audits(t, &sys)?;
        same_run("table2_cold DLRMs1 Full", &fast, &run)
    });
    res?;
    Ok(out)
}
