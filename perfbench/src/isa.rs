//! `isa_trace`: the ISA frontend. BERT S1, DLRM S1 and GNMT S1 are
//! lowered (`lower_mv`) and rendered to `.aim` text during set-up. Each
//! op is one trace: `Program::parse` → `interpret`, then `recognize` →
//! `apply_physical` → `run_resident`.
//!
//! Known fault: `interpret` issues MAC rows with no refresh interposition,
//! so a trace longer than one tREFI fails with a refresh-overdue error.
//! GNMT S1 is such a trace; its op fails every time and is counted in
//! `failed`. Its operands are the canonical Table II ones, independent of
//! the seed, since the failure does not depend on them.

use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::system::SystemRun;
use newton_isa::generate::lower_mv;
use newton_isa::interp::interpret;
use newton_isa::mv::{recognize, MvTrace};
use newton_isa::{IsaError, Program};
use newton_workloads::rng::mix64;
use newton_workloads::{generator, Benchmark};

use crate::common::{
    bail, fast_system, ideal_ns, oracle_system, output_bits, pinned, same_run, validate_audits,
    Expected, Outcome, Res, Tally,
};
use crate::spans::{geomean, Tracer, CHECK, SETUP};
use crate::RunArgs;

/// Set-up passes (lower + render every trace): one before the timed
/// rounds, the others spread through them.
const SETUP_PASSES: usize = 7;

/// Text of the known interpreter fault.
const REFRESH_FAULT: &str = "refresh overdue";

struct Trace {
    bench: Benchmark,
    /// Whether the op is known to fail in `interpret`.
    known_fault: bool,
    matrix: Vec<Bf16>,
    vector: Vec<Bf16>,
    expected: Expected,
    text: String,
}

// One value per op, moved once: the size difference does not matter.
#[allow(clippy::large_enum_variant)]
enum OpEnd {
    /// `interpret` failed after parsing this many instructions.
    Interp(IsaError, u64),
    /// The whole op ran.
    Done {
        aim_ops: u64,
        instrs: u64,
        mv: MvTrace,
        run: SystemRun,
        tally: Tally,
    },
}

fn run_trace(t: &mut Tracer, cfg: &NewtonConfig, tr: &Trace) -> Res<OpEnd> {
    let what = tr.bench;
    let prog = t
        .call("isa.parse", || Program::parse(&tr.text))
        .map_err(|e| format!("{what} parse: {e}"))?;
    let interp = match t.call("isa.interpret", || interpret(&prog, cfg.clone())) {
        Ok(i) => i,
        Err(e) => {
            let instrs = prog.instrs.len() as u64;
            t.call("isa.program_drop", move || drop(prog));
            return Ok(OpEnd::Interp(e, instrs));
        }
    };
    let mv = t
        .call("isa.recognize", || recognize(&prog))
        .map_err(|e| format!("{what} recognize: {e}"))?;
    let mut sys = fast_system(t, cfg)?;
    let loaded = t
        .call("isa.apply", || mv.apply_physical(&mut sys))
        .map_err(|e| format!("{what} apply_physical: {e}"))?;
    let run = t
        .call("core.run", || sys.run_resident(&loaded, &mv.vector))
        .map_err(|e| format!("{what} run_resident: {e}"))?;
    let tally = Tally::of(&sys);
    let instrs = prog.instrs.len() as u64;
    t.call("core.system_drop", move || drop((sys, loaded, prog)));
    Ok(OpEnd::Done {
        aim_ops: interp.aim_ops,
        instrs,
        mv,
        run,
        tally,
    })
}

/// One set-up pass: lower and render every trace. Records its program
/// time in `out.setup_s`.
fn setup_pass(
    t: &mut Tracer,
    cfg: &NewtonConfig,
    traces: &[Trace],
    out: &mut Outcome,
) -> Res<Vec<(Program, String)>> {
    let before = t.in_program_s();
    let (res, _) = t.root(SETUP, None, |t| {
        traces
            .iter()
            .map(|tr| {
                let s = tr.bench.shape();
                let prog = t
                    .call("isa.lower", || {
                        lower_mv(cfg, &tr.matrix, s.m, s.n, &tr.vector)
                    })
                    .map_err(|e| format!("{} lower_mv: {e}", tr.bench))?;
                let text = t.call("isa.render", || prog.render());
                Ok((prog, text))
            })
            .collect()
    });
    out.setup_s.push(t.in_program_s() - before);
    res
}

/// Runs the workload.
pub fn run(t: &mut Tracer, args: &RunArgs) -> Res<Outcome> {
    let cfg = pinned(NewtonConfig::paper_default());
    let mut traces: Vec<Trace> = [
        (Benchmark::BertS1, false),
        (Benchmark::DlrmS1, false),
        (Benchmark::GnmtS1, true),
    ]
    .into_iter()
    .map(|(bench, known_fault)| {
        let shape = bench.shape();
        let seed = if known_fault {
            bench.seed()
        } else {
            mix64(args.seed ^ bench.seed())
        };
        let matrix = generator::matrix(shape, seed);
        let vector = generator::vector(shape.n, seed.wrapping_add(1));
        let expected = Expected::mv(&matrix, shape.m, shape.n, &vector, cfg.multipliers_per_bank);
        Trace {
            bench,
            known_fault,
            matrix,
            vector,
            expected,
            text: String::new(),
        }
    })
    .collect();

    let mut out = Outcome::default();
    out.note_inputs_resident();
    let passes = if args.quick { 1 } else { SETUP_PASSES };
    let programs = setup_pass(t, &cfg, &traces, &mut out)?;
    // Parsing the rendered text gives back the lowered program.
    for (tr, (prog, text)) in traces.iter_mut().zip(programs) {
        let (parsed, _) = t.root(CHECK, None, |t| {
            t.call("isa.parse", || Program::parse(&text))
        });
        if parsed.map_err(|e| format!("{} parse: {e}", tr.bench))? != prog {
            bail!("{}: parse(render(p)) != p", tr.bench);
        }
        tr.text = text;
    }

    let mut first: Vec<Option<SystemRun>> = vec![None; traces.len()];
    let mut sim_ns = Vec::new();
    let started = std::time::Instant::now();
    // Wall time of the set-up passes made between rounds.
    let mut between_s = 0.0;
    let mut op_id = 0u64;
    while out.rounds.count() == 0 || started.elapsed().as_secs_f64() - between_s < args.seconds {
        for (i, tr) in traces.iter().enumerate() {
            let (end, w) = t.op(op_id, |t| run_trace(t, &cfg, tr));
            op_id += 1;
            out.attempted += 1;
            out.ledger.text_bytes += tr.text.len() as u64;
            match end? {
                OpEnd::Interp(e, instrs) => {
                    out.rounds.record(w, 0)?;
                    out.ledger.instrs += instrs;
                    if !(tr.known_fault && e.to_string().contains(REFRESH_FAULT)) {
                        bail!("{} interpret: {e}", tr.bench);
                    }
                    if out.failed == 0 {
                        eprintln!(
                            "known fault, counted as failed: {} interpret: {e:?}",
                            tr.bench
                        );
                    }
                    out.failed += 1;
                }
                OpEnd::Done {
                    aim_ops,
                    instrs,
                    mv,
                    run,
                    tally,
                } => {
                    out.rounds.record(w, 1)?;
                    if mv.matrix != tr.matrix || mv.vector != tr.vector {
                        bail!(
                            "{}: recognized operands differ from the generated ones",
                            tr.bench
                        );
                    }
                    match &first[i] {
                        None => tr.expected.check(&tr.bench.to_string(), &run.output)?,
                        Some(f)
                            if output_bits(f) != output_bits(&run) || f.cycles != run.cycles =>
                        {
                            bail!("{}: a repeated run differs from the first", tr.bench)
                        }
                        Some(_) => {}
                    }
                    let l = &mut out.ledger;
                    l.aim_ops += aim_ops;
                    l.instrs += instrs;
                    l.aim.merge(&run.stats);
                    l.add_tally(&tally);
                    sim_ns.push(run.elapsed_ns);
                    first[i].get_or_insert(run);
                }
            }
        }
        out.rounds.end_round()?;
        // The other set-up passes are spread evenly through the run, so
        // that one spell of host speed does not set them all.
        let done = out.setup_s.len();
        let ran = started.elapsed().as_secs_f64() - between_s;
        if done < passes && ran >= args.seconds * done as f64 / passes as f64 {
            let pass = std::time::Instant::now();
            let again = setup_pass(t, &cfg, &traces, &mut out)?;
            for (tr, (_, text)) in traces.iter().zip(again) {
                if text != tr.text {
                    bail!("{}: a repeated render differs from the first", tr.bench);
                }
            }
            between_s += pass.elapsed().as_secs_f64();
        }
    }
    out.note_peak_resident();
    out.set_sim_latencies(sim_ns);

    let (res, _) = t.root(CHECK, None, |t| -> Res<()> {
        let mut ratios = Vec::new();
        for (tr, f) in traces.iter().zip(&first) {
            if let Some(run) = f {
                let s = tr.bench.shape();
                ratios.push(ideal_ns(t, &cfg, s.m, s.n)? / run.elapsed_ns);
            }
        }
        out.newton_vs_ideal_x = geomean(&ratios);
        // Oracle pass on BERT S1's replay half.
        let tr = &traces[0];
        let fast = first[0].as_ref().expect("BERT S1 ran");
        let prog = t
            .call("isa.parse", || Program::parse(&tr.text))
            .map_err(|e| format!("oracle parse: {e}"))?;
        let mv = t
            .call("isa.recognize", || recognize(&prog))
            .map_err(|e| format!("oracle recognize: {e}"))?;
        let mut sys = oracle_system(t, &cfg)?;
        let loaded = t
            .call("isa.apply", || mv.apply_physical(&mut sys))
            .map_err(|e| format!("oracle apply_physical: {e}"))?;
        let run = t
            .call("core.run", || sys.run_resident(&loaded, &mv.vector))
            .map_err(|e| format!("oracle run_resident: {e}"))?;
        validate_audits(t, &sys)?;
        same_run("isa_trace BERTs1", fast, &run)
    });
    res?;
    Ok(out)
}
