//! `decode_stream`: batch-1 autoregressive decode of GNMT S1 shape
//! (4096 x 1024, the paper's LSTM decoder) on the 24-channel
//! configuration, ECC and telemetry off. Each round builds a system,
//! loads the matrix and captures the replay schedule on token 0 (set-up),
//! then decodes the stream's remaining tokens, one op each.

use newton_core::config::NewtonConfig;
use newton_core::system::SystemRun;
use newton_workloads::rng::mix64;
use newton_workloads::DecodeStreamSpec;

use crate::common::{
    bail, fast_system, ideal_ns, oracle_system, output_bits, pinned, same_run, validate_audits,
    Expected, Outcome, Res, Tally,
};
use crate::spans::{Tracer, CHECK, SETUP, TEARDOWN};
use crate::RunArgs;

/// Timed tokens per round (after the capture token).
const TOKENS: usize = 32;

/// Runs the workload.
pub fn run(t: &mut Tracer, args: &RunArgs) -> Res<Outcome> {
    let (m, n, tokens) = if args.quick {
        (1024, 512, 4)
    } else {
        (4096, 1024, TOKENS)
    };
    let mut cfg = pinned(NewtonConfig::paper_default());
    cfg.ecc = false;
    cfg.telemetry = None;
    let spec = DecodeStreamSpec::new(m, n, tokens + 1, mix64(args.seed ^ 0xdec0de));
    let matrix = spec.matrix();
    let inputs = spec.token_inputs();
    let tolerance = spec.tolerance();
    let expected: Vec<Expected> = spec
        .reference_outputs()
        .into_iter()
        .map(|want| Expected::with_tolerance(want, tolerance))
        .collect();

    let mut out = Outcome::default();
    out.note_inputs_resident();
    let mut first_round: Vec<SystemRun> = Vec::new();
    let mut sim_ns = Vec::new();
    let started = std::time::Instant::now();
    let mut op_id = 0u64;
    while out.rounds.count() == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let before = t.in_program_s();
        let (set, _) = t.root(SETUP, None, |t| -> Res<_> {
            let mut sys = fast_system(t, &cfg)?;
            let loaded = t
                .call("core.load_matrix", || sys.load_matrix(&matrix, m, n))
                .map_err(|e| format!("load_matrix: {e}"))?;
            let capture = t
                .call("core.run", || sys.run_resident(&loaded, &inputs[0]))
                .map_err(|e| format!("capture token: {e}"))?;
            Ok((sys, loaded, capture))
        });
        out.setup_s.push(t.in_program_s() - before);
        let (mut sys, loaded, capture) = set?;
        expected[0].check("decode token 0", &capture.output)?;
        let tally_before = Tally::of(&sys);

        let mut runs = Vec::with_capacity(tokens + 1);
        runs.push(capture);
        for (tok, input) in inputs.iter().enumerate().skip(1) {
            let (run, w) = t.op(op_id, |t| {
                t.call("core.run", || sys.run_resident(&loaded, input))
            });
            op_id += 1;
            let run = run.map_err(|e| format!("decode token {tok}: {e}"))?;
            out.rounds.record(w, 1)?;
            out.attempted += 1;
            expected[tok].check(&format!("decode token {tok}"), &run.output)?;
            sim_ns.push(run.elapsed_ns);
            out.ledger.aim.merge(&run.stats);
            runs.push(run);
        }
        out.ledger.add_tally(&Tally::of(&sys).since(&tally_before));
        t.root(TEARDOWN, None, |t| {
            t.call("core.system_drop", move || drop((sys, loaded)));
        });

        // Every round replays the same stream from a fresh system, so
        // every round must repeat the first bit for bit.
        if first_round.is_empty() {
            first_round = runs;
        } else {
            for (tok, (a, b)) in first_round.iter().zip(&runs).enumerate() {
                if output_bits(a) != output_bits(b) || a.cycles != b.cycles {
                    bail!("decode token {tok}: a repeated round differs from the first");
                }
            }
        }
        out.rounds.end_round()?;
    }
    out.note_peak_resident();
    out.set_sim_latencies(sim_ns);

    let sim_ns_per_op = out.sim_ns_per_op;
    let (res, _) = t.root(CHECK, None, |t| -> Res<()> {
        let ideal = ideal_ns(t, &cfg, m, n)?;
        out.newton_vs_ideal_x = ideal / sim_ns_per_op;
        // Oracle pass: the capture token and the first timed token.
        let mut sys = oracle_system(t, &cfg)?;
        let loaded = t
            .call("core.load_matrix", || sys.load_matrix(&matrix, m, n))
            .map_err(|e| format!("oracle load_matrix: {e}"))?;
        for (tok, fast) in first_round.iter().enumerate().take(2) {
            let run = t
                .call("core.run", || sys.run_resident(&loaded, &inputs[tok]))
                .map_err(|e| format!("oracle token {tok}: {e}"))?;
            same_run(&format!("decode token {tok}"), fast, &run)?;
        }
        validate_audits(t, &sys)
    });
    res?;
    Ok(out)
}
