//! The repository benchmark: runs one named workload against the
//! program's public API and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every call and prints the per-layer ledger instead. `--quick`
//! shrinks a workload to a smoke run of a few seconds. One run is one
//! workload in one process, since `peak_rss_mb` is process-wide. See
//! `perfbench/README.md`.

mod common;
mod decode;
mod isa;
mod serve;
mod spans;
mod table2;

use std::fmt::Write as _;

use common::{worker_width, Outcome, Res, SLOT_PERCENTILE};
use spans::{median, quantile, SelfTimeLedger, Tracer, OP, SETUP};

/// The workloads.
const WORKLOADS: [&str; 4] = ["table2_cold", "decode_stream", "serve_chaos", "isa_trace"];

/// Variables library crates read that would silently change the
/// measured path.
const GUARDED_ENV: [&str; 3] = [
    "NEWTON_THREADS",
    "NEWTON_TIMING_ENGINE",
    "NEWTON_SCHEDULE_REPLAY",
];

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Whether to record spans and print the per-layer ledger.
    pub trace: bool,
    /// Smoke-test sizes.
    pub quick: bool,
}

fn parse_args(argv: &[String]) -> Res<RunArgs> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// `nproc`, CPU model and the compiler that built this binary.
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "nproc {nproc}, worker width {}, cpu {cpu:?}, {}",
        worker_width(),
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// One named metric value.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        ("setup_s", quantile(&o.setup_s, SLOT_PERCENTILE), "s"),
        ("ops_per_s", o.rounds.ops_per_s(), "ops/s"),
        ("peak_rss_mb", o.peak_rss_mb, "MB"),
        ("sim_ns_per_op", o.sim_ns_per_op, "ns_sim"),
        ("sim_p50_ns", o.sim_p50_ns, "ns_sim"),
        ("sim_p99_ns", o.sim_p99_ns, "ns_sim"),
        ("newton_vs_ideal_x", o.newton_vs_ideal_x, "x"),
    ]
}

/// Span names whose self time is reported, with their metric names.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("core.system_new", "core.system_new_s"),
    ("core.load_matrix", "core.load_matrix_s"),
    ("core.run", "core.run_s"),
    ("core.system_drop", "core.system_drop_s"),
    ("baselines.ideal", "baselines.ideal_s"),
    ("serve.server_new", "serve.server_new_s"),
    ("serve.serve", "serve.serve_s"),
    ("isa.lower", "isa.lower_s"),
    ("isa.render", "isa.render_s"),
    ("isa.parse", "isa.parse_s"),
    ("isa.interpret", "isa.interpret_s"),
    ("isa.recognize", "isa.recognize_s"),
    ("isa.apply", "isa.apply_s"),
];

fn per_layer(o: &Outcome, t: &Tracer, spans: &SelfTimeLedger) -> Vec<Metric> {
    let ops = o.attempted.max(1) as f64;
    let setups = spans.roots(SETUP).max(1) as f64;
    let l = &o.ledger;
    let mut m: Vec<Metric> = Vec::new();
    // Self time per timed op; a span that never runs inside an op is
    // reported per set-up instead.
    for (span, metric) in SPAN_METRICS {
        let in_ops = spans.get(OP, span);
        let v = if in_ops > 0.0 {
            in_ops / ops
        } else {
            spans.get(SETUP, span) / setups
        };
        m.push((metric, v, "s"));
    }
    let unattributed = spans.get(OP, OP);
    m.push(("bench.unattributed_s", unattributed / ops, "s"));
    let host = |i: usize| l.tally.host_ns[i] as f64 / 1e9;
    m.push(("core.encode_s", host(0) / ops, "s"));
    m.push(("core.drain_s", host(1) / ops, "s"));
    m.push(("bf16.comp_thread_s", host(2) / ops, "s"));
    m.push(("core.merge_s", host(3) / ops, "s"));
    m.push(("trace.snapshot_s", host(4) / ops, "s"));
    let per_op = |v: u64| v as f64 / ops;
    let a = &l.aim;
    m.push(("core.comp_cmds", per_op(a.compute_commands), "count"));
    m.push(("core.gwrite_cmds", per_op(a.gwrite_commands), "count"));
    m.push(("core.act_cmds", per_op(a.activate_commands), "count"));
    m.push(("core.readres_cmds", per_op(a.readres_commands), "count"));
    m.push(("core.row_sets", per_op(a.row_sets), "count"));
    m.push(("dram.refreshes", per_op(l.tally.refreshes), "count"));
    m.push(("dram.ecc_corrected", per_op(l.tally.ecc_corrected), "count"));
    m.push(("core.replay_hits", per_op(a.schedule_hits), "count"));
    m.push(("core.replay_misses", per_op(a.schedule_misses), "count"));
    m.push((
        "core.replay_invalidations",
        per_op(a.schedule_invalidations),
        "count",
    ));
    m.push(("core.replayed_cmds", per_op(a.replayed_commands), "count"));
    let lookups = a.schedule_hits + a.schedule_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        a.schedule_hits as f64 / lookups as f64
    };
    m.push(("core.replay_hit_ratio", ratio, "ratio"));
    m.push(("serve.retries", per_op(l.retries), "count"));
    m.push(("serve.replans", per_op(l.replans), "count"));
    m.push((
        "serve.conventional_bursts",
        per_op(l.conventional_bursts),
        "count",
    ));
    m.push(("trace.telemetry_windows", per_op(l.tally.windows), "count"));
    m.push(("isa.instrs", per_op(l.instrs), "count"));
    m.push(("isa.text_mb", per_op(l.text_bytes) / 1e6, "MB"));
    m.push(("isa.aim_ops", per_op(l.aim_ops), "count"));
    m.push(("bf16.macs", per_op(l.tally.macs), "count"));
    let comp_s = host(2);
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.push((
        "bf16.macs_per_thread_s",
        rate(l.tally.macs as f64, comp_s),
        "1/s",
    ));
    m.push((
        "isa.parse_mb_per_s",
        rate(l.text_bytes as f64 / 1e6, spans.get(OP, "isa.parse")),
        "MB/s",
    ));
    m.push(("bench.ops_per_s", o.rounds.ops_per_s(), "ops/s"));
    m.push((
        "bench.program_share",
        100.0 * t.in_program_s() / t.elapsed_s(),
        "%",
    ));
    m.push((
        "bench.unattributed_pct",
        100.0 * rate(unattributed, o.rounds.timed_s),
        "%",
    ));
    m
}

/// The result line. `correct` is always true: a failed check ends the run
/// with an error before any result is printed.
fn render(o: &Outcome, metrics: &[Metric]) -> Res<String> {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    Ok(s)
}

fn run_one(args: &RunArgs, workload: &str) -> Res<String> {
    let mut t = Tracer::new(args.trace);
    let outcome = match workload {
        "table2_cold" => table2::run(&mut t, args),
        "decode_stream" => decode::run(&mut t, args),
        "serve_chaos" => serve::run(&mut t, args),
        "isa_trace" => isa::run(&mut t, args),
        other => unreachable!("workload {other} passed validation"),
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    let share = 100.0 * t.in_program_s() / t.elapsed_s();
    eprintln!("{workload}: set-up passes {:.4?} s", outcome.setup_s);
    eprintln!(
        "{workload}: resident {:.1} MB of inputs, peak {:.1} MB above them",
        outcome.inputs_rss_mb, outcome.peak_rss_mb
    );
    let mut rates = outcome.rounds.rates.clone();
    rates.sort_by(f64::total_cmp);
    eprintln!(
        "{workload}: ops/s per round min {:.3} median {:.3} max {:.3}; \
         at slot medians {:.3}",
        rates.first().copied().unwrap_or(0.0),
        median(&rates),
        rates.last().copied().unwrap_or(0.0),
        outcome.rounds.ops_per_s_at(0.5)
    );
    eprintln!(
        "{workload}: {} ops attempted, {} failed, {} rounds, {:.3} s timed; \
         {share:.1}% of {:.2} s wall inside program calls",
        outcome.attempted,
        outcome.failed,
        outcome.rounds.count(),
        outcome.rounds.timed_s,
        t.elapsed_s()
    );
    let metrics = if args.trace {
        let ledger = SelfTimeLedger::from_spans(t.spans());
        for ((root, name), secs) in &ledger.seconds {
            eprintln!("  self time under {root:<14} {name:<20} {secs:>10.4} s");
        }
        per_layer(&outcome, &t, &ledger)
    } else {
        end_to_end(&outcome)
    };
    render(&outcome, &metrics)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; it changes the measured code path. Unset it.");
        std::process::exit(2);
    }
    eprintln!("host: {}", fingerprint());
    match run_one(&args, &args.workload) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Res<RunArgs> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_is_checked() {
        let a = args(&[
            "--workload",
            "isa_trace",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all"]).is_err());
        assert!(args(&["--workload", "isa_trace", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "isa_trace", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        let line = render(&o, &[("a_s", 0.5, "s"), ("b", 2.0, "count")]).expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"a_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(render(&o, &[("x", f64::NAN, "s")]).is_err());
    }
}
