//! `serve_chaos`: `newton_serve::Server` serving a BERT S1 matrix
//! (1024 x 1024) on an 8-channel partition with ECC and telemetry on,
//! under bursty open-loop arrivals, conventional-traffic bursts, a BER
//! 1e-5 fault campaign and then a stuck word that retires one bank. Each
//! round builds a fresh server (set-up) and serves a fixed number of
//! queries (one op each); the count is fixed because per-query cost grows
//! with the simulated span while telemetry is on.

use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::TelemetryConfig;
use newton_dram::faults::CampaignSpec;
use newton_serve::{
    ChaosAction, ChaosEvent, ChaosPlan, ConventionalTraffic, ServeReport, Server, TrafficConfig,
};
use newton_workloads::arrivals::ArrivalPattern;
use newton_workloads::rng::mix64;
use newton_workloads::{generator, MvShape};

use crate::common::{
    bail, configure, fast_system, ideal_ns, path_config, pinned, validate_audits, Expected,
    Outcome, Res, Tally,
};
use crate::spans::{Tracer, CHECK, SETUP, TEARDOWN};
use crate::RunArgs;

/// Queries per round.
const REQUESTS: usize = 128;
/// Distinct canonical inputs the server cycles through.
const DISTINCT_INPUTS: usize = 4;
/// The stuck word's target.
const STUCK: (usize, usize) = (0, 2);

/// The BER 1e-5 campaign sized to the resident data per channel, with at
/// least one double-bit word so the scrub-and-retry rung runs.
fn ber_1e5(seed: u64, m: usize, n: usize, channels: usize) -> CampaignSpec {
    let bits_per_channel = (m * n * 16 / channels) as f64;
    let singles = (1e-5 * bits_per_channel).round() as usize;
    let doubles = (singles / 8).max(1);
    CampaignSpec {
        seed,
        single_bit_flips: singles.saturating_sub(2 * doubles),
        double_bit_words: doubles,
        stuck_cells: 0,
        retention: None,
    }
}

fn build_server(
    t: &mut Tracer,
    cfg: &NewtonConfig,
    matrix: &[Bf16],
    m: usize,
    n: usize,
    input_seed: u64,
    oracle: bool,
) -> Res<Server> {
    let cfg = path_config(cfg, oracle);
    t.call("serve.server_new", || {
        Server::new(cfg, matrix.to_vec(), m, n, DISTINCT_INPUTS, input_seed).map(|mut s| {
            configure(s.system_mut(), oracle);
            s
        })
    })
    .map_err(|e| format!("Server::new: {e}"))
}

fn check_report(r: &ServeReport, requests: usize) -> Res<()> {
    let requests = requests as u64;
    if r.offered != requests || r.completed != requests {
        bail!(
            "serve: offered {} completed {} of {requests} (shed {}, expired {})",
            r.offered,
            r.completed,
            r.shed,
            r.expired
        );
    }
    if r.sdc != 0 {
        bail!("serve: {} silently corrupted outputs", r.sdc);
    }
    if r.recovery.retired_banks != [STUCK] {
        bail!(
            "serve: expected exactly bank {STUCK:?} retired, got {:?}",
            r.recovery.retired_banks
        );
    }
    if r.injected_faults == 0 || r.replans != 1 {
        bail!(
            "serve: chaos did not run (faults {}, replans {})",
            r.injected_faults,
            r.replans
        );
    }
    Ok(())
}

/// Seed of the arrival trace. The trace is part of the workload's
/// definition and the same for every `--seed`: simulated latencies then
/// move only with the seeded data and fault campaign, so the latency
/// figures compare across seeds.
const ARRIVAL_SEED: u64 = 0xa771;

/// The traffic and chaos of one round of `requests` queries, with the
/// BER campaign after an eighth of the queries and the stuck word after
/// half. The arrivals and the batching, retry and fault-timing knobs are
/// the `bursty/ber_1e5_ecc` cell of the `serve` sweep
/// (`crates/bench/src/bin/serve.rs`); the deadline and the queue are
/// larger, so that nothing is shed or expires. The conventional bursts
/// are those of the serving test that measures their cost
/// (`conventional_traffic_serializes_and_inflates_latency` in
/// `crates/serve/tests/serving.rs`).
fn scenario(
    seed: u64,
    requests: usize,
    m: usize,
    n: usize,
    channels: usize,
) -> (TrafficConfig, ChaosPlan) {
    let traffic = TrafficConfig {
        pattern: ArrivalPattern::Bursty {
            base_rate_per_us: 0.01,
            peak_rate_per_us: 1.0,
            period_us: 200.0,
            burst_fraction: 0.2,
        },
        requests,
        seed: ARRIVAL_SEED,
        deadline_ns: 1e8,
        queue_capacity: requests,
        max_batch: 8,
        retry_backoff_cycles: 256,
        conventional: Some(ConventionalTraffic {
            interval_ns: 5_000.0,
            burst_cycles: 2_000,
        }),
    };
    let campaign = ber_1e5(mix64(seed ^ 0xbe5), m, n, channels);
    let chaos = ChaosPlan {
        events: vec![
            ChaosEvent {
                after_completed: (requests / 8) as u64,
                action: ChaosAction::Faults(campaign),
            },
            ChaosEvent {
                after_completed: (requests / 2) as u64,
                action: ChaosAction::StuckWord {
                    channel: STUCK.0,
                    bank: STUCK.1,
                },
            },
        ],
    };
    (traffic, chaos)
}

/// Runs the workload.
pub fn run(t: &mut Tracer, args: &RunArgs) -> Res<Outcome> {
    let (m, n, requests) = if args.quick {
        (256, 256, 64)
    } else {
        (1024, 1024, REQUESTS)
    };
    let mut cfg = pinned(NewtonConfig::paper_default());
    cfg.channels = 8;
    cfg.ecc = true;
    cfg.telemetry = Some(TelemetryConfig::default());
    let matrix = generator::matrix(MvShape::new(m, n), mix64(args.seed ^ 0x5e7e));
    let input_seed = mix64(args.seed ^ 0x1a9e);
    let (traffic, chaos) = scenario(args.seed, requests, m, n, cfg.channels);
    let mut out = Outcome::default();
    out.note_inputs_resident();
    let mut first: Option<ServeReport> = None;
    let started = std::time::Instant::now();
    let mut op_id = 0u64;
    while out.rounds.count() == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let before = t.in_program_s();
        let (server, _) = t.root(SETUP, None, |t| {
            build_server(t, &cfg, &matrix, m, n, input_seed, false)
        });
        out.setup_s.push(t.in_program_s() - before);
        let mut server = server?;
        let tally_before = Tally::of(server.system());
        let (report, wall) = t.op(op_id, |t| {
            t.call("serve.serve", || server.serve(&traffic, &chaos))
        });
        op_id += requests as u64;
        let report = report.map_err(|e| format!("serve: {e}"))?;
        out.rounds.record(wall, requests as u64)?;
        out.rounds.end_round()?;
        out.attempted += requests as u64;
        check_report(&report, requests)?;
        let l = &mut out.ledger;
        l.add_tally(&Tally::of(server.system()).since(&tally_before));
        l.aim.schedule_hits += report.schedule_hits;
        l.aim.schedule_misses += report.schedule_misses;
        l.aim.schedule_invalidations += report.schedule_invalidations;
        l.aim.replayed_commands += report.replayed_commands;
        l.retries += report.retries;
        l.replans += report.replans;
        l.conventional_bursts += report.conventional_bursts;
        t.root(TEARDOWN, None, |t| {
            t.call("serve.server_drop", move || drop(server));
        });
        match &first {
            None => first = Some(report),
            Some(f) if *f != report => bail!("serve: a repeated round differs from the first"),
            Some(_) => {}
        }
    }
    out.note_peak_resident();
    let report = first.expect("at least one round ran");
    out.sim_ns_per_op = report.span_ns / report.completed as f64;
    out.sim_p50_ns = report.p50_ns;
    out.sim_p99_ns = report.p99_ns;

    let (res, _) = t.root(CHECK, None, |t| -> Res<()> {
        // The server checks every output against goldens from a pristine
        // twin; check the twin's answers here: each distinct input on a
        // fresh system, against the f64 reference.
        let mut sys = fast_system(t, &cfg)?;
        let loaded = t
            .call("core.load_matrix", || sys.load_matrix(&matrix, m, n))
            .map_err(|e| format!("load_matrix: {e}"))?;
        let mut newton_ns = 0.0;
        for i in 0..DISTINCT_INPUTS {
            let input = generator::vector(n, input_seed.wrapping_add(i as u64));
            let run = t
                .call("core.run", || sys.run_resident(&loaded, &input))
                .map_err(|e| format!("twin input {i}: {e}"))?;
            let lanes = cfg.multipliers_per_bank;
            Expected::mv(&matrix, m, n, &input, lanes)
                .check(&format!("serve input {i}"), &run.output)?;
            newton_ns = run.elapsed_ns;
        }
        out.newton_vs_ideal_x = ideal_ns(t, &cfg, m, n)? / newton_ns;

        // Oracle pass: a round of a quarter of the queries, with the same
        // chaos, on the fast path and again on the reference engine with
        // replay off and the audit attached. (The audit's checks grow
        // faster than linearly with the command log, so a full round
        // would cost more than the timed rounds themselves.)
        let short = (requests / 4).max(8);
        let (traffic, chaos) = scenario(args.seed, short, m, n, cfg.channels);
        let mut reports = Vec::new();
        for oracle in [false, true] {
            let mut server = build_server(t, &cfg, &matrix, m, n, input_seed, oracle)?;
            let report = t
                .call("serve.serve", || server.serve(&traffic, &chaos))
                .map_err(|e| format!("oracle-pass serve: {e}"))?;
            check_report(&report, short)?;
            if oracle {
                validate_audits(t, server.system())?;
            }
            reports.push(report.sans_schedule_cache());
        }
        if reports[0] != reports[1] {
            bail!("serve: the oracle's report differs from the fast path's");
        }
        Ok(())
    });
    res?;
    Ok(out)
}
