//! What every workload shares: explicit configuration, the fast and
//! oracle systems, output checks against `f64` references, and the
//! per-layer ledger read from the program's own counters.

use newton_bf16::reduce::dot_error_bound;
use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::controller::AimStats;
use newton_core::parallel::{ParallelPolicy, DEFAULT_MIN_CHANNEL_MACS};
use newton_core::system::{NewtonSystem, SystemRun};
use newton_dram::TimingEngine;
use newton_workloads::reference;

use crate::spans::{nearest_rank, quantile, Tracer};

/// Errors the benchmark reports and exits on.
pub type Res<T> = Result<T, String>;

/// Returns early with a formatted error.
macro_rules! bail {
    ($($arg:tt)*) => { return Err(format!($($arg)*)) };
}
pub(crate) use bail;

/// Host worker threads the program may use: the host's cores, capped at
/// two so figures from hosts with more cores stay comparable.
#[must_use]
pub fn worker_width() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// `cfg` with the worker pool pinned to [`worker_width`] and the replay
/// cache on, independent of the environment.
#[must_use]
pub fn pinned(mut cfg: NewtonConfig) -> NewtonConfig {
    cfg.parallel = ParallelPolicy {
        max_threads: Some(worker_width()),
        min_channel_macs: DEFAULT_MIN_CHANNEL_MACS,
        respect_env: false,
    };
    cfg.schedule_replay = true;
    cfg
}

/// Sets the measured path on a built system: event-skipping timing and
/// the replay cache for the timed path, or, for the oracle, the
/// per-command reference engine with replay off and the post-hoc audit
/// attached to every channel.
pub fn configure(sys: &mut NewtonSystem, oracle: bool) {
    if oracle {
        sys.set_timing_engine(TimingEngine::Reference);
        sys.set_schedule_replay(false);
        for ch in sys.channels_mut() {
            ch.channel_mut().enable_audit();
        }
    } else {
        sys.set_timing_engine(TimingEngine::EventSkipping);
        sys.set_schedule_replay(true);
    }
}

/// `cfg` for the timed path or the oracle: the replay cache is off on
/// the oracle from construction on.
#[must_use]
pub fn path_config(cfg: &NewtonConfig, oracle: bool) -> NewtonConfig {
    let mut cfg = cfg.clone();
    cfg.schedule_replay = !oracle;
    cfg
}

/// Builds the system the timed path runs on (see [`configure`]).
pub fn fast_system(t: &mut Tracer, cfg: &NewtonConfig) -> Res<NewtonSystem> {
    let cfg = path_config(cfg, false);
    t.call("core.system_new", || {
        NewtonSystem::new(cfg).map(|mut sys| {
            configure(&mut sys, false);
            sys
        })
    })
    .map_err(|e| format!("NewtonSystem::new: {e}"))
}

/// Builds the oracle system (see [`configure`]).
pub fn oracle_system(t: &mut Tracer, cfg: &NewtonConfig) -> Res<NewtonSystem> {
    let cfg = path_config(cfg, true);
    t.call("core.system_new", || {
        NewtonSystem::new(cfg).map(|mut sys| {
            configure(&mut sys, true);
            sys
        })
    })
    .map_err(|e| format!("oracle NewtonSystem::new: {e}"))
}

/// Checks every channel's audit log of an oracle system.
pub fn validate_audits(t: &mut Tracer, sys: &NewtonSystem) -> Res<()> {
    t.call("dram.audit", || {
        for (i, ch) in sys.channels().iter().enumerate() {
            if ch.channel().audit().is_none() {
                bail!("channel {i} has no audit attached");
            }
            ch.validate_audit()
                .map_err(|e| format!("audit rejected channel {i}: {e}"))?;
        }
        Ok(())
    })
}

/// The fast run and the oracle run agree on outputs (bit for bit),
/// simulated cycles, and machine stats with the replay-cache counters
/// zeroed.
pub fn same_run(what: &str, fast: &SystemRun, oracle: &SystemRun) -> Res<()> {
    let bits = |r: &SystemRun| r.output.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(fast) != bits(oracle) {
        bail!("{what}: outputs differ between the fast path and the oracle");
    }
    if fast.cycles != oracle.cycles {
        bail!(
            "{what}: cycles differ: fast {} vs oracle {}",
            fast.cycles,
            oracle.cycles
        );
    }
    if fast.stats.sans_schedule_cache() != oracle.stats.sans_schedule_cache() {
        bail!(
            "{what}: stats differ: fast {:?} vs oracle {:?}",
            fast.stats,
            oracle.stats
        );
    }
    Ok(())
}

/// An `f64` reference product with a per-element error envelope.
#[derive(Debug, Clone)]
pub struct Expected {
    want: Vec<f64>,
    bound: Vec<f64>,
}

impl Expected {
    /// The exact product of `matrix` (`m x n`) and `vector`, with the
    /// bf16 dot-product error bound for latches of `chunk` elements.
    #[must_use]
    pub fn mv(matrix: &[Bf16], m: usize, n: usize, vector: &[Bf16], chunk: usize) -> Expected {
        let want = reference::mv_f64(matrix, m, n, vector);
        let bound = want
            .iter()
            .map(|w| dot_error_bound(n, chunk, w.abs().max(1.0)))
            .collect();
        Expected { want, bound }
    }

    /// Expected values with one absolute tolerance for every element.
    #[must_use]
    pub fn with_tolerance(want: Vec<f64>, tolerance: f64) -> Expected {
        let bound = vec![tolerance; want.len()];
        Expected { want, bound }
    }

    /// Checks simulator outputs against the envelope.
    pub fn check(&self, what: &str, got: &[f32]) -> Res<()> {
        if got.len() != self.want.len() {
            bail!(
                "{what}: {} outputs, expected {}",
                got.len(),
                self.want.len()
            );
        }
        for (i, ((g, w), b)) in got.iter().zip(&self.want).zip(&self.bound).enumerate() {
            let err = (f64::from(*g) - w).abs();
            if err.is_nan() || err > *b {
                bail!("{what}: output {i} = {g}, reference {w}, error {err} > bound {b}");
            }
        }
        Ok(())
    }
}

/// Output bits, for exact repeat checks.
#[must_use]
pub fn output_bits(run: &SystemRun) -> Vec<u32> {
    run.output.iter().map(|x| x.to_bits()).collect()
}

/// Cumulative counters of one system at one moment; the difference of
/// two readings is what the system did in between.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Host-phase nanoseconds: encode, drain, comp (summed over worker
    /// threads), merge, snapshot.
    pub host_ns: [u64; 5],
    /// All-bank refreshes issued.
    pub refreshes: u64,
    /// ECC-corrected words.
    pub ecc_corrected: u64,
    /// MACs performed by the bank multipliers.
    pub macs: u64,
    /// Telemetry windows held.
    pub windows: u64,
}

impl Tally {
    /// Reads `sys`'s counters.
    #[must_use]
    pub fn of(sys: &NewtonSystem) -> Tally {
        let mut host_ns = [0u64; 5];
        for p in sys.host_phases().phases() {
            if let Some(i) = newton_core::HOST_PHASES.iter().position(|&n| n == p.name) {
                host_ns[i] += p.nanos;
            }
        }
        let lanes = sys.config().multipliers_per_bank as u64;
        let mut t = Tally {
            host_ns,
            ..Tally::default()
        };
        for ch in sys.channels() {
            let stats = ch.channel().stats();
            t.refreshes += stats.refreshes;
            t.ecc_corrected += stats.ecc_corrected;
            t.macs += ch.device().total_comps() * lanes;
            t.windows += ch
                .channel()
                .telemetry()
                .map_or(0, |s| s.windows().len() as u64);
        }
        t
    }

    /// `self - before`, counter by counter.
    #[must_use]
    pub fn since(&self, before: &Tally) -> Tally {
        let mut host_ns = [0u64; 5];
        for (i, h) in host_ns.iter_mut().enumerate() {
            *h = self.host_ns[i].saturating_sub(before.host_ns[i]);
        }
        Tally {
            host_ns,
            refreshes: self.refreshes.saturating_sub(before.refreshes),
            ecc_corrected: self.ecc_corrected.saturating_sub(before.ecc_corrected),
            macs: self.macs.saturating_sub(before.macs),
            windows: self.windows.saturating_sub(before.windows),
        }
    }
}

/// Per-layer work of the timed operations, summed over the run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// System counters.
    pub tally: Tally,
    /// AiM command and replay-cache counters.
    pub aim: AimStats,
    /// Serving: extra attempts after uncorrectable errors.
    pub retries: u64,
    /// Serving: re-plans after bank retirement.
    pub replans: u64,
    /// Serving: conventional-traffic bursts drained.
    pub conventional_bursts: u64,
    /// ISA: instructions parsed.
    pub instrs: u64,
    /// ISA: trace text bytes parsed.
    pub text_bytes: u64,
    /// ISA: AiM instructions interpreted.
    pub aim_ops: u64,
}

impl Ledger {
    /// Adds a system-counter difference.
    pub fn add_tally(&mut self, d: &Tally) {
        let t = &mut self.tally;
        for (i, h) in t.host_ns.iter_mut().enumerate() {
            *h += d.host_ns[i];
        }
        t.refreshes += d.refreshes;
        t.ecc_corrected += d.ecc_corrected;
        t.macs += d.macs;
        t.windows += d.windows;
    }
}

/// The quantile of each slot's time that `ops_per_s` takes, and of the
/// set-up passes that `setup_s` takes. On a shared host whose CPU speed
/// changes in spells of seconds, a run's median depends on how much of it
/// fell in fast spells; nearly every run has slow spells, and their speed
/// repeats (README, noise notes).
pub const SLOT_PERCENTILE: f64 = 0.9;

/// Wall times of the timed rounds. Every round runs the same sequence of
/// timed roots ("slots"), each holding one or more ops.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Wall time of each slot in every round so far, seconds.
    slots: Vec<Vec<f64>>,
    /// Successful ops of each slot (the same in every round).
    ok: Vec<u64>,
    /// Slot the next timed root fills.
    slot: usize,
    /// Wall time of the round in progress.
    wall: f64,
    /// Successful ops per second of each whole round.
    pub rates: Vec<f64>,
    /// Wall time of every timed root, seconds.
    pub timed_s: f64,
}

impl Rounds {
    /// Records the next slot of the current round: its wall time and how
    /// many of its ops succeeded.
    pub fn record(&mut self, secs: f64, ok: u64) -> Res<()> {
        if self.rates.is_empty() {
            self.slots.push(vec![secs]);
            self.ok.push(ok);
        } else {
            let Some(times) = self.slots.get_mut(self.slot) else {
                bail!("round has more slots than the first");
            };
            times.push(secs);
            if self.ok[self.slot] != ok {
                bail!(
                    "slot {} succeeded {ok} ops, {} in the first round",
                    self.slot,
                    self.ok[self.slot]
                );
            }
        }
        self.slot += 1;
        self.wall += secs;
        self.timed_s += secs;
        Ok(())
    }

    /// Closes the current round.
    pub fn end_round(&mut self) -> Res<()> {
        if self.slot != self.slots.len() {
            bail!(
                "round has {} slots, the first had {}",
                self.slot,
                self.slots.len()
            );
        }
        let ok: u64 = self.ok.iter().sum();
        self.rates.push(ok as f64 / self.wall);
        self.slot = 0;
        self.wall = 0.0;
        Ok(())
    }

    /// Whole rounds run.
    #[must_use]
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Successful ops per second of a round in which every slot takes
    /// its [`SLOT_PERCENTILE`] time over the run: the rate the run
    /// sustained in nine rounds of ten.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_s_at(SLOT_PERCENTILE)
    }

    /// Successful ops per second of a round in which every slot takes
    /// its `p` quantile time over the run (nearest rank). Taking the
    /// quantile slot by slot keeps one slow or fast spell from moving the
    /// figure, even when it hits only part of a round.
    #[must_use]
    pub fn ops_per_s_at(&self, p: f64) -> f64 {
        let ok: u64 = self.ok.iter().sum();
        ok as f64 / self.slots.iter().map(|s| quantile(s, p)).sum::<f64>()
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed rounds.
    pub attempted: u64,
    /// Attempted operations that failed (known faults only).
    pub failed: u64,
    /// Program time of each set-up pass, seconds.
    pub setup_s: Vec<f64>,
    /// Wall times of the timed rounds.
    pub rounds: Rounds,
    /// Simulated nanoseconds per successful operation.
    pub sim_ns_per_op: f64,
    /// Median simulated latency, ns.
    pub sim_p50_ns: f64,
    /// 99th-percentile simulated latency, ns.
    pub sim_p99_ns: f64,
    /// Geomean over the workload's layers of Ideal Non-PIM time over
    /// Newton time.
    pub newton_vs_ideal_x: f64,
    /// Resident set of the benchmark's own inputs and references, read
    /// before the first program call, MB.
    pub inputs_rss_mb: f64,
    /// Peak resident set after the timed rounds, above `inputs_rss_mb`,
    /// MB.
    pub peak_rss_mb: f64,
    /// Per-layer counters.
    pub ledger: Ledger,
}

impl Outcome {
    /// Records the resident set of the generated inputs. Call it after
    /// generating them and before the first program call.
    pub fn note_inputs_resident(&mut self) {
        self.inputs_rss_mb = status_mb("VmRSS:");
        let hwm = status_mb("VmHWM:");
        eprintln!(
            "resident before the first program call: {:.1} MB (peak so far {hwm:.1} MB)",
            self.inputs_rss_mb
        );
    }

    /// Records the peak resident set above the inputs. Call it after the
    /// timed rounds.
    pub fn note_peak_resident(&mut self) {
        self.peak_rss_mb = status_mb("VmHWM:") - self.inputs_rss_mb;
    }

    /// Fills the simulated-time figures from per-operation latencies.
    pub fn set_sim_latencies(&mut self, mut ns: Vec<f64>) {
        ns.sort_by(f64::total_cmp);
        self.sim_ns_per_op = ns.iter().sum::<f64>() / ns.len().max(1) as f64;
        self.sim_p50_ns = nearest_rank(&ns, 0.50).unwrap_or(0.0);
        self.sim_p99_ns = nearest_rank(&ns, 0.99).unwrap_or(0.0);
    }
}

/// One `kB` field of `/proc/self/status` (`VmHWM:`, `VmRSS:`) in MB, or 0
/// where the kernel does not report it.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ideal Non-PIM time for an `m x n` layer on `cfg`'s DRAM and channel
/// count, ns.
pub fn ideal_ns(t: &mut Tracer, cfg: &NewtonConfig, m: usize, n: usize) -> Res<f64> {
    let ideal = newton_baselines::IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    t.call("baselines.ideal", || ideal.run_layer_detailed(m, n))
        .map(|(out, _)| out.time_ns)
        .map_err(|e| format!("IdealNonPim::run_layer_detailed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_take_each_slots_quantile_time() {
        let mut r = Rounds::default();
        r.record(2.0, 1).expect("first round");
        r.record(4.0, 0).expect("first round");
        r.end_round().expect("whole round");
        r.record(1.0, 1).expect("second round");
        r.record(5.0, 0).expect("second round");
        r.end_round().expect("whole round");
        r.record(3.0, 1).expect("third round");
        r.record(3.0, 0).expect("third round");
        r.end_round().expect("whole round");
        assert_eq!(r.count(), 3);
        assert_eq!(r.rates, vec![1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]);
        // Slot medians: 2.0 and 4.0; 90th percentiles: 3.0 and 5.0.
        assert_eq!(r.ops_per_s_at(0.5), 1.0 / 6.0);
        assert_eq!(r.ops_per_s(), 1.0 / 8.0);
        assert_eq!(r.timed_s, 18.0);
        // A slot whose success count changes, or a short round, is refused.
        assert!(r.record(1.0, 0).is_err());
        let mut short = Rounds::default();
        short.record(1.0, 1).expect("first round");
        short.end_round().expect("whole round");
        short
            .end_round()
            .expect_err("a round with no slots is not whole");
    }

    #[test]
    fn expected_values_check_the_envelope() {
        let e = Expected::with_tolerance(vec![1.0, -2.0], 0.5);
        assert!(e.check("ok", &[1.25, -2.5]).is_ok());
        assert!(e.check("far", &[1.75, -2.0]).is_err());
        assert!(e.check("nan", &[f32::NAN, -2.0]).is_err());
        assert!(e.check("short", &[1.0]).is_err());
    }
}
