//! Wall-clock spans around calls into the program's public API.
//!
//! Every call the benchmark makes into the library goes through
//! [`Tracer::call`], and every timed operation through [`Tracer::op`].
//! Both always time themselves (that is how `ops_per_s`, `setup_s` and
//! the in-program share are measured); with tracing on, each call also
//! leaves a [`Span`] — name, start, end, parent and op id — in memory.
//! Spans are reduced to per-name self time once the run has ended.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of one timed operation.
pub const OP: &str = "bench.op";
/// Root span of one set-up pass.
pub const SETUP: &str = "bench.setup";
/// Root span of untimed work done through the program for checking
/// (reference runs, the oracle pass).
pub const CHECK: &str = "bench.check";
/// Root span of tearing down what a set-up built.
pub const TEARDOWN: &str = "bench.teardown";

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Timed operation this span belongs to, if any.
    pub op: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of every span: its duration minus the part covered by its
/// direct children. Children of one parent never overlap (calls are
/// sequential), so the covered part is the sum of their durations,
/// clamped to the parent's own duration.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, &c)| s.duration().saturating_sub(c))
        .collect()
}

/// The root (outermost) ancestor of span `i`.
#[must_use]
pub fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Per-name self time in seconds, split by the kind of root the span
/// sits under ([`OP`], [`SETUP`], [`CHECK`] or [`TEARDOWN`]), plus how many roots of
/// each kind there were.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimeLedger {
    /// `(root kind, span name)` → summed self seconds.
    pub seconds: BTreeMap<(&'static str, &'static str), f64>,
    /// Root kind → number of root spans of that kind.
    pub roots: BTreeMap<&'static str, u64>,
}

impl SelfTimeLedger {
    /// Reduces a span list.
    #[must_use]
    pub fn from_spans(spans: &[Span]) -> SelfTimeLedger {
        let selfs = self_times(spans);
        let mut ledger = SelfTimeLedger::default();
        for (i, s) in spans.iter().enumerate() {
            let root = spans[root_of(spans, i)].name;
            if s.parent.is_none() {
                *ledger.roots.entry(root).or_default() += 1;
            }
            *ledger.seconds.entry((root, s.name)).or_default() += selfs[i] as f64 / 1e9;
        }
        ledger
    }

    /// Self seconds of `name` under roots of kind `root`.
    #[must_use]
    pub fn get(&self, root: &'static str, name: &'static str) -> f64 {
        self.seconds.get(&(root, name)).copied().unwrap_or(0.0)
    }

    /// Number of roots of kind `root`.
    #[must_use]
    pub fn roots(&self, root: &'static str) -> u64 {
        self.roots.get(root).copied().unwrap_or(0)
    }
}

/// Times calls into the program and, when enabled, records spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    in_program_ns: u64,
}

impl Tracer {
    /// A tracer; `enabled` keeps spans, otherwise only totals are kept.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            in_program_ns: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, at: Instant) {
        if self.enabled {
            let span = Span {
                name,
                start: self.ns(at),
                end: 0,
                parent: self.open.last().copied(),
                op: self.op,
            };
            self.open.push(self.spans.len());
            self.spans.push(span);
        }
    }

    fn leave(&mut self, at: Instant) {
        if self.enabled {
            let i = self.open.pop().expect("leave matches an enter");
            self.spans[i].end = self.ns(at);
        }
    }

    /// Runs one call into the program under a span named `name`; its
    /// wall time counts as in-program time. (The closure cannot reach
    /// the tracer, so calls never nest.)
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        self.enter(name, t0);
        let out = f();
        let t1 = Instant::now();
        self.leave(t1);
        self.in_program_ns += t1.duration_since(t0).as_nanos() as u64;
        out
    }

    /// Runs a root span of kind `root` (one of the root constants above)
    /// and returns its result with its wall time in seconds. An [`OP`]
    /// root carries `op_id` into every span inside it.
    pub fn root<T>(
        &mut self,
        root: &'static str,
        op_id: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        assert!(self.open.is_empty(), "root spans do not nest");
        self.op = op_id;
        let t0 = Instant::now();
        self.enter(root, t0);
        let out = f(self);
        let t1 = Instant::now();
        self.leave(t1);
        self.op = None;
        (out, t1.duration_since(t0).as_secs_f64())
    }

    /// Runs one timed operation.
    pub fn op<T>(&mut self, op_id: u64, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        self.root(OP, Some(op_id), f)
    }

    /// Seconds spent inside program calls so far.
    #[must_use]
    pub fn in_program_s(&self) -> f64 {
        self.in_program_ns as f64 / 1e9
    }

    /// Seconds since the tracer was created.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The recorded spans (empty when tracing is off).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the sample at or below it. `None` when empty.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The `p` quantile of unsorted values by nearest rank, or 0 when there
/// are none.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, p).unwrap_or(0.0)
}

/// Median by nearest rank (the lower middle of an even sample).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: None,
        }
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 0.999), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 0.5), Some(2.0));
        assert_eq!(nearest_rank(&four, 0.51), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0, 100) ⊃ a [10, 40) ⊃ a1 [15, 25); op ⊃ b [50, 90).
        let spans = vec![
            span(OP, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration(), "self times tile the root");
        assert_eq!(root_of(&spans, 2), 0);
    }

    #[test]
    fn ledger_splits_by_root_kind() {
        let spans = vec![
            span(SETUP, 0, 10, None),
            span("core.run", 2, 8, Some(0)),
            span(OP, 10, 30, None),
            span("core.run", 12, 28, Some(2)),
            span(OP, 30, 40, None),
        ];
        let l = SelfTimeLedger::from_spans(&spans);
        assert_eq!(l.roots(OP), 2);
        assert_eq!(l.roots(SETUP), 1);
        assert!((l.get(OP, "core.run") - 16e-9).abs() < 1e-15);
        assert!((l.get(SETUP, "core.run") - 6e-9).abs() < 1e-15);
        assert!((l.get(OP, OP) - 14e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_records_nested_spans_and_in_program_time() {
        let mut t = Tracer::new(true);
        let ((), wall) = t.op(3, |t| {
            t.call("first", || std::hint::black_box(1 + 1));
            t.call("second", || ());
        });
        assert!(wall >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, OP);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == Some(0) && s.op == Some(3)));
        assert!(t.in_program_s() <= wall + 1e-9);
        let mut off = Tracer::new(false);
        off.op(0, |t| t.call("x", || ()));
        assert!(off.spans().is_empty());
    }
}
