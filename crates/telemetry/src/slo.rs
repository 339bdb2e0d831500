//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states the objective ("p99 of completions meets the
//! deadline, with an error budget of 1 %"); an [`SloTracker`] folds the
//! completion stream into aligned [`TimeSeries`] rings and evaluates the Google-SRE style *multi-window burn rate*:
//!
//! ```text
//! burn = (violating / completed) / error_budget        per window
//! fire  when burn(fast 5 s) > threshold  AND  burn(slow 60 s) > threshold
//! ```
//!
//! Requiring both windows makes the alert respond quickly (the fast
//! window) without flapping on blips (the slow window must agree), and
//! explicit hysteresis — consecutive breach/clear evaluations, resolve
//! at half the firing threshold — keeps a borderline burn from toggling
//! every tick. All times are simulated, so alert sequences are
//! deterministic and byte-reproducible.

use crate::timeseries::TimeSeries;

/// Evaluation-window width: trackers evaluate on 1 s boundaries.
pub const EVAL_WINDOW_NS: f64 = 1e9;
/// Fast burn window (5 s of simulated time).
pub const FAST_WINDOW_NS: f64 = 5e9;
/// Slow burn window (60 s of simulated time).
pub const SLOW_WINDOW_NS: f64 = 60e9;
/// Burn rate at (or above) which an alert fires.
pub const BURN_THRESHOLD: f64 = 10.0;
/// Consecutive breaching (clearing) evaluations before a transition.
pub const HYSTERESIS_EVALS: u32 = 2;

/// A declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (rendered in alerts and reports).
    pub name: String,
    /// Target percentile, e.g. `0.99`.
    pub percentile: f64,
    /// Latency deadline the percentile must meet, ms.
    pub deadline_ms: f64,
}

impl SloSpec {
    /// An objective over `percentile`, clamped into [0, 1].
    pub fn new(name: impl Into<String>, percentile: f64, deadline_ms: f64) -> Self {
        SloSpec {
            name: name.into(),
            percentile: percentile.clamp(0.0, 1.0),
            deadline_ms,
        }
    }

    /// Fraction of completions allowed to violate the deadline:
    /// `1 − percentile`.
    pub fn error_budget(&self) -> f64 {
        (1.0 - self.percentile).max(1e-6)
    }
}

/// What an [`AlertEvent`] announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Both burn windows exceeded the threshold.
    BurnRate,
    /// An injected fault landed (the flight recorder dumps on this).
    Fault,
    /// A firing burn-rate alert cleared.
    Resolved,
}

impl AlertKind {
    /// Stable lower-case name for exports.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::BurnRate => "burn-rate",
            AlertKind::Fault => "fault",
            AlertKind::Resolved => "resolved",
        }
    }
}

/// One typed alert emitted by an [`SloTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// When the alert fired, shared clock ns.
    pub t_ns: f64,
    /// The objective (for [`AlertKind::Fault`], the fault label).
    pub slo: String,
    /// What kind of alert this is.
    pub kind: AlertKind,
    /// Fast-window burn rate at evaluation time.
    pub burn_fast: f64,
    /// Slow-window burn rate at evaluation time.
    pub burn_slow: f64,
    /// Span id of the slowest recent request, when known — the link
    /// from the alert into the flight-recorder dump.
    pub exemplar: Option<u64>,
}

impl AlertEvent {
    /// A fault landed at `t_ns`: `label` names it, `exemplar` is a
    /// span id the dump it froze resolves, when known.
    pub fn fault(t_ns: f64, label: impl Into<String>, exemplar: Option<u64>) -> Self {
        AlertEvent {
            t_ns,
            slo: label.into(),
            kind: AlertKind::Fault,
            burn_fast: 0.0,
            burn_slow: 0.0,
            exemplar,
        }
    }
}

/// Evaluates one [`SloSpec`] over a completion stream.
#[derive(Debug, Clone)]
pub struct SloTracker {
    /// The objective being tracked.
    pub spec: SloSpec,
    completions: TimeSeries,
    violations: TimeSeries,
    firing: bool,
    breach_streak: u32,
    clear_streak: u32,
    total_completed: u64,
    total_violated: u64,
}

impl SloTracker {
    /// Creates a tracker for `spec`. Ring capacity covers the slow
    /// window with slack.
    pub fn new(spec: SloSpec) -> Self {
        let cap = (SLOW_WINDOW_NS / EVAL_WINDOW_NS).ceil() as usize + 8;
        SloTracker {
            spec,
            completions: TimeSeries::new(EVAL_WINDOW_NS, cap),
            violations: TimeSeries::new(EVAL_WINDOW_NS, cap),
            firing: false,
            breach_streak: 0,
            clear_streak: 0,
            total_completed: 0,
            total_violated: 0,
        }
    }

    /// Folds one completed request into the windows.
    pub fn observe(&mut self, t_ns: f64, latency_ms: f64) {
        let violated = latency_ms > self.spec.deadline_ms;
        self.completions.add(t_ns, 1.0);
        self.violations.add(t_ns, if violated { 1.0 } else { 0.0 });
        self.total_completed += 1;
        if violated {
            self.total_violated += 1;
        }
    }

    /// Folds a pre-aggregated window of `completed` requests, of which
    /// `violated` missed the deadline, into the rings at `t_ns`.
    ///
    /// This is the fleet rollup path: the fleet's tenant series already
    /// hold per-window completion/violation counts, folded from every
    /// chip's log, so the fleet-scope tracker ingests whole windows
    /// instead of replaying every request. Call in non-decreasing
    /// `t_ns` order (the fleet folds a window once its boundary has
    /// passed, which guarantees it); `violated` is clamped to
    /// `completed`.
    pub fn fold_window(&mut self, t_ns: f64, completed: u64, violated: u64) {
        if completed == 0 {
            return;
        }
        let violated = violated.min(completed);
        self.completions.add(t_ns, completed as f64);
        self.violations.add(t_ns, violated as f64);
        self.total_completed += completed;
        self.total_violated += violated;
    }

    fn burn(&self, now_ns: f64, window_ns: f64) -> f64 {
        let done = self.completions.sum_over(now_ns, window_ns);
        if done <= 0.0 {
            return 0.0;
        }
        let viol = self.violations.sum_over(now_ns, window_ns);
        (viol / done) / self.spec.error_budget()
    }

    /// Fast-window burn rate at `now_ns`.
    pub fn burn_fast(&self, now_ns: f64) -> f64 {
        self.burn(now_ns, FAST_WINDOW_NS)
    }

    /// Slow-window burn rate at `now_ns`.
    pub fn burn_slow(&self, now_ns: f64) -> f64 {
        self.burn(now_ns, SLOW_WINDOW_NS)
    }

    /// Whether the burn-rate alert is currently firing.
    pub fn firing(&self) -> bool {
        self.firing
    }

    /// Fraction of the total error budget consumed so far:
    /// `(violated / completed) / budget` over the whole run.
    pub fn budget_consumed(&self) -> f64 {
        if self.total_completed == 0 {
            return 0.0;
        }
        (self.total_violated as f64 / self.total_completed as f64) / self.spec.error_budget()
    }

    /// Completions observed over the whole run.
    pub fn completed(&self) -> u64 {
        self.total_completed
    }

    /// Deadline violations observed over the whole run.
    pub fn violated(&self) -> u64 {
        self.total_violated
    }

    /// Evaluates the burn-rate rule at a window boundary. Returns an
    /// alert on a state *transition* (fire or resolve), `None` while
    /// the state holds. `exemplar` links a fired alert to the slowest
    /// recent request's span.
    pub fn evaluate(&mut self, now_ns: f64, exemplar: Option<u64>) -> Option<AlertEvent> {
        // Keep both rings advanced so quiet periods decay the burn.
        self.completions.advance(now_ns);
        self.violations.advance(now_ns);
        let fast = self.burn_fast(now_ns);
        let slow = self.burn_slow(now_ns);
        let breach = fast >= BURN_THRESHOLD && slow >= BURN_THRESHOLD;
        let clear = fast < BURN_THRESHOLD / 2.0 && slow < BURN_THRESHOLD / 2.0;
        if breach {
            self.breach_streak += 1;
            self.clear_streak = 0;
        } else if clear {
            self.clear_streak += 1;
            self.breach_streak = 0;
        } else {
            // Between resolve and fire thresholds: hold state.
            self.breach_streak = 0;
            self.clear_streak = 0;
        }
        if !self.firing && self.breach_streak >= HYSTERESIS_EVALS {
            self.firing = true;
            return Some(AlertEvent {
                t_ns: now_ns,
                slo: self.spec.name.clone(),
                kind: AlertKind::BurnRate,
                burn_fast: fast,
                burn_slow: slow,
                exemplar,
            });
        }
        if self.firing && self.clear_streak >= HYSTERESIS_EVALS {
            self.firing = false;
            return Some(AlertEvent {
                t_ns: now_ns,
                slo: self.spec.name.clone(),
                kind: AlertKind::Resolved,
                burn_fast: fast,
                burn_slow: slow,
                exemplar: None,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        // p99 within 10 ms, budget 1 %, threshold 10 → fires when the
        // windowed violation rate reaches 10 %.
        SloSpec::new("p99<10ms", 0.99, 10.0)
    }

    #[test]
    fn defaults_derive_budget() {
        assert!((spec().error_budget() - 0.01).abs() < 1e-12);
        assert_eq!(SloSpec::new("all", 1.0, 1.0).error_budget(), 1e-6);
    }

    #[test]
    fn clean_stream_never_fires() {
        let mut t = SloTracker::new(spec());
        for i in 0..100 {
            let now = i as f64 * 1e9;
            for j in 0..50 {
                t.observe(now + j as f64 * 1e7, 3.0);
            }
            assert!(t.evaluate(now + 0.99e9, None).is_none());
        }
        assert!(!t.firing());
        assert_eq!(t.budget_consumed(), 0.0);
    }

    #[test]
    fn sustained_violations_fire_once_with_hysteresis() {
        let mut t = SloTracker::new(spec());
        let mut alerts = Vec::new();
        for i in 0..30 {
            let now = i as f64 * 1e9;
            for j in 0..50 {
                // 50 % violation rate → burn 50 ≫ 10.
                let lat = if j % 2 == 0 { 50.0 } else { 3.0 };
                t.observe(now + j as f64 * 1e7, lat);
            }
            if let Some(a) = t.evaluate(now + 0.99e9, Some(7)) {
                alerts.push(a);
            }
        }
        assert_eq!(alerts.len(), 1, "steady breach fires exactly once");
        assert_eq!(alerts[0].kind, AlertKind::BurnRate);
        assert_eq!(alerts[0].exemplar, Some(7));
        assert!(alerts[0].burn_fast >= BURN_THRESHOLD);
        // Needs HYSTERESIS_EVALS breaching evaluations first.
        assert!(alerts[0].t_ns >= (HYSTERESIS_EVALS as f64 - 1.0) * 1e9);
        assert!(t.firing());
    }

    #[test]
    fn recovery_resolves() {
        let mut t = SloTracker::new(spec());
        let mut events = Vec::new();
        for i in 0..80 {
            let now = i as f64 * 1e9;
            for j in 0..50 {
                // Violations only in the first 10 s.
                let lat = if i < 10 { 50.0 } else { 3.0 };
                t.observe(now + j as f64 * 1e7, lat);
            }
            if let Some(a) = t.evaluate(now + 0.99e9, None) {
                events.push(a.kind);
            }
        }
        assert_eq!(events, vec![AlertKind::BurnRate, AlertKind::Resolved]);
        assert!(!t.firing());
    }

    #[test]
    fn single_blip_does_not_fire() {
        let mut t = SloTracker::new(spec());
        let mut fired = 0;
        for i in 0..70 {
            let now = i as f64 * 1e9;
            for j in 0..50 {
                // One fully-bad second after a minute of clean traffic.
                let lat = if i == 65 { 50.0 } else { 3.0 };
                t.observe(now + j as f64 * 1e7, lat);
            }
            if t.evaluate(now + 0.99e9, None).is_some() {
                fired += 1;
            }
            if i == 66 {
                // The fast window is breaching right after the blip…
                assert!(t.burn_fast(now + 0.99e9) >= BURN_THRESHOLD);
                // …but the minute of clean history keeps the slow
                // window below threshold, vetoing the alert.
                assert!(t.burn_slow(now + 0.99e9) < BURN_THRESHOLD);
            }
        }
        assert_eq!(fired, 0);
    }

    #[test]
    fn folded_windows_match_per_request_observation() {
        // Observing 50 requests per second with 50 % violations must be
        // indistinguishable from folding the same counts window-wise.
        let mut by_request = SloTracker::new(spec());
        let mut by_window = SloTracker::new(spec());
        let mut transitions = (Vec::new(), Vec::new());
        for i in 0..20 {
            let now = i as f64 * 1e9;
            for j in 0..50 {
                let lat = if j % 2 == 0 { 50.0 } else { 3.0 };
                by_request.observe(now + j as f64 * 1e7, lat);
            }
            by_window.fold_window(now, 50, 25);
            if let Some(a) = by_request.evaluate(now + 0.99e9, None) {
                transitions.0.push(a.kind);
            }
            if let Some(a) = by_window.evaluate(now + 0.99e9, None) {
                transitions.1.push(a.kind);
            }
        }
        assert_eq!(transitions.0, transitions.1);
        assert_eq!(by_request.completed(), by_window.completed());
        assert_eq!(by_request.violated(), by_window.violated());
        assert_eq!(by_request.firing(), by_window.firing());
        assert!((by_request.budget_consumed() - by_window.budget_consumed()).abs() < 1e-12);
    }

    #[test]
    fn budget_consumed_accumulates() {
        let mut t = SloTracker::new(spec());
        for j in 0..100 {
            t.observe(j as f64 * 1e7, if j < 2 { 50.0 } else { 3.0 });
        }
        // 2 % violations against a 1 % budget → 2× budget consumed.
        assert!((t.budget_consumed() - 2.0).abs() < 1e-9);
        assert_eq!(t.completed(), 100);
        assert_eq!(t.violated(), 2);
    }
}
