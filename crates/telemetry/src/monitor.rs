//! The core every live monitor shares: one evaluation clock and one
//! objective type.
//!
//! The request-level, token-level and fleet monitors each judge their
//! SLOs once per simulated second. [`EvalClock`] yields those
//! boundaries, each once and in order, and an [`Objective`] pairs the
//! windowed latency histogram a dashboard reads with the optional
//! [`SloTracker`] judged on it. A burn-rate page therefore carries the
//! same exemplar in every monitor: the slowest sample of its fast
//! window.

use crate::histogram::WindowedHistogram;
use crate::slo::{AlertEvent, SloSpec, SloTracker, EVAL_WINDOW_NS, FAST_WINDOW_NS};
use crate::timeseries::TimeSeries;

/// Windows every monitor ring retains (~2 min of 1 s windows).
pub const RING_WINDOWS: usize = 128;

/// A monitor's counter ring: 1 s windows, [`RING_WINDOWS`] of them.
pub fn series() -> TimeSeries {
    TimeSeries::new(EVAL_WINDOW_NS, RING_WINDOWS)
}

/// The once-per-simulated-second SLO evaluation clock.
#[derive(Debug, Clone)]
pub struct EvalClock {
    next_eval_ns: f64,
}

impl Default for EvalClock {
    fn default() -> Self {
        EvalClock {
            next_eval_ns: EVAL_WINDOW_NS,
        }
    }
}

impl EvalClock {
    /// Takes the next boundary at or before `t_ns`, if one is due.
    /// Looping on it before handling an event at `t_ns` yields every
    /// boundary the event crosses, each once, oldest first.
    pub fn tick(&mut self, t_ns: f64) -> Option<f64> {
        (self.next_eval_ns <= t_ns).then(|| {
            let at = self.next_eval_ns;
            self.next_eval_ns += EVAL_WINDOW_NS;
            at
        })
    }

    /// The first boundary at or after `t_ns`.
    pub fn ceil(t_ns: f64) -> f64 {
        (t_ns / EVAL_WINDOW_NS).ceil() * EVAL_WINDOW_NS
    }

    /// Where a run that ended at `end_ns` stops evaluating: the first
    /// boundary at or after `end_ns`, and at least the next boundary
    /// not yet taken, so the trailing window is always judged.
    pub fn closing(&self, end_ns: f64) -> f64 {
        Self::ceil(end_ns).max(self.next_eval_ns)
    }
}

/// A windowed latency histogram plus the optional SLO judged on it.
#[derive(Debug, Clone)]
pub struct Objective {
    /// 1 s windows of samples; each window's exemplar is its slowest.
    pub hist: WindowedHistogram,
    /// Burn-rate tracker, when an SLO is set (`None` = metrics only).
    pub slo: Option<SloTracker>,
}

impl Objective {
    /// An objective graded by `spec`, or ungraded without one.
    pub fn new(spec: Option<SloSpec>) -> Self {
        Objective {
            hist: WindowedHistogram::new(EVAL_WINDOW_NS, RING_WINDOWS),
            slo: spec.map(SloTracker::new),
        }
    }

    /// Records a sample of `value_ms` from span `span_id`, completed at
    /// `t_ns`.
    pub fn observe(&mut self, t_ns: f64, value_ms: f64, span_id: u64) {
        self.hist.record(t_ns, value_ms, Some(span_id));
        if let Some(slo) = self.slo.as_mut() {
            slo.observe(t_ns, value_ms);
        }
    }

    /// Judges the SLO at the boundary `at_ns`. Returns the alert on a
    /// transition; a page's exemplar is the slowest sample of the fast
    /// window. Always `None` without an SLO.
    pub fn evaluate(&mut self, at_ns: f64) -> Option<AlertEvent> {
        let slo = self.slo.as_mut()?;
        let exemplar = self
            .hist
            .exemplar_over(at_ns, FAST_WINDOW_NS)
            .map(|e| e.span_id);
        slo.evaluate(at_ns, exemplar)
    }

    /// The objective's dashboard columns over the trailing `span_ns`
    /// at `now_ns`. Without an SLO the burn rates read 0 and `firing`
    /// reads false.
    pub fn row(&self, now_ns: f64, span_ns: f64) -> ObjectiveRow {
        let hist = self.hist.merged_over(now_ns, span_ns);
        let slo = self.slo.as_ref();
        ObjectiveRow {
            p50_ms: hist.quantile(0.50),
            p99_ms: hist.quantile(0.99),
            burn_fast: slo.map_or(0.0, |s| s.burn_fast(now_ns)),
            burn_slow: slo.map_or(0.0, |s| s.burn_slow(now_ns)),
            firing: slo.is_some_and(SloTracker::firing),
            exemplar: self.hist.exemplar_over(now_ns, span_ns).map(|e| e.span_id),
        }
    }
}

/// The objective columns of one dashboard row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveRow {
    /// Windowed p50, ms.
    pub p50_ms: f64,
    /// Windowed p99, ms.
    pub p99_ms: f64,
    /// Fast-window burn rate (0 without an SLO).
    pub burn_fast: f64,
    /// Slow-window burn rate (0 without an SLO).
    pub burn_slow: f64,
    /// Whether the burn-rate alert is firing.
    pub firing: bool,
    /// Span id of the slowest sample in the span, when any.
    pub exemplar: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::AlertKind;

    #[test]
    fn clock_yields_each_boundary_once_in_order() {
        let mut clock = EvalClock::default();
        assert_eq!(clock.tick(0.5e9), None);
        let mut seen = Vec::new();
        while let Some(at) = clock.tick(3e9) {
            seen.push(at);
        }
        assert_eq!(seen, [1e9, 2e9, 3e9]);
        assert_eq!(clock.tick(3.5e9), None, "3 s was already taken");
        assert_eq!(EvalClock::ceil(3.2e9), 4e9);
        assert_eq!(clock.closing(3.2e9), 4e9);
        assert_eq!(clock.closing(2e9), 4e9, "at least one more boundary");
    }

    #[test]
    fn ungraded_objective_never_alerts() {
        let mut o = Objective::new(None);
        o.observe(0.5e9, 40.0, 7);
        assert_eq!(o.evaluate(1e9), None);
        let row = o.row(1e9, 1e9);
        assert_eq!(
            (row.burn_fast, row.burn_slow, row.firing),
            (0.0, 0.0, false)
        );
        assert_eq!(row.exemplar, Some(7));
    }

    #[test]
    fn page_carries_the_fast_windows_slowest_sample() {
        let mut o = Objective::new(Some(SloSpec::new("p99<5ms", 0.99, 5.0)));
        let mut alerts = Vec::new();
        for s in 0..10u64 {
            for j in 0..10u64 {
                // Two late requests a second: burn 20 against 10.
                let lat = match j {
                    3 => 90.0 + s as f64,
                    7 => 50.0,
                    _ => 1.0,
                };
                o.observe(s as f64 * 1e9 + j as f64 * 1e8, lat, s * 10 + j);
            }
            alerts.extend(o.evaluate((s + 1) as f64 * 1e9));
        }
        assert_eq!(alerts.len(), 1, "a steady breach pages once");
        assert_eq!(alerts[0].kind, AlertKind::BurnRate);
        // Paged at 2 s: the slowest sample of the fast window is the
        // late request of second 1.
        assert_eq!(alerts[0].t_ns, 2e9);
        assert_eq!(alerts[0].exemplar, Some(13));
        assert!(o.row(10e9, 5e9).firing);
    }
}
