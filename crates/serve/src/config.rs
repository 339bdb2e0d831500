//! Serving-run configuration: tenants, batching, SLA, scaling, and
//! fault-recovery policies.

use crate::{ArrivalProcess, ServeError};
use dtu_faults::{FaultPlan, FaultRng};

/// Dynamic-batching policy for one tenant's queue.
///
/// A batch dispatches when the server is idle and either (a) the queue
/// holds `max_batch` requests, or (b) the oldest queued request has
/// waited `timeout_ms`. A cap of 1 (the default) disables batching:
/// each request dispatches the moment it is queued, whatever the
/// timeout, which reduces the engine to the classic per-tenant M/D/1
/// the closed-form model describes.
///
/// The *compiled* batch is padded up to the next power of two, the way
/// engine caches bucket their shapes: a dispatch of 5 runs the batch-8
/// session. That bounds the session cache at `log2(max_batch)+1`
/// entries per placement at the cost of some wasted slots.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch a single dispatch may carry; at least 1.
    pub max_batch: usize,
    /// Longest a request may wait for co-batching, ms: finite and not
    /// negative. `0` dispatches whatever is queued the moment the
    /// server frees up.
    pub timeout_ms: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 1,
            timeout_ms: 0.0,
        }
    }
}

impl BatchPolicy {
    /// Batching disabled: every request is its own dispatch.
    pub fn none() -> Self {
        BatchPolicy::default()
    }

    /// Dynamic batching up to `max_batch` requests.
    pub fn dynamic(max_batch: usize, timeout_ms: f64) -> Self {
        BatchPolicy {
            max_batch,
            timeout_ms,
        }
    }

    /// The batch size the session is compiled at for an actual batch of
    /// `n` requests.
    pub fn compiled_batch(&self, n: usize) -> usize {
        n.next_power_of_two()
    }
}

/// SLA-aware admission policy for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaPolicy {
    /// End-to-end deadline a request must meet, ms. A completion past
    /// its deadline is counted as a violation (the request still
    /// completes — the SLA is an accounting boundary, not a kill
    /// switch).
    pub deadline_ms: f64,
    /// Queue-depth limit: an arrival finding this many requests queued
    /// is shed (rejected) instead of admitted.
    pub max_queue_depth: usize,
}

impl Default for SlaPolicy {
    fn default() -> Self {
        SlaPolicy {
            deadline_ms: f64::INFINITY,
            max_queue_depth: usize::MAX,
        }
    }
}

impl SlaPolicy {
    /// A hard SLA: deadline plus a queue cap.
    pub fn new(deadline_ms: f64, max_queue_depth: usize) -> Self {
        SlaPolicy {
            deadline_ms,
            max_queue_depth,
        }
    }
}

/// `Ok` when `ok`, else a [`ServeError::Config`] of `why()`: a passing
/// check formats nothing.
pub(crate) fn require(ok: bool, why: impl FnOnce() -> String) -> Result<(), ServeError> {
    ok.then_some(()).ok_or_else(|| ServeError::Config(why()))
}

/// Rejects a deadline that is NaN or not positive; `+inf` means "no
/// deadline" and passes.
pub(crate) fn check_deadline(field: &str, ms: f64) -> Result<(), ServeError> {
    require(ms > 0.0, || {
        format!("{field} must be positive (inf for none), got {ms}")
    })
}

/// Rejects a count of zero.
pub(crate) fn check_count(field: &str, n: usize) -> Result<(), ServeError> {
    require(n >= 1, || format!("{field} must be at least 1, got {n}"))
}

/// Rejects a time that is NaN, negative or infinite.
fn check_finite_time(field: &str, ms: f64) -> Result<(), ServeError> {
    require(ms.is_finite() && ms >= 0.0, || {
        format!("{field} must be finite and not negative, got {ms}")
    })
}

/// Elastic group-scaling policy (the online version of Fig. 7's
/// 1/2/3-group resource assignment).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePolicy {
    /// Master switch; disabled tenants keep their initial groups.
    pub enabled: bool,
    /// Scale *up* when the smoothed queueing delay exceeds this, ms;
    /// not NaN or negative.
    pub high_delay_ms: f64,
    /// Scale *down* when the smoothed queueing delay falls below this,
    /// ms; not NaN or negative.
    pub low_delay_ms: f64,
    /// Minimum time between scale decisions for one tenant, ms; not NaN
    /// or negative.
    pub cooldown_ms: f64,
    /// Hard cap on groups, at least 1; a cap above the cluster's group
    /// count allows the whole cluster.
    pub max_groups: usize,
    /// Smoothing factor for the queue-delay EMA, in `(0, 1]`; higher
    /// reacts faster.
    pub ema_alpha: f64,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy {
            enabled: false,
            high_delay_ms: 0.0,
            low_delay_ms: 0.0,
            cooldown_ms: 0.0,
            max_groups: 1,
            ema_alpha: 0.3,
        }
    }
}

impl ScalePolicy {
    /// Scaling disabled.
    pub fn none() -> Self {
        ScalePolicy::default()
    }

    /// Delay-driven elastic scaling between 1 and `max_groups` groups.
    pub fn elastic(high_delay_ms: f64, low_delay_ms: f64, max_groups: usize) -> Self {
        ScalePolicy {
            enabled: true,
            high_delay_ms,
            low_delay_ms,
            cooldown_ms: 2.0 * high_delay_ms,
            max_groups,
            ema_alpha: 0.3,
        }
    }
}

/// One tenant of a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Index into the model slice handed to the engine.
    pub model: usize,
    /// Offered-load process.
    pub arrival: ArrivalProcess,
    /// Dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Admission/SLA policy.
    pub sla: SlaPolicy,
    /// Elastic-scaling policy.
    pub scale: ScalePolicy,
    /// Cluster to place the tenant on (`None` = round-robin).
    pub cluster: Option<usize>,
    /// Groups the tenant starts with; at least 1.
    pub initial_groups: usize,
}

impl TenantSpec {
    /// A single-group tenant with Poisson load and everything else at
    /// defaults (no batching, no shedding, no scaling).
    pub fn poisson(name: impl Into<String>, model: usize, qps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            model,
            arrival: ArrivalProcess::Poisson { qps },
            batch: BatchPolicy::none(),
            sla: SlaPolicy::default(),
            scale: ScalePolicy::none(),
            cluster: None,
            initial_groups: 1,
        }
    }

    /// Checks every rule on the tenant's own fields, in this order: the
    /// arrival process over `horizon_ms` ([`ArrivalProcess::validate`]);
    /// an SLA deadline that is positive (`+inf` for none); a batch
    /// timeout that is finite and not negative; a batch cap and initial
    /// groups of at least 1; and a scale policy with at least one group,
    /// an `ema_alpha` in `(0, 1]`, and delays and a cooldown that are
    /// neither NaN nor negative (`+inf` passes, as `serve --deadline
    /// inf` builds it). The scale rules hold with scaling disabled too.
    /// Rules that need the chip or the model slice are the engine's.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the field and the value; the
    /// caller names the tenant, as [`ServeConfig::validate`] does.
    pub fn validate(&self, horizon_ms: f64) -> Result<(), ServeError> {
        self.arrival.validate(horizon_ms)?;
        check_deadline("SLA deadline_ms", self.sla.deadline_ms)?;
        check_finite_time("batch timeout_ms", self.batch.timeout_ms)?;
        check_count("batch max_batch", self.batch.max_batch)?;
        check_count("initial_groups", self.initial_groups)?;
        let scale = &self.scale;
        check_count("scale max_groups", scale.max_groups)?;
        let alpha = scale.ema_alpha;
        require(alpha > 0.0 && alpha <= 1.0, || {
            format!("scale ema_alpha must be in (0, 1], got {alpha}")
        })?;
        for (field, ms) in [
            ("high_delay_ms", scale.high_delay_ms),
            ("low_delay_ms", scale.low_delay_ms),
            ("cooldown_ms", scale.cooldown_ms),
        ] {
            require(ms >= 0.0, || {
                format!("scale {field} must not be NaN or negative, got {ms}")
            })?;
        }
        Ok(())
    }
}

/// Bounded retry with exponential backoff for batches that hit a
/// transient injected fault (uncorrectable ECC, DMA timeout).
///
/// A failed batch is re-attempted after a backoff that doubles per
/// attempt, capped at [`RetryPolicy::max_backoff_ms`], with
/// multiplicative jitter drawn from the run's [`FaultRng`] — the draw
/// happens *only* when a retry is actually scheduled, so fault-free
/// runs stay byte-identical whatever the policy says. Requests whose
/// SLA deadline expires while the batch waits out a backoff are
/// dropped at re-admission and counted as fault-dropped (distinct
/// from admission sheds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per batch; a batch failing `max_attempts + 1`
    /// times is dropped and its requests counted as fault-dropped.
    pub max_attempts: u32,
    /// Backoff before the first retry, ms: finite and not negative.
    pub backoff_ms: f64,
    /// Cap on the exponentially grown backoff, ms (before jitter):
    /// finite and not negative.
    pub max_backoff_ms: f64,
    /// Jitter fraction in `[0, 1]`: the backoff is scaled by a factor
    /// drawn uniformly from `[1, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 0.5,
            max_backoff_ms: 8.0,
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// Retries disabled: the first transient fault drops the batch.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
    }

    /// Checks backoffs that are finite and not negative, then a jitter
    /// in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the field and the value.
    pub fn validate(&self) -> Result<(), ServeError> {
        check_finite_time("retry backoff_ms", self.backoff_ms)?;
        check_finite_time("retry max_backoff_ms", self.max_backoff_ms)?;
        let jitter = self.jitter;
        require((0.0..=1.0).contains(&jitter), || {
            format!("retry jitter must be in [0, 1], got {jitter}")
        })
    }

    /// The backoff before retry number `attempt` (1-based), ms:
    /// `min(backoff_ms * 2^(attempt-1), max_backoff_ms)` scaled by a
    /// jitter factor in `[1, 1 + jitter]` drawn from `rng`. For a
    /// policy [`validate`](Self::validate) accepts, it never exceeds
    /// `max_backoff_ms * (1 + jitter)`.
    pub fn backoff_for(&self, attempt: u32, rng: &mut FaultRng) -> f64 {
        let doublings = attempt.saturating_sub(1).min(52);
        let base =
            (self.backoff_ms * f64::from(1u32 << doublings.min(31))).min(self.max_backoff_ms);
        base * rng.next_range(1.0, 1.0 + self.jitter)
    }
}

/// Whole-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Arrival horizon, ms: requests arriving after this are not
    /// generated; admitted requests always run to completion (the run
    /// drains).
    pub duration_ms: f64,
    /// Run seed; every tenant derives its own stream from it.
    pub seed: u64,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
    /// Record per-request outcomes in [`crate::ServeOutcome::requests`]
    /// (memory-proportional to traffic; used by the property tests).
    pub record_requests: bool,
    /// Fault schedule injected into the run (times on the shared
    /// nanosecond clock). The default empty plan is guaranteed
    /// invisible: the engine never consults it and never draws from
    /// the retry RNG, so the run is byte-identical to a fault-free one.
    pub faults: FaultPlan,
    /// Retry policy for batches hit by a transient injected fault.
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            duration_ms: 100.0,
            seed: 0x5EED,
            tenants: Vec::new(),
            record_requests: false,
            faults: FaultPlan::empty(),
            retry: RetryPolicy::default(),
        }
    }
}

impl ServeConfig {
    /// Checks the run before any work: at least one tenant, then each
    /// tenant over the horizon ([`TenantSpec::validate`]), then the
    /// retry policy ([`RetryPolicy::validate`]). [`crate::run_serving`]
    /// calls this first.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the first bad field, its value, and
    /// its tenant.
    pub fn validate(&self) -> Result<(), ServeError> {
        require(!self.tenants.is_empty(), || {
            "a serving run needs tenants".into()
        })?;
        for tenant in &self.tenants {
            tenant.validate(self.duration_ms).map_err(|e| match e {
                ServeError::Config(why) => {
                    ServeError::Config(format!("tenant '{}' {why}", tenant.name))
                }
                e => e,
            })?;
        }
        self.retry.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_buckets_round_up() {
        let p = BatchPolicy::dynamic(8, 1.0);
        assert_eq!(p.compiled_batch(1), 1);
        assert_eq!(p.compiled_batch(3), 4);
        assert_eq!(p.compiled_batch(5), 8);
        assert_eq!(BatchPolicy::none().compiled_batch(1), 1);
    }

    #[test]
    fn defaults_disable_everything() {
        let t = TenantSpec::poisson("t", 0, 100.0);
        assert_eq!(t.batch.max_batch, 1);
        assert_eq!(t.sla.max_queue_depth, usize::MAX);
        assert!(!t.scale.enabled);
        assert_eq!(t.initial_groups, 1);
        let cfg = ServeConfig::default();
        assert!(cfg.faults.is_empty(), "default plan injects nothing");
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_ms: 1.0,
            max_backoff_ms: 4.0,
            jitter: 0.5,
        };
        let mut rng = FaultRng::new(7);
        for attempt in 1..=8u32 {
            let b = p.backoff_for(attempt, &mut rng);
            let base = (f64::from(1u32 << (attempt - 1).min(31))).min(4.0);
            assert!(b >= base, "attempt {attempt}: {b} < base {base}");
            assert!(b <= base * 1.5 + 1e-12, "attempt {attempt}: {b} over cap");
        }
        // Zero jitter is exact and draws nothing.
        let exact = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(exact.backoff_for(1, &mut FaultRng::new(0)), 0.5);
        assert_eq!(exact.backoff_for(2, &mut FaultRng::new(0)), 1.0);
        assert_eq!(exact.backoff_for(30, &mut FaultRng::new(0)), 8.0);
    }
}
