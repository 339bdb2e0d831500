//! Seeded arrival processes: Poisson and bursty (Markov-modulated).
//!
//! Every tenant owns one [`ArrivalGen`], seeded from the run seed and
//! the tenant index, so a serving run is a pure function of its
//! configuration — the determinism the replay/trace tests rely on.

use crate::ServeError;

/// Deterministic xorshift64 PRNG.
///
/// The seed is scrambled through splitmix64 before use: raw xorshift
/// state mixes slowly from small seeds, and a poorly-mixed first draw
/// becomes an absurd first inter-arrival time (`-ln(tiny)` is huge) —
/// enough to push a light-load tenant's whole arrival stream past the
/// horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRng(u64);

impl ServeRng {
    /// Seeds the generator (the state is scrambled and forced nonzero).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ServeRng((z ^ (z >> 31)) | 1)
    }

    /// Uniform draw in `(0, 1]`.
    pub fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential draw with rate `lambda` per ms.
    pub fn next_exp_ms(&mut self, lambda_per_ms: f64) -> f64 {
        -self.next_f64().ln() / lambda_per_ms
    }
}

/// The stochastic shape of a tenant's offered load.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (queries/second).
    Poisson {
        /// Mean arrival rate, queries/second.
        qps: f64,
    },
    /// Two-state Markov-modulated Poisson process: the tenant alternates
    /// between a baseline and a burst phase, with exponentially
    /// distributed dwell times. This is the "heavy traffic" shape cloud
    /// front-ends actually see — long quiet stretches punctured by
    /// flash crowds — and what the autoscaler is sized against.
    Bursty {
        /// Baseline arrival rate, queries/second.
        base_qps: f64,
        /// Burst-phase arrival rate, queries/second.
        burst_qps: f64,
        /// Mean dwell time in each phase, ms.
        mean_dwell_ms: f64,
    },
}

impl ArrivalProcess {
    /// Checks that the process, run to `horizon_ms`, describes a finite
    /// stream of arrivals that moves forward in time. A negative rate
    /// draws negative gaps, so arrival time runs backwards and never
    /// reaches the horizon, and a NaN rate or horizon silently serves
    /// nothing. [`TenantSpec::validate`](crate::TenantSpec::validate)
    /// and [`GenerativeScenario::validate`](crate::GenerativeScenario::validate)
    /// call this first, so each serving engine checks it before any
    /// work.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the offending value when the
    /// horizon is not positive and finite, a Poisson or burst rate is
    /// not positive and finite, a base rate is negative or not finite,
    /// or a mean dwell is not positive and finite.
    pub fn validate(&self, horizon_ms: f64) -> Result<(), ServeError> {
        let positive = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(ServeError::Config(format!(
                    "arrival {name} must be positive and finite, got {v}"
                )))
            }
        };
        positive("horizon (ms)", horizon_ms)?;
        match *self {
            ArrivalProcess::Poisson { qps } => positive("qps", qps),
            ArrivalProcess::Bursty {
                base_qps,
                burst_qps,
                mean_dwell_ms,
            } => {
                if !(base_qps.is_finite() && base_qps >= 0.0) {
                    return Err(ServeError::Config(format!(
                        "arrival base_qps must be non-negative and finite, got {base_qps}"
                    )));
                }
                positive("burst_qps", burst_qps)?;
                positive("mean_dwell_ms", mean_dwell_ms)
            }
        }
    }

    /// Long-run mean rate in queries/second (phases weight equally for
    /// the bursty process because dwell times are symmetric).
    pub fn mean_qps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { qps } => *qps,
            ArrivalProcess::Bursty {
                base_qps,
                burst_qps,
                ..
            } => 0.5 * (base_qps + burst_qps),
        }
    }
}

/// Stateful generator producing one tenant's arrival times.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: ServeRng,
    /// Bursty state: currently in the burst phase?
    bursting: bool,
    /// Bursty state: absolute time the current phase ends, ms.
    phase_ends_ms: f64,
}

impl ArrivalGen {
    /// Creates a generator for one tenant.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen {
            process,
            rng: ServeRng::new(seed),
            bursting: false,
            phase_ends_ms: 0.0,
        }
    }

    /// The next arrival strictly after time `t` (ms).
    ///
    /// For the bursty process this uses the memoryless-restart
    /// construction: draw an inter-arrival at the current phase's rate;
    /// if it crosses the phase boundary, advance to the boundary,
    /// switch phase, and redraw — valid because the exponential
    /// distribution is memoryless.
    pub fn next_after(&mut self, mut t: f64) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { qps } => t + self.rng.next_exp_ms(qps / 1e3),
            ArrivalProcess::Bursty {
                base_qps,
                burst_qps,
                mean_dwell_ms,
            } => loop {
                if t >= self.phase_ends_ms {
                    // Entering a fresh phase (also initialises the first).
                    if self.phase_ends_ms > 0.0 {
                        self.bursting = !self.bursting;
                    }
                    self.phase_ends_ms = t + self.rng.next_exp_ms(1.0 / mean_dwell_ms);
                }
                let qps = if self.bursting { burst_qps } else { base_qps };
                let candidate = t + self.rng.next_exp_ms(qps / 1e3);
                if candidate <= self.phase_ends_ms {
                    return candidate;
                }
                t = self.phase_ends_ms;
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_unit_interval() {
        let mut a = ServeRng::new(42);
        let mut b = ServeRng::new(42);
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn poisson_rate_is_respected() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { qps: 1000.0 }, 7);
        let mut t = 0.0;
        let mut n = 0u64;
        while t < 10_000.0 {
            t = gen.next_after(t);
            n += 1;
        }
        // 1000 qps = 1/ms over 10 000 ms -> ~10 000 arrivals (±5%).
        let rate = n as f64 / 10_000.0;
        assert!((0.95..1.05).contains(&rate), "rate {rate}");
    }

    #[test]
    fn bursty_mean_rate_matches_phase_average() {
        let p = ArrivalProcess::Bursty {
            base_qps: 200.0,
            burst_qps: 1800.0,
            mean_dwell_ms: 50.0,
        };
        assert_eq!(p.mean_qps(), 1000.0);
        let mut gen = ArrivalGen::new(p, 11);
        let mut t = 0.0;
        let mut n = 0u64;
        while t < 50_000.0 {
            t = gen.next_after(t);
            n += 1;
        }
        let rate_qps = n as f64 / 50.0;
        assert!(
            (800.0..1200.0).contains(&rate_qps),
            "long-run rate {rate_qps} qps"
        );
    }

    #[test]
    fn validate_rejects_streams_that_never_reach_the_horizon() {
        let poisson = |qps| ArrivalProcess::Poisson { qps };
        let bursty = |base_qps, burst_qps, mean_dwell_ms| ArrivalProcess::Bursty {
            base_qps,
            burst_qps,
            mean_dwell_ms,
        };
        assert!(poisson(100.0).validate(1000.0).is_ok());
        assert!(bursty(0.0, 100.0, 50.0).validate(1000.0).is_ok());
        // (process, horizon, the value the error must name)
        let cases = [
            (poisson(-5.0), 1000.0, "qps"),
            (poisson(0.0), 1000.0, "qps"),
            (poisson(f64::NAN), 1000.0, "qps"),
            (poisson(f64::INFINITY), 1000.0, "qps"),
            (bursty(-1.0, 100.0, 50.0), 1000.0, "base_qps"),
            (bursty(f64::NAN, 100.0, 50.0), 1000.0, "base_qps"),
            (bursty(10.0, 0.0, 50.0), 1000.0, "burst_qps"),
            (bursty(10.0, f64::INFINITY, 50.0), 1000.0, "burst_qps"),
            (bursty(10.0, 100.0, 0.0), 1000.0, "mean_dwell_ms"),
            (poisson(100.0), 0.0, "horizon"),
            (poisson(100.0), f64::NAN, "horizon"),
            (poisson(100.0), f64::INFINITY, "horizon"),
        ];
        for (process, horizon, name) in cases {
            match process.validate(horizon) {
                Err(ServeError::Config(msg)) => assert!(msg.contains(name), "{msg}"),
                other => panic!("{process:?} to {horizon} ms: {other:?}"),
            }
        }
    }

    #[test]
    fn bursty_arrivals_strictly_increase() {
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Bursty {
                base_qps: 100.0,
                burst_qps: 5000.0,
                mean_dwell_ms: 10.0,
            },
            3,
        );
        let mut t = 0.0;
        for _ in 0..10_000 {
            let next = gen.next_after(t);
            assert!(next > t);
            t = next;
        }
    }
}
