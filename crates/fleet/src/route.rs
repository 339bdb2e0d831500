//! Cross-chip request routing: power-of-two-choices with deterministic
//! tie-breaking.
//!
//! Each routing epoch, every tenant's fleet-wide offered load is split
//! into small *cells* and each cell is assigned to one live replica by
//! the classic power-of-two-choices rule: draw two candidate replicas
//! from a seeded [`FaultRng`], score each by its projected epoch load
//! weighted by the router's EWMA of observed queueing delay, and send
//! the cell to the better one (lower chip index on an exact tie). The
//! projection is updated as cells are assigned, so one hot tenant
//! cannot pile all its cells onto the same replica.
//!
//! Determinism: the RNG seed is a content hash of (fleet seed, epoch,
//! tenant), cells are assigned in (tenant, cell) order, and ties break
//! by index — the routing table is a pure function of the inputs, so
//! fleet reports are byte-identical whatever `--jobs` executed the
//! resulting per-chip simulations.

use dtu_compiler::Fnv1a;
use dtu_faults::FaultRng;

/// Load-feedback state the router carries across epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterState {
    /// Per-chip EWMA of the observed mean queueing delay, ms.
    pub ewma_delay_ms: Vec<f64>,
    /// EWMA smoothing factor in `(0, 1]`.
    pub alpha: f64,
}

impl RouterState {
    /// Fresh state for `chips` chips (no delay observed yet).
    pub fn new(chips: usize) -> Self {
        RouterState {
            ewma_delay_ms: vec![0.0; chips],
            alpha: 0.4,
        }
    }

    /// Folds one epoch's observed mean queueing delay on `chip` into
    /// the EWMA.
    pub fn observe(&mut self, chip: usize, delay_ms: f64) {
        let prev = self.ewma_delay_ms[chip];
        self.ewma_delay_ms[chip] = prev + self.alpha * (delay_ms - prev);
    }
}

/// One slice of a tenant's epoch traffic bound for one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteCell {
    /// Tenant index.
    pub tenant: usize,
    /// Destination chip.
    pub chip: usize,
    /// Offered load of the cell, queries per simulated second.
    pub qps: f64,
}

/// The routing table for one epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EpochRoutes {
    /// Per-(tenant, chip) offered load, merged over cells and sorted
    /// by (tenant, chip).
    pub assignments: Vec<RouteCell>,
    /// Cells the router assigned (before merging).
    pub cells: u64,
}

impl EpochRoutes {
    /// The tenants and loads routed to `chip`, in tenant order.
    pub fn on_chip(&self, chip: usize) -> Vec<(usize, f64)> {
        self.assignments
            .iter()
            .filter(|c| c.chip == chip)
            .map(|c| (c.tenant, c.qps))
            .collect()
    }
}

/// The trace-id base for one (epoch, chip) serving simulation.
///
/// Per-chip request ids are small integers starting at zero; adding
/// this base turns them into fleet-unique trace ids that encode their
/// origin: bits 40.. hold `epoch + 1` (so a zero base — the default for
/// non-fleet runs — is never confused with epoch 0), bits 24..40 hold
/// the chip, and bits 0..24 hold the per-chip request counter. The
/// encoding lets every span of a routed request — router decision,
/// queue, batch, kernel — stitch into one cross-chip trace, and lets
/// [`trace_chip`] walk an exemplar back to the chip that served it.
pub fn trace_base(epoch: usize, chip: usize) -> u64 {
    ((epoch as u64 + 1) << 40) | ((chip as u64) << 24)
}

/// Decodes the owning chip from a fleet trace id; `None` for ids from
/// un-based (single-chip) runs.
pub fn trace_chip(id: u64) -> Option<usize> {
    if id >> 40 == 0 {
        return None;
    }
    Some(((id >> 24) & 0xFFFF) as usize)
}

/// Decodes the routing epoch from a fleet trace id; `None` for ids
/// from un-based (single-chip) runs.
pub fn trace_epoch(id: u64) -> Option<usize> {
    match id >> 40 {
        0 => None,
        e => Some((e - 1) as usize),
    }
}

/// The deterministic RNG stream for one (seed, epoch, tenant) routing
/// decision.
fn route_rng(seed: u64, epoch: usize, tenant: usize) -> FaultRng {
    let mut key = Fnv1a::new();
    key.write_str("fleet-route/");
    key.write_u64(seed);
    key.write_u64(epoch as u64);
    key.write_u64(tenant as u64);
    FaultRng::new(key.finish())
}

/// Routes every tenant's epoch load over its live replicas.
///
/// `tenant_qps[t]` is tenant `t`'s fleet-wide offered rate for the
/// epoch and `live_replicas[t]` its currently routable chips (dead and
/// draining chips already excluded); a tenant with no live replicas
/// routes nothing. `cells_per_replica`, at least 1, controls the
/// granularity of balancing: more cells approach an ideal split at the
/// cost of more per-chip tenant queues.
pub fn route_epoch(
    tenant_qps: &[f64],
    live_replicas: &[Vec<usize>],
    state: &RouterState,
    seed: u64,
    epoch: usize,
    cells_per_replica: usize,
) -> EpochRoutes {
    let mut projected = vec![0.0f64; state.ewma_delay_ms.len()];
    let mut per_pair: Vec<Vec<f64>> = live_replicas
        .iter()
        .map(|_| vec![0.0; state.ewma_delay_ms.len()])
        .collect();
    let mut cells = 0u64;
    for (t, replicas) in live_replicas.iter().enumerate() {
        let qps = tenant_qps[t];
        if replicas.is_empty() || qps <= 0.0 {
            continue;
        }
        let n_cells = replicas.len() * cells_per_replica;
        let cell_qps = qps / n_cells as f64;
        let mut rng = route_rng(seed, epoch, t);
        for _ in 0..n_cells {
            let chosen = if replicas.len() == 1 {
                replicas[0]
            } else {
                let a = replicas[rng.next_index(replicas.len())];
                let b = replicas[rng.next_index(replicas.len())];
                let score = |c: usize| projected[c] * (1.0 + state.ewma_delay_ms[c]);
                let (sa, sb) = (score(a), score(b));
                if sa < sb {
                    a
                } else if sb < sa {
                    b
                } else {
                    a.min(b)
                }
            };
            projected[chosen] += cell_qps;
            per_pair[t][chosen] += cell_qps;
            cells += 1;
        }
    }
    let mut assignments = Vec::new();
    for (t, loads) in per_pair.iter().enumerate() {
        for (chip, &qps) in loads.iter().enumerate() {
            if qps > 0.0 {
                assignments.push(RouteCell {
                    tenant: t,
                    chip,
                    qps,
                });
            }
        }
    }
    EpochRoutes { assignments, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_round_trip_their_origin() {
        let base = trace_base(3, 12);
        let id = base + 4071;
        assert_eq!(trace_chip(id), Some(12));
        assert_eq!(trace_epoch(id), Some(3));
        // Epoch 0 is distinguishable from the un-based default.
        let first = trace_base(0, 0) + 9;
        assert_eq!(trace_epoch(first), Some(0));
        assert_eq!(trace_chip(first), Some(0));
        // Plain single-chip runs (base 0) decode to nothing.
        assert_eq!(trace_chip(9), None);
        assert_eq!(trace_epoch(9), None);
    }

    #[test]
    fn routing_is_deterministic_and_conserves_load() {
        let state = RouterState::new(4);
        let replicas = vec![vec![0, 1, 2, 3], vec![1, 3]];
        let r1 = route_epoch(&[1000.0, 400.0], &replicas, &state, 7, 3, 2);
        let r2 = route_epoch(&[1000.0, 400.0], &replicas, &state, 7, 3, 2);
        assert_eq!(r1, r2);
        let total: f64 = r1.assignments.iter().map(|c| c.qps).sum();
        assert!((total - 1400.0).abs() < 1e-9);
        // Tenant 1 only ever lands on its replicas.
        assert!(r1
            .assignments
            .iter()
            .filter(|c| c.tenant == 1)
            .all(|c| c.chip == 1 || c.chip == 3));
    }

    #[test]
    fn power_of_two_choices_balances_uniform_traffic() {
        let state = RouterState::new(8);
        let replicas = vec![(0..8).collect::<Vec<_>>()];
        let mut per_chip = [0.0f64; 8];
        for epoch in 0..10 {
            let r = route_epoch(&[8000.0], &replicas, &state, 11, epoch, 4);
            for c in &r.assignments {
                per_chip[c.chip] += c.qps;
            }
        }
        let max = per_chip.iter().cloned().fold(0.0f64, f64::max);
        let min = per_chip.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "every chip serves some load");
        assert!(
            max / min <= 2.0,
            "p2c keeps the load ratio bounded: max {max} / min {min}"
        );
    }

    #[test]
    fn delay_feedback_steers_load_away() {
        let mut state = RouterState::new(2);
        // Chip 0 reports heavy queueing; chip 1 is idle.
        for _ in 0..5 {
            state.observe(0, 40.0);
            state.observe(1, 0.0);
        }
        let replicas = vec![vec![0, 1]];
        let r = route_epoch(&[1000.0], &replicas, &state, 3, 0, 8);
        let on = |chip| {
            r.assignments
                .iter()
                .filter(|c| c.chip == chip)
                .map(|c| c.qps)
                .sum::<f64>()
        };
        assert!(
            on(1) > on(0),
            "the slow chip receives less: {} vs {}",
            on(0),
            on(1)
        );
    }

    #[test]
    fn dead_tenants_and_zero_load_route_nothing() {
        let state = RouterState::new(2);
        let r = route_epoch(&[100.0, 100.0], &[vec![], vec![0]], &state, 1, 0, 2);
        assert!(r.assignments.iter().all(|c| c.tenant == 1));
        let r0 = route_epoch(&[0.0], &[vec![0, 1]], &state, 1, 0, 2);
        assert!(r0.assignments.is_empty());
        assert_eq!(r0.cells, 0);
    }
}
