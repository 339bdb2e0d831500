//! The fleet scheduler: which chips host which (tenant, model)
//! replicas.
//!
//! Placement balances two forces. **Replication for throughput**: a
//! tenant asks for `replicas` copies (0 = one per chip) and the
//! scheduler spreads them over the least-loaded chips. **Locality for
//! compile sharing**: the placement key is the *artifact fingerprint* —
//! `graph_fingerprint` of the tenant's batch-1 graph folded with the
//! chip's [`ChipConfig`] — so on a heterogeneous fleet the scheduler
//! prefers chips whose config already has this artifact placed
//! somewhere, minimising the number of distinct compilations the
//! shared [`dtu_harness::SessionCache`] must perform. On a homogeneous
//! fleet every chip shares one fingerprint and the session compiles
//! exactly once fleet-wide, however many replicas exist (audited by
//! the workspace tests).
//!
//! [`place`] and [`replace_after_loss`] build and fingerprint each
//! tenant's batch-1 graph once per call, then key every candidate chip
//! from that one fingerprint.
//!
//! Everything here is pure bookkeeping over sorted vectors — no hash
//! iteration, no randomness — so placement is a deterministic function
//! of (topology, tenants).

use crate::{FleetError, FleetTopology};
use dtu_compiler::{graph_fingerprint, Fnv1a};
use dtu_harness::SweepModel;
use dtu_sim::ChipConfig;
use std::collections::BTreeSet;

/// One tenant of the fleet: a model, a fleet-wide offered load, and
/// the per-chip serving policies its replicas run with.
pub struct FleetTenant<'m> {
    /// The model every replica serves.
    pub model: SweepModel<'m>,
    /// Fleet-wide offered load, queries per simulated second, split
    /// across replicas by the router.
    pub qps: f64,
    /// Replicas to place (0 = one on every chip).
    pub replicas: usize,
    /// Dynamic-batching cap each replica runs with.
    pub max_batch: usize,
    /// Dynamic-batching timeout, ms.
    pub batch_timeout_ms: f64,
    /// SLA deadline, ms.
    pub deadline_ms: f64,
    /// Admission queue cap per replica.
    pub queue_depth: usize,
    /// Groups each replica starts with (claimed within one cluster).
    pub initial_groups: usize,
    /// Whether replicas may autoscale their group count.
    pub autoscale: bool,
}

impl std::fmt::Debug for FleetTenant<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTenant")
            .field("model", &self.model.name())
            .field("qps", &self.qps)
            .field("replicas", &self.replicas)
            .finish()
    }
}

impl<'m> FleetTenant<'m> {
    /// A tenant with the default serving policies: dynamic batching to
    /// 16, 50 ms deadline, 256-deep queue, two groups, no autoscaling.
    pub fn new(model: SweepModel<'m>, qps: f64) -> Self {
        FleetTenant {
            model,
            qps,
            replicas: 0,
            max_batch: 16,
            batch_timeout_ms: 2.0,
            deadline_ms: 50.0,
            queue_depth: 256,
            initial_groups: 2,
            autoscale: false,
        }
    }
}

/// The fingerprint a (tenant, chip) pair compiles under: the
/// `graph_fingerprint` of the tenant's batch-1 graph folded with the
/// chip's configuration. Two chips with equal configs share every
/// artifact of a tenant, so this is the placement key for compile
/// locality.
pub fn artifact_key(tenant_graph: u64, config: &ChipConfig) -> u64 {
    let mut key = Fnv1a::new();
    key.write_str("fleet-artifact/");
    key.write_u64(tenant_graph);
    key.write_debug(config);
    key.finish()
}

/// `tenant`'s [`artifact_key`] on every chip of the fleet, from one
/// build of its batch-1 graph.
fn tenant_keys(tenant: &FleetTenant<'_>, topology: &FleetTopology) -> Vec<u64> {
    let graph = graph_fingerprint(&tenant.model.build(1));
    (0..topology.len())
        .map(|chip| artifact_key(graph, &topology.chip(chip).config))
        .collect()
}

/// Where every tenant's replicas live.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlacement {
    /// `replicas[t]` = sorted chip indices hosting tenant `t`.
    pub replicas: Vec<Vec<usize>>,
    /// `hosted[c]` = tenants placed on chip `c` (capacity accounting).
    hosted: Vec<usize>,
    /// Artifact fingerprints already placed somewhere in the fleet.
    placed_keys: BTreeSet<u64>,
}

impl FleetPlacement {
    /// Tenants currently hosted on chip `chip`.
    pub fn hosted_on(&self, chip: usize) -> usize {
        self.hosted[chip]
    }

    /// Distinct artifact fingerprints the placement compiles.
    pub fn distinct_artifacts(&self) -> usize {
        self.placed_keys.len()
    }
}

/// Chooses the best chip for one more replica of `tenant`: the
/// candidate minimising `(hosted tenants, artifact novelty, index)`
/// among chips with free capacity that do not already host the tenant.
/// `keys` is the tenant's [`tenant_keys`].
fn best_chip(
    tenant_idx: usize,
    tenant: &FleetTenant<'_>,
    keys: &[u64],
    topology: &FleetTopology,
    placement: &FleetPlacement,
    excluded: &[bool],
) -> Option<usize> {
    let mut best: Option<(usize, usize, usize)> = None;
    for (chip, &excluded) in excluded.iter().enumerate().take(topology.len()) {
        if excluded || placement.replicas[tenant_idx].contains(&chip) {
            continue;
        }
        if placement.hosted[chip] >= topology.chip_tenant_capacity(chip, tenant.initial_groups) {
            continue;
        }
        let novelty = usize::from(!placement.placed_keys.contains(&keys[chip]));
        let score = (placement.hosted[chip], novelty, chip);
        if best.is_none_or(|b| score < b) {
            best = Some(score);
        }
    }
    best.map(|(_, _, chip)| chip)
}

/// Places every tenant's replicas across the fleet.
///
/// Tenants are placed in order; each replica goes to the chip with the
/// fewest hosted tenants, ties broken first by artifact locality
/// (prefer a chip config the tenant is already compiled for) and then
/// by chip index. A tenant asking for more replicas than the fleet has
/// capacity for is clamped to what fits.
///
/// # Errors
///
/// [`FleetError::Config`] when a tenant cannot be placed at all
/// (every chip full or the tenant's `initial_groups` exceeds every
/// cluster).
pub fn place(
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
) -> Result<FleetPlacement, FleetError> {
    if tenants.is_empty() {
        return Err(FleetError::Config("fleet needs at least one tenant".into()));
    }
    let mut placement = FleetPlacement {
        replicas: vec![Vec::new(); tenants.len()],
        hosted: vec![0; topology.len()],
        placed_keys: BTreeSet::new(),
    };
    let excluded = vec![false; topology.len()];
    for (t, tenant) in tenants.iter().enumerate() {
        let desired = if tenant.replicas == 0 {
            topology.len()
        } else {
            tenant.replicas.min(topology.len())
        };
        let keys = tenant_keys(tenant, topology);
        for _ in 0..desired {
            let Some(chip) = best_chip(t, tenant, &keys, topology, &placement, &excluded) else {
                break;
            };
            placement.replicas[t].push(chip);
            placement.hosted[chip] += 1;
            placement.placed_keys.insert(keys[chip]);
        }
        if placement.replicas[t].is_empty() {
            return Err(FleetError::Config(format!(
                "tenant '{}' cannot be placed: no chip has a free {}-group slot",
                tenant.model.name(),
                tenant.initial_groups
            )));
        }
        placement.replicas[t].sort_unstable();
    }
    Ok(placement)
}

/// Re-places the replicas a dead chip hosted onto survivors, mirroring
/// the scheduler's original preference order. Returns the number of
/// replica moves performed; replicas that fit nowhere are simply
/// dropped (the tenant keeps its surviving replicas). Only tenants the
/// dead chip hosted have their graph built.
pub fn replace_after_loss(
    placement: &mut FleetPlacement,
    dead_chip: usize,
    alive: &[bool],
    topology: &FleetTopology,
    tenants: &[FleetTenant<'_>],
) -> usize {
    let mut excluded: Vec<bool> = alive.iter().map(|&a| !a).collect();
    excluded[dead_chip] = true;
    let mut moves = 0;
    for (t, tenant) in tenants.iter().enumerate() {
        let Some(pos) = placement.replicas[t].iter().position(|&c| c == dead_chip) else {
            continue;
        };
        placement.replicas[t].remove(pos);
        placement.hosted[dead_chip] = placement.hosted[dead_chip].saturating_sub(1);
        let keys = tenant_keys(tenant, topology);
        if let Some(chip) = best_chip(t, tenant, &keys, topology, placement, &excluded) {
            placement.replicas[t].push(chip);
            placement.replicas[t].sort_unstable();
            placement.hosted[chip] += 1;
            placement.placed_keys.insert(keys[chip]);
            moves += 1;
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::toy_model_with;
    use dtu_sim::ChipConfig;

    fn toy(name: &str) -> SweepModel<'static> {
        // Channel count scales with the name so differently-named
        // tenants carry distinct artifact fingerprints.
        toy_model_with(name, 8 * name.len().max(1))
    }

    #[test]
    fn replicas_spread_over_least_loaded_chips() {
        let topo = FleetTopology::homogeneous(1, 4, &ChipConfig::dtu20()).unwrap();
        let mut a = FleetTenant::new(toy("aa"), 100.0);
        a.replicas = 2;
        let mut b = FleetTenant::new(toy("bbb"), 100.0);
        b.replicas = 2;
        let p = place(&topo, &[a, b]).unwrap();
        assert_eq!(p.replicas[0], vec![0, 1]);
        // Tenant b lands on the chips tenant a left empty.
        assert_eq!(p.replicas[1], vec![2, 3]);
        assert!((0..4).all(|c| p.hosted_on(c) == 1));
    }

    #[test]
    fn zero_replicas_means_everywhere() {
        let topo = FleetTopology::homogeneous(2, 2, &ChipConfig::dtu20()).unwrap();
        let p = place(&topo, &[FleetTenant::new(toy("aa"), 100.0)]).unwrap();
        assert_eq!(p.replicas[0], vec![0, 1, 2, 3]);
        // Homogeneous fleet: one artifact fingerprint, one compile.
        assert_eq!(p.distinct_artifacts(), 1);
    }

    #[test]
    fn heterogeneous_fleet_prefers_configs_already_compiled() {
        use crate::FleetChip;
        let chips = vec![
            FleetChip {
                card: 0,
                slot: 0,
                config: ChipConfig::dtu20(),
            },
            FleetChip {
                card: 0,
                slot: 1,
                config: ChipConfig::dtu10(),
            },
            FleetChip {
                card: 1,
                slot: 0,
                config: ChipConfig::dtu20(),
            },
        ];
        let topo = FleetTopology::from_chips(chips).unwrap();
        let mut t = FleetTenant::new(toy("aa"), 100.0);
        t.initial_groups = 1;
        t.replicas = 2;
        let p = place(&topo, &[t]).unwrap();
        // First replica on chip 0; the second prefers chip 2 (same
        // config, artifact already placed) over chip 1 (new config).
        assert_eq!(p.replicas[0], vec![0, 2]);
        assert_eq!(p.distinct_artifacts(), 1);
    }

    #[test]
    fn over_capacity_placement_fails_loudly() {
        let topo = FleetTopology::homogeneous(1, 1, &ChipConfig::dtu20()).unwrap();
        // i20 hosts two 2-group tenants; the third cannot be placed.
        let tenants = vec![
            FleetTenant::new(toy("aa"), 10.0),
            FleetTenant::new(toy("bb"), 10.0),
            FleetTenant::new(toy("cc"), 10.0),
        ];
        let err = place(&topo, &tenants).unwrap_err();
        assert!(err.to_string().contains("cc"));
        assert!(place(&topo, &[]).is_err());
    }

    #[test]
    fn loss_replacement_moves_replicas_to_survivors() {
        let topo = FleetTopology::homogeneous(1, 3, &ChipConfig::dtu20()).unwrap();
        let mut t = FleetTenant::new(toy("aa"), 100.0);
        t.replicas = 2;
        let tenants = vec![t];
        let mut p = place(&topo, &tenants).unwrap();
        assert_eq!(p.replicas[0], vec![0, 1]);
        let alive = vec![false, true, true];
        let moves = replace_after_loss(&mut p, 0, &alive, &topo, &tenants);
        assert_eq!(moves, 1);
        assert_eq!(p.replicas[0], vec![1, 2]);
        // A chip not hosting the tenant loses nothing.
        let alive2 = vec![false, true, true];
        assert_eq!(replace_after_loss(&mut p, 0, &alive2, &topo, &tenants), 0);
    }
}
