//! Fleet topology: which chips exist, on which cards, with which
//! [`ChipConfig`].
//!
//! The topology is deliberately just a flat, indexable list of chips —
//! chip index is the identity every other fleet layer (placement,
//! routing, deploys, reports) speaks in. Cards are bookkeeping for
//! reports and future card-level failure domains; they do not affect
//! scheduling. Because each chip carries its own [`ChipConfig`],
//! heterogeneous fleets (a rack mixing i10 and i20 boards) fall out
//! for free: the config *is* the single source of truth, and the
//! fingerprint-keyed placement in [`crate::place`] treats chips with
//! identical configs as sharing compiled artifacts.

use crate::FleetError;
use dtu_sim::ChipConfig;

/// One chip of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChip {
    /// Card the chip sits on.
    pub card: usize,
    /// Slot within the card.
    pub slot: usize,
    /// The chip's hardware configuration.
    pub config: ChipConfig,
}

/// An indexed set of chips across cards.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTopology {
    chips: Vec<FleetChip>,
    cards: usize,
}

impl FleetTopology {
    /// A fleet of `cards` × `chips_per_card` identical chips.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when either dimension is zero.
    pub fn homogeneous(
        cards: usize,
        chips_per_card: usize,
        config: &ChipConfig,
    ) -> Result<Self, FleetError> {
        if cards == 0 || chips_per_card == 0 {
            return Err(FleetError::Config(
                "fleet needs at least one card with at least one chip".into(),
            ));
        }
        let chips = (0..cards * chips_per_card)
            .map(|i| FleetChip {
                card: i / chips_per_card,
                slot: i % chips_per_card,
                config: config.clone(),
            })
            .collect();
        Ok(FleetTopology { chips, cards })
    }

    /// A fleet assembled from explicit chips (heterogeneous allowed).
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] when `chips` is empty.
    pub fn from_chips(chips: Vec<FleetChip>) -> Result<Self, FleetError> {
        if chips.is_empty() {
            return Err(FleetError::Config("fleet needs at least one chip".into()));
        }
        let cards = chips.iter().map(|c| c.card + 1).max().unwrap_or(1);
        Ok(FleetTopology { chips, cards })
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the fleet has no chips (never true for a constructed
    /// topology; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Number of cards.
    pub fn cards(&self) -> usize {
        self.cards
    }

    /// The chip at `index`.
    pub fn chip(&self, index: usize) -> &FleetChip {
        &self.chips[index]
    }

    /// All chips, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &FleetChip> + '_ {
        self.chips.iter()
    }

    /// How many tenants of `initial_groups` groups each the chip at
    /// `index` can host: tenants claim their groups within a single
    /// cluster, so capacity is per-cluster slots summed over clusters.
    pub fn chip_tenant_capacity(&self, index: usize, initial_groups: usize) -> usize {
        let cfg = &self.chips[index].config;
        // A divisor guard: this is a query, and validation rejects a
        // tenant of zero groups before placement ever asks.
        let per_cluster = cfg.groups_per_cluster / initial_groups.max(1);
        cfg.clusters * per_cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_lays_out_cards_and_slots() {
        let t = FleetTopology::homogeneous(2, 3, &ChipConfig::dtu20()).unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.cards(), 2);
        assert_eq!((t.chip(0).card, t.chip(0).slot), (0, 0));
        assert_eq!((t.chip(4).card, t.chip(4).slot), (1, 1));
        assert!(FleetTopology::homogeneous(0, 3, &ChipConfig::dtu20()).is_err());
        assert!(FleetTopology::homogeneous(2, 0, &ChipConfig::dtu20()).is_err());
    }

    #[test]
    fn tenant_capacity_counts_per_cluster_slots() {
        let t = FleetTopology::homogeneous(1, 1, &ChipConfig::dtu20()).unwrap();
        // i20: 2 clusters x 3 groups. Two-group tenants: one per cluster.
        assert_eq!(t.chip_tenant_capacity(0, 2), 2);
        assert_eq!(t.chip_tenant_capacity(0, 1), 6);
        assert_eq!(t.chip_tenant_capacity(0, 3), 2);
        // i10: 4 clusters x 1 group.
        let t10 = FleetTopology::homogeneous(1, 1, &ChipConfig::dtu10()).unwrap();
        assert_eq!(t10.chip_tenant_capacity(0, 1), 4);
        assert_eq!(t10.chip_tenant_capacity(0, 2), 0);
    }

    #[test]
    fn explicit_chips_may_mix_configs() {
        let chips = vec![
            FleetChip {
                card: 0,
                slot: 0,
                config: ChipConfig::dtu20(),
            },
            FleetChip {
                card: 1,
                slot: 0,
                config: ChipConfig::dtu10(),
            },
        ];
        let t = FleetTopology::from_chips(chips).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cards(), 2);
        assert_ne!(t.chip(0).config, t.chip(1).config);
        assert!(FleetTopology::from_chips(Vec::new()).is_err());
    }
}
