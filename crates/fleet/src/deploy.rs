//! Rolling deploys: drain a chip for one epoch, swap the model-version
//! label, re-admit.
//!
//! The roll walks the fleet in chip order, taking up to
//! [`RollPlan::chips_per_epoch`] chips out of the routing table per
//! epoch. A draining chip serves no new epoch traffic (its in-flight
//! work from the previous epoch has already drained — epochs are the
//! engine's sync points), then re-enters the next epoch labelled with
//! the new version. Because versions are *labels* over the same model
//! graph, the swap costs no recompilation — the content-addressed
//! session cache recognises the artifact — which models a config/label
//! rollout; a rollout that changes the graph would simply miss the
//! cache and compile on first dispatch.
//!
//! Availability during the roll is accounted by the engine: epochs in
//! which any chip drains are tagged, and per-tenant
//! `completed / offered` over those epochs is reported as
//! `roll_availability`.

/// A rolling-deploy schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct RollPlan {
    /// Simulated time the roll begins, ms; not NaN. A time before the
    /// run starts the roll at the first epoch, and one after the last
    /// epoch's start never starts it.
    pub start_ms: f64,
    /// Chips drained per epoch; at least 1.
    pub chips_per_epoch: usize,
    /// Version label chips start with.
    pub from_version: String,
    /// Version label rolled chips carry.
    pub to_version: String,
}

impl RollPlan {
    /// A roll starting at `start_ms`, draining `chips_per_epoch` chips
    /// per epoch, labelled `v1` → `v2`.
    pub fn new(start_ms: f64, chips_per_epoch: usize) -> Self {
        RollPlan {
            start_ms,
            chips_per_epoch,
            from_version: "v1".to_string(),
            to_version: "v2".to_string(),
        }
    }
}

/// Mutable per-run state of a roll.
#[derive(Debug, Clone, PartialEq)]
pub struct RollState {
    /// Per-chip version label.
    pub version: Vec<String>,
    /// Chips draining (out of the routing table) this epoch.
    pub draining: Vec<bool>,
    /// Chips that have completed the swap.
    pub rolled: Vec<bool>,
}

impl RollState {
    /// Fresh state: every chip on `plan.from_version`, nothing
    /// draining.
    pub fn new(chips: usize, plan: &RollPlan) -> Self {
        RollState {
            version: vec![plan.from_version.clone(); chips],
            draining: vec![false; chips],
            rolled: vec![false; chips],
        }
    }

    /// Advances the roll at the start of an epoch beginning at
    /// `epoch_start_ms`: chips that drained last epoch swap to the new
    /// version and re-admit, then (if the roll has started) the next
    /// un-rolled alive chips begin draining. Dead chips are skipped —
    /// they cannot drain and never swap. Returns whether any chip
    /// drains this epoch.
    pub fn begin_epoch(&mut self, plan: &RollPlan, epoch_start_ms: f64, alive: &[bool]) -> bool {
        for chip in 0..self.version.len() {
            if self.draining[chip] {
                self.draining[chip] = false;
                self.rolled[chip] = true;
                self.version[chip] = plan.to_version.clone();
            }
        }
        if epoch_start_ms + 1e-9 < plan.start_ms {
            return false;
        }
        let mut started = 0;
        for (chip, &up) in alive.iter().enumerate() {
            if started == plan.chips_per_epoch {
                break;
            }
            if up && !self.rolled[chip] {
                self.draining[chip] = true;
                started += 1;
            }
        }
        started > 0
    }

    /// Finalises the roll at the end of the run: a chip still draining
    /// when the horizon closes has fully drained (epochs are the
    /// engine's sync points), so it completes its swap.
    pub fn finish(&mut self, plan: &RollPlan) {
        for chip in 0..self.version.len() {
            if self.draining[chip] {
                self.draining[chip] = false;
                self.rolled[chip] = true;
                self.version[chip] = plan.to_version.clone();
            }
        }
    }

    /// Whether every alive chip has swapped.
    pub fn complete(&self, alive: &[bool]) -> bool {
        self.rolled
            .iter()
            .zip(alive)
            .all(|(&rolled, &alive)| rolled || !alive)
    }

    /// Chips that completed the swap.
    pub fn rolled_count(&self) -> usize {
        self.rolled.iter().filter(|&&r| r).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_walks_the_fleet_in_chip_order() {
        let plan = RollPlan::new(1000.0, 2);
        let mut state = RollState::new(4, &plan);
        let alive = vec![true; 4];
        // Before start: nothing drains.
        assert!(!state.begin_epoch(&plan, 0.0, &alive));
        assert_eq!(state.rolled_count(), 0);
        // Epoch at 1000 ms: chips 0 and 1 drain.
        assert!(state.begin_epoch(&plan, 1000.0, &alive));
        assert_eq!(state.draining, vec![true, true, false, false]);
        // Next epoch: 0 and 1 swap, 2 and 3 drain.
        assert!(state.begin_epoch(&plan, 2000.0, &alive));
        assert_eq!(state.version[0], "v2");
        assert_eq!(state.version[2], "v1");
        assert_eq!(state.draining, vec![false, false, true, true]);
        // Final epoch: everything swapped, nothing left to drain.
        assert!(!state.begin_epoch(&plan, 3000.0, &alive));
        assert!(state.complete(&alive));
        assert_eq!(state.rolled_count(), 4);
        assert!(state.version.iter().all(|v| v == "v2"));
    }

    #[test]
    fn dead_chips_are_skipped_but_do_not_block_completion() {
        let plan = RollPlan::new(0.0, 4);
        let mut state = RollState::new(3, &plan);
        let alive = vec![true, false, true];
        assert!(state.begin_epoch(&plan, 0.0, &alive));
        assert_eq!(state.draining, vec![true, false, true]);
        assert!(!state.begin_epoch(&plan, 1000.0, &alive));
        assert!(state.complete(&alive));
        assert_eq!(state.rolled_count(), 2);
        assert_eq!(state.version[1], "v1", "the dead chip never swaps");
    }
}
