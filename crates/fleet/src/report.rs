//! The fleet-wide report: per-tenant percentiles from exact
//! [`LogHistogram`] merges, per-chip accounting, and deterministic
//! JSON/table rendering.
//!
//! Like every other report in the workspace, [`FleetReport::to_json`]
//! is schedule-independent: no wall-clock, no worker count, and no
//! cache provenance (concurrent lookups of one artifact may race to
//! compile, making hit counts schedule-dependent — see
//! `SessionCache::compile_session`). The cache delta and the run's
//! [`PricingStats`] *are* carried on the struct and shown by
//! [`FleetReport::to_table`], where humans want them and byte-identity
//! is not promised.

use dtu_harness::CacheStats;
use dtu_telemetry::json::{array, number, JsonObject};
use dtu_telemetry::prometheus::{self, Declared, Family, MetricType};
use dtu_telemetry::{Counter, CounterSet};

/// How the run's price table answered its chip-epochs.
///
/// A chip-epoch looks a session up the first time it dispatches that
/// (batch, placement); only a lookup no earlier chip-epoch answered
/// builds, fetches and walks the program. Concurrent chip-epochs may
/// both walk one session, so like the cache delta these counts are
/// schedule-independent only at one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PricingStats {
    /// Sessions the chip-epochs asked the table for.
    pub lookups: u64,
    /// Lookups the table could not answer: each walked the program.
    pub walks: u64,
}

/// One tenant's fleet-wide slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTenantReport {
    /// Tenant (model) name.
    pub name: String,
    /// Replicas placed at the start of the run.
    pub replicas: usize,
    /// Requests offered fleet-wide.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by per-replica admission control.
    pub shed: u64,
    /// Completions past the SLA deadline.
    pub violations: u64,
    /// Requests dropped by faults.
    pub fault_dropped: u64,
    /// p50 latency over all completions, ms (exact histogram merge).
    pub p50_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Worst completion, ms.
    pub max_ms: f64,
    /// `completed / offered` over the whole run (1 when idle).
    pub availability: f64,
    /// `completed / offered` over the epochs in which some chip was
    /// draining for the rolling deploy; `None` when no roll ran or no
    /// traffic arrived while rolling.
    pub roll_availability: Option<f64>,
}

/// One chip's slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetChipReport {
    /// Chip index.
    pub chip: usize,
    /// Card the chip sits on.
    pub card: usize,
    /// Requests routed to (offered on) the chip.
    pub offered: u64,
    /// Requests the chip completed.
    pub completed: u64,
    /// Requests the chip shed.
    pub shed: u64,
    /// Requests dropped by faults on the chip.
    pub fault_dropped: u64,
    /// Processing groups permanently lost on the chip.
    pub groups_lost: u64,
    /// Whether the chip died during the run.
    pub dead: bool,
    /// Model-version label at the end of the run.
    pub version: String,
    /// The router's final EWMA of the chip's queueing delay, ms.
    pub ewma_delay_ms: f64,
}

/// The merged outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Chips simulated.
    pub chips: usize,
    /// Cards they sit on.
    pub cards: usize,
    /// Name of the (first) chip configuration.
    pub chip_name: String,
    /// Arrival horizon, ms.
    pub duration_ms: f64,
    /// Routing-epoch length, ms.
    pub epoch_ms: f64,
    /// Epochs executed.
    pub epochs: usize,
    /// Fleet seed.
    pub seed: u64,
    /// Requests offered fleet-wide.
    pub offered: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests shed fleet-wide.
    pub shed: u64,
    /// Deadline violations fleet-wide.
    pub violations: u64,
    /// Batch retries caused by injected faults.
    pub retries: u64,
    /// Requests dropped by faults fleet-wide.
    pub fault_dropped: u64,
    /// Fault events that fired.
    pub faults_injected: u64,
    /// Routing cells the balancer assigned over all epochs.
    pub routed_cells: u64,
    /// Replica moves performed after chip losses.
    pub replica_moves: u64,
    /// Whole chips lost during the run.
    pub chips_lost: u64,
    /// Chips that completed the rolling deploy.
    pub chips_rolled: u64,
    /// Max/min per-chip offered load over chips that stayed alive and
    /// received traffic (1 when fewer than two such chips).
    pub load_ratio: f64,
    /// Per-tenant breakdown.
    pub tenants: Vec<FleetTenantReport>,
    /// Per-chip breakdown.
    pub chips_detail: Vec<FleetChipReport>,
    /// Session-cache delta attributable to this run (table-only:
    /// compile races make it schedule-dependent, so it is excluded
    /// from the byte-identical JSON).
    pub cache: CacheStats,
    /// The run's price-table counts (table-only, like `cache`).
    pub pricing: PricingStats,
}

impl FleetReport {
    /// Whether `offered == completed + shed + fault_dropped` holds
    /// fleet-wide, per tenant, and per chip — the no-accounting-leaks
    /// invariant chip losses must preserve.
    pub fn accounting_balances(&self) -> bool {
        let fleet = self.offered == self.completed + self.shed + self.fault_dropped;
        let tenants = self
            .tenants
            .iter()
            .all(|t| t.offered == t.completed + t.shed + t.fault_dropped);
        let chips = self
            .chips_detail
            .iter()
            .all(|c| c.offered == c.completed + c.shed + c.fault_dropped);
        fleet && tenants && chips
    }

    /// The deterministic JSON report: schedule-independent (no
    /// wall-clock, no worker count, no cache provenance), so two runs
    /// with the same inputs are byte-identical whatever `--jobs` was
    /// and however warm the artifact cache is.
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(tenant_json).collect();
        let chips: Vec<String> = self.chips_detail.iter().map(chip_json).collect();
        JsonObject::new()
            .raw(
                "fleet",
                &JsonObject::new()
                    .int("chips", self.chips as i64)
                    .int("cards", self.cards as i64)
                    .string("chip", &self.chip_name)
                    .raw("duration_ms", &number(self.duration_ms))
                    .raw("epoch_ms", &number(self.epoch_ms))
                    .int("epochs", self.epochs as i64)
                    .int("seed", self.seed as i64)
                    .build(),
            )
            .int("offered", self.offered as i64)
            .int("completed", self.completed as i64)
            .int("shed", self.shed as i64)
            .int("violations", self.violations as i64)
            .int("retries", self.retries as i64)
            .int("fault_dropped", self.fault_dropped as i64)
            .int("faults_injected", self.faults_injected as i64)
            .int("routed_cells", self.routed_cells as i64)
            .int("replica_moves", self.replica_moves as i64)
            .int("chips_lost", self.chips_lost as i64)
            .int("chips_rolled", self.chips_rolled as i64)
            .raw("load_ratio", &number(self.load_ratio))
            .raw(
                "accounting_balanced",
                if self.accounting_balances() {
                    "true"
                } else {
                    "false"
                },
            )
            .raw("tenants", &array(&tenants))
            .raw("chips", &array(&chips))
            .build()
    }

    /// A human-readable fixed-width table (includes the cache delta and
    /// the pricing counts, which the JSON deliberately omits).
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} chips on {} cards ({}), {} epochs x {:.0} ms, seed {}",
            self.chips, self.cards, self.chip_name, self.epochs, self.epoch_ms, self.seed
        );
        let _ = writeln!(
            out,
            "traffic: {} offered, {} completed, {} shed, {} late, {} fault-dropped; load ratio {:.2}",
            self.offered, self.completed, self.shed, self.violations, self.fault_dropped,
            self.load_ratio
        );
        if self.chips_lost > 0 || self.chips_rolled > 0 {
            let _ = writeln!(
                out,
                "events: {} chips lost ({} replica moves), {} chips rolled, {} faults injected",
                self.chips_lost, self.replica_moves, self.chips_rolled, self.faults_injected
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>4} {:>10} {:>10} {:>8} {:>9} {:>9} {:>6} {:>6}",
            "tenant", "rep", "offered", "done", "shed", "p50(ms)", "p99(ms)", "avail", "roll"
        );
        for t in &self.tenants {
            let roll = t
                .roll_availability
                .map_or_else(|| "-".to_string(), |a| format!("{a:.3}"));
            let _ = writeln!(
                out,
                "{:<14} {:>4} {:>10} {:>10} {:>8} {:>9.3} {:>9.3} {:>6.3} {:>6}",
                t.name,
                t.replicas,
                t.offered,
                t.completed,
                t.shed,
                t.p50_ms,
                t.p99_ms,
                t.availability,
                roll
            );
        }
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>10} {:>10} {:>8} {:>7} {:>6} {:>5} {:>10}",
            "chip", "card", "offered", "done", "shed", "lost", "dead", "ver", "ewma(ms)"
        );
        for c in &self.chips_detail {
            let _ = writeln!(
                out,
                "{:<6} {:>5} {:>10} {:>10} {:>8} {:>7} {:>6} {:>5} {:>10.3}",
                c.chip,
                c.card,
                c.offered,
                c.completed,
                c.shed,
                c.groups_lost,
                if c.dead { "yes" } else { "no" },
                c.version,
                c.ewma_delay_ms
            );
        }
        let _ = writeln!(
            out,
            "cache: {} memory + {} disk hits, {} misses ({:.0}% hit rate)",
            self.cache.memory_hits,
            self.cache.disk_hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "pricing: {} walks for {} lookups",
            self.pricing.walks, self.pricing.lookups
        );
        out
    }

    /// Prometheus text exposition for the run: the fleet counters, then
    /// `TENANT_FAMILIES` (`{tenant="..."}`) and `CHIP_FAMILIES`
    /// (`{chip="N"}`). Deterministic like [`FleetReport::to_json`]:
    /// tenant and chip order is fixed, no wall-clock, no cache provenance.
    pub fn to_prometheus(&self) -> String {
        let mut families = self.counters().families(&[]);
        for &(name, help, kind, value) in &TENANT_FAMILIES {
            let tenants = self.tenants.iter();
            families.push(tenants.fold(Family::new(name, help, kind), |f, t| {
                f.sample(&[("tenant", &t.name)], value(t))
            }));
        }
        for &(name, help, kind, value) in &CHIP_FAMILIES {
            let chips = self.chips_detail.iter();
            families.push(chips.fold(Family::new(name, help, kind), |f, c| {
                f.sample(&[("chip", &c.chip.to_string())], value(c))
            }));
        }
        prometheus::render(&families)
    }

    /// The run's fleet counters for the telemetry registry.
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        set.add(Counter::FleetRoutedCells, self.routed_cells as f64);
        set.add(Counter::FleetReplicaMoves, self.replica_moves as f64);
        set.add(Counter::FleetChipsLost, self.chips_lost as f64);
        set
    }
}

/// The per-tenant metric families.
#[rustfmt::skip]
const TENANT_FAMILIES: [Declared<FleetTenantReport>; 6] = [
    ("dtu_fleet_tenant_offered_total", "Requests offered to a tenant fleet-wide", MetricType::Counter, |t| t.offered as f64),
    ("dtu_fleet_tenant_completed_total", "Requests a tenant completed fleet-wide", MetricType::Counter, |t| t.completed as f64),
    ("dtu_fleet_tenant_shed_total", "Requests shed by admission control for a tenant", MetricType::Counter, |t| t.shed as f64),
    ("dtu_fleet_tenant_violations_total", "Completions past a tenant's SLA deadline", MetricType::Counter, |t| t.violations as f64),
    ("dtu_fleet_tenant_p99_ms", "Tenant p99 latency over the run, ms", MetricType::Gauge, |t| t.p99_ms),
    ("dtu_fleet_tenant_availability", "Tenant completed/offered over the run", MetricType::Gauge, |t| t.availability),
];

/// The per-chip metric families.
#[rustfmt::skip]
const CHIP_FAMILIES: [Declared<FleetChipReport>; 5] = [
    ("dtu_fleet_chip_offered_total", "Requests routed to a chip", MetricType::Counter, |c| c.offered as f64),
    ("dtu_fleet_chip_completed_total", "Requests a chip completed", MetricType::Counter, |c| c.completed as f64),
    ("dtu_fleet_chip_shed_total", "Requests a chip shed", MetricType::Counter, |c| c.shed as f64),
    ("dtu_fleet_chip_dead", "Whether the chip died during the run (1 = dead)", MetricType::Gauge, |c| if c.dead { 1.0 } else { 0.0 }),
    ("dtu_fleet_chip_ewma_delay_ms", "Router EWMA of the chip's queueing delay, ms", MetricType::Gauge, |c| c.ewma_delay_ms),
];

fn tenant_json(t: &FleetTenantReport) -> String {
    let obj = JsonObject::new()
        .string("name", &t.name)
        .int("replicas", t.replicas as i64)
        .int("offered", t.offered as i64)
        .int("completed", t.completed as i64)
        .int("shed", t.shed as i64)
        .int("violations", t.violations as i64)
        .int("fault_dropped", t.fault_dropped as i64)
        .raw("p50_ms", &number(t.p50_ms))
        .raw("p99_ms", &number(t.p99_ms))
        .raw("mean_ms", &number(t.mean_ms))
        .raw("max_ms", &number(t.max_ms))
        .raw("availability", &number(t.availability));
    match t.roll_availability {
        Some(a) => obj.raw("roll_availability", &number(a)),
        None => obj.raw("roll_availability", "null"),
    }
    .build()
}

fn chip_json(c: &FleetChipReport) -> String {
    JsonObject::new()
        .int("chip", c.chip as i64)
        .int("card", c.card as i64)
        .int("offered", c.offered as i64)
        .int("completed", c.completed as i64)
        .int("shed", c.shed as i64)
        .int("fault_dropped", c.fault_dropped as i64)
        .int("groups_lost", c.groups_lost as i64)
        .raw("dead", if c.dead { "true" } else { "false" })
        .string("version", &c.version)
        .raw("ewma_delay_ms", &number(c.ewma_delay_ms))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetReport {
        FleetReport {
            chips: 2,
            cards: 1,
            chip_name: "DTU 2.0 (Cloudblazer i20)".into(),
            duration_ms: 2000.0,
            epoch_ms: 1000.0,
            epochs: 2,
            seed: 7,
            offered: 100,
            completed: 90,
            shed: 8,
            violations: 3,
            retries: 0,
            fault_dropped: 2,
            faults_injected: 6,
            routed_cells: 16,
            replica_moves: 1,
            chips_lost: 1,
            chips_rolled: 0,
            load_ratio: 1.5,
            tenants: vec![FleetTenantReport {
                name: "resnet50".into(),
                replicas: 2,
                offered: 100,
                completed: 90,
                shed: 8,
                violations: 3,
                fault_dropped: 2,
                p50_ms: 4.0,
                p99_ms: 9.0,
                mean_ms: 4.5,
                max_ms: 11.0,
                availability: 0.9,
                roll_availability: None,
            }],
            chips_detail: vec![
                FleetChipReport {
                    chip: 0,
                    card: 0,
                    offered: 60,
                    completed: 55,
                    shed: 3,
                    fault_dropped: 2,
                    groups_lost: 6,
                    dead: true,
                    version: "v1".into(),
                    ewma_delay_ms: 1.5,
                },
                FleetChipReport {
                    chip: 1,
                    card: 0,
                    offered: 40,
                    completed: 35,
                    shed: 5,
                    fault_dropped: 0,
                    groups_lost: 0,
                    dead: false,
                    version: "v1".into(),
                    ewma_delay_ms: 0.5,
                },
            ],
            cache: CacheStats {
                memory_hits: 3,
                disk_hits: 0,
                misses: 1,
            },
            pricing: PricingStats {
                lookups: 6,
                walks: 1,
            },
        }
    }

    #[test]
    fn json_excludes_cache_but_table_shows_it() {
        let r = sample();
        let json = r.to_json();
        assert!(!json.contains("memory_hits"), "cache is table-only");
        assert!(!json.contains("walks"), "pricing is table-only");
        assert!(json.contains("\"accounting_balanced\":true"));
        assert!(json.contains("\"roll_availability\":null"));
        let table = r.to_table();
        assert!(table.contains("cache: 3 memory + 0 disk hits, 1 misses"));
        assert!(table.contains("pricing: 1 walks for 6 lookups"));
        assert!(table.contains("chips lost"));
    }

    #[test]
    fn accounting_invariant_checks_every_level() {
        let mut r = sample();
        assert!(r.accounting_balances());
        r.chips_detail[1].completed -= 1;
        assert!(!r.accounting_balances(), "a per-chip leak is caught");
        let mut r2 = sample();
        r2.offered += 1;
        assert!(!r2.accounting_balances(), "a fleet-level leak is caught");
    }

    #[test]
    fn prometheus_exposition_labels_tenants_and_chips() {
        let text = sample().to_prometheus();
        // Fleet counters come through the registry with HELP/TYPE.
        assert!(text.contains(
            "# HELP dtu_fleet_routed_cells_total Routing cells assigned by the fleet router"
        ));
        assert!(text.contains("# TYPE dtu_fleet_routed_cells_total counter"));
        assert!(text.contains("dtu_fleet_routed_cells_total 16"));
        assert!(text.contains("dtu_fleet_replica_moves_total 1"));
        assert!(text.contains("dtu_fleet_chips_lost_total 1"));
        // Per-tenant series carry the tenant label.
        assert!(text.contains("# TYPE dtu_fleet_tenant_p99_ms gauge"));
        assert!(text.contains("dtu_fleet_tenant_completed_total{tenant=\"resnet50\"} 90"));
        assert!(text.contains("dtu_fleet_tenant_p99_ms{tenant=\"resnet50\"} 9"));
        assert!(text.contains("dtu_fleet_tenant_availability{tenant=\"resnet50\"} 0.9"));
        // Per-chip series carry the chip label; dead chips read 1.
        assert!(text.contains("dtu_fleet_chip_offered_total{chip=\"0\"} 60"));
        assert!(text.contains("dtu_fleet_chip_dead{chip=\"0\"} 1"));
        assert!(text.contains("dtu_fleet_chip_dead{chip=\"1\"} 0"));
        assert!(text.contains("dtu_fleet_chip_ewma_delay_ms{chip=\"1\"} 0.5"));
    }

    #[test]
    fn counters_export_the_fleet_metrics() {
        let set = sample().counters();
        assert_eq!(set.get(Counter::FleetRoutedCells), 16.0);
        assert_eq!(set.get(Counter::FleetReplicaMoves), 1.0);
        assert_eq!(set.get(Counter::FleetChipsLost), 1.0);
    }
}
