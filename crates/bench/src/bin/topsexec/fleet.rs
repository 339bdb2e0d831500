//! `topsexec fleet` and `topsexec fleet top`: cluster-scale serving,
//! its report, SLO compliance and dashboard.

use crate::{chip_config, grid, replay, write_dump, Failure, Outcome};
use dtu_bench::cli::{self, Args};
use dtu_fleet::{
    run_fleet, run_fleet_monitored, ChipKill, FleetConfig, FleetError, FleetFrame, FleetMonitor,
    FleetReport, FleetTenant, FleetTopology, RollPlan,
};
use std::fmt::Write;

/// One fleet dashboard frame: per-tenant then per-chip rows aggregated
/// over the trailing fast burn window.
fn render(frame: &FleetFrame) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet t={:.0}s  epoch={}  alerts={}",
        frame.t_ms / 1e3,
        frame.epoch,
        frame.alerts
    );
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>6}",
        "tenant", "qps", "shed/s", "drop/s", "p99(ms)", "burn5s", "burn60s", "alert"
    );
    for t in &frame.tenants {
        let _ = writeln!(
            out,
            "{:<14} {:>8.0} {:>8.1} {:>8.1} {:>9.3} {:>8.2} {:>8.2} {:>6}",
            t.name,
            t.qps,
            t.shed_rate,
            t.drop_rate,
            t.latency.p99_ms,
            t.latency.burn_fast,
            t.latency.burn_slow,
            if t.latency.firing { "FIRE" } else { "-" }
        );
    }
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>8} {:>9} {:>8} {:>6}",
        "chip", "qps", "shed/s", "p99(ms)", "burn", "state"
    );
    for c in &frame.chips {
        let state = if c.dead {
            "DEAD"
        } else if c.fire {
            "FIRE"
        } else {
            "-"
        };
        let _ = writeln!(
            out,
            "{:<6} {:>8.0} {:>8.1} {:>9.3} {:>8.2} {:>6}",
            c.chip, c.qps, c.shed_rate, c.p99_ms, c.burn, state
        );
    }
    out
}

/// Runs the fleet the flags describe, under the monitor when `monitored`.
fn simulate(args: &Args, monitored: bool) -> Result<(FleetReport, Option<FleetMonitor>), Failure> {
    let (chips, cards): (usize, usize) = (args.get("--chips"), args.get("--cards"));
    if !chips.is_multiple_of(cards) {
        return Err(Failure::Input(format!(
            "--chips {chips} must divide evenly over --cards {cards}"
        )));
    }
    let config_failure = |e: FleetError| match e {
        FleetError::Config(_) => Failure::Input(e.to_string()),
        e => Failure::Run(e.to_string()),
    };
    let topology = FleetTopology::homogeneous(cards, chips / cards, &chip_config(args))
        .map_err(config_failure)?;
    let grid = grid(args);
    let qps = args.opt("--qps").unwrap_or(7_500.0 * topology.len() as f64) / grid.len() as f64;
    let tenants: Vec<FleetTenant> = grid
        .into_iter()
        .map(|model| {
            let mut tenant = FleetTenant::new(model, qps);
            tenant.replicas = args.get("--replicas");
            tenant.deadline_ms = args.get("--deadline");
            tenant.queue_depth = args.get("--queue-depth");
            tenant
        })
        .collect();
    let duration: f64 = args.get("--duration");
    let cfg = FleetConfig {
        duration_ms: duration,
        epoch_ms: args.get("--epoch"),
        seed: args.get("--seed"),
        cells_per_replica: args.get("--cells"),
        roll: (!args.switch("--no-roll")).then(|| {
            RollPlan::new(
                args.opt("--roll-start").unwrap_or(duration * 0.2),
                args.opt("--roll-chips")
                    .unwrap_or_else(|| (topology.len() / 4).max(1)),
            )
        }),
        kill: args.opt("--kill-chip").map(|chip| ChipKill {
            chip,
            at_ms: args.opt("--kill-at").unwrap_or(duration * 0.5),
        }),
    };
    let cache = cli::session_cache(args);
    let jobs = cli::jobs(args);
    let started = std::time::Instant::now();
    let (report, monitor) = if monitored {
        run_fleet_monitored(&topology, &tenants, &cfg, &cache, jobs).map(|(r, m)| (r, Some(m)))
    } else {
        run_fleet(&topology, &tenants, &cfg, &cache, jobs).map(|r| (r, None))
    }
    .map_err(config_failure)?;
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let availability = if report.offered == 0 {
        1.0
    } else {
        report.completed as f64 / report.offered as f64
    };
    eprintln!(
        "[fleet] {} chips x {} epochs on {jobs} workers in {elapsed_ms:.0} ms; {} offered, \
         availability {availability:.3}, {} lost / {} rolled; cache: {} memory + {} disk hits, \
         {} misses",
        report.chips,
        report.epochs,
        report.offered,
        report.chips_lost,
        report.chips_rolled,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    Ok((report, monitor))
}

/// Stderr chatter for a monitored run (alerts, offenders, dumps), then
/// the `--flight-out` dump.
fn report_monitor(args: &Args, mon: &mut FleetMonitor) -> Outcome {
    for a in mon.alerts() {
        let scope = match (a.chip, a.tenant) {
            (Some(c), Some(t)) => format!("chip {c}, tenant {t}"),
            (Some(c), None) => format!("chip {c}"),
            (None, Some(t)) => format!("tenant {t}"),
            (None, None) => "fleet".to_string(),
        };
        eprintln!(
            "[fleet] e{} t={:.2}s {} alert `{}` ({scope})",
            a.epoch,
            a.event.t_ns / 1e9,
            a.event.kind.name(),
            a.event.slo
        );
    }
    for o in mon.top_offenders(3) {
        eprintln!(
            "[fleet] offender chip {} / {}: {:.0} bad ({:.0}% of burn)",
            o.chip,
            o.tenant,
            o.bad,
            o.share * 100.0
        );
    }
    eprintln!(
        "[fleet] flight recorder: {} dumps retained ({} triggers)",
        mon.dumps().len(),
        mon.triggers()
    );
    let Some(path) = args.opt::<String>("--flight-out") else {
        return Ok(());
    };
    if mon.dumps().is_empty() {
        // Nothing went wrong: freeze the worst-burning (or first)
        // chip's ring so the flag always yields a trace.
        let chip = mon.top_offenders(1).first().map_or(0, |o| o.chip);
        mon.snapshot_chip(chip, "end-of-run snapshot");
    }
    // A whole-chip loss is the incident the operator came for: prefer
    // its black box over an earlier burn-rate page.
    let dumps = mon.dumps();
    let dump = dumps
        .iter()
        .find(|d| d.reason.contains("killed"))
        .unwrap_or(&dumps[0]);
    write_dump("fleet", &path, dump)
}

/// `topsexec fleet`: the fleet report, or with `--slo` its compliance
/// report. Either is byte-identical with or without the monitor.
pub fn run(args: &Args) -> Outcome {
    let slo = args.switch("--slo");
    let monitored = slo || args.switch("--monitor") || args.opt::<String>("--flight-out").is_some();
    let (report, monitor) = simulate(args, monitored)?;
    match (&monitor, args.get::<String>("--format").as_str()) {
        (Some(mon), _) if slo => println!("{}", mon.compliance_json()),
        (_, "table") => print!("{}", report.to_table()),
        (_, "prom") => print!("{}", report.to_prometheus()),
        _ => println!("{}", report.to_json()),
    }
    match monitor {
        Some(mut mon) => report_monitor(args, &mut mon),
        None => Ok(()),
    }
}

/// `topsexec fleet top`: the dashboard, one frame per routing epoch.
pub fn top(args: &Args) -> Outcome {
    let (_, monitor) = simulate(args, true)?;
    let mut mon = monitor.expect("a monitored run returns its monitor");
    replay(args, mon.frames(), render);
    report_monitor(args, &mut mon)
}
