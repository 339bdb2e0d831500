//! `topsexec top`: live dashboards replayed from a monitored run, at
//! request level (`top`) or token level (`top --generative`).

use crate::generative::{live_config, setup};
use crate::serve::{compiled, scenario, serve_failure};
use crate::{
    accelerator, chip_config, firing_at, frame_times, harness_failure, replay, Failure, Outcome,
};
use dtu::serve::{
    faults::FaultPlan, run_serving_live, GenMonitor, LiveConfig, LiveMonitor, ServeError,
    ServiceModel,
};
use dtu::telemetry::SloSpec;
use dtu_bench::cli::{self, Args};
use std::fmt::Write;

/// One request-level frame at simulated time `t_ns`, rows aggregated
/// over the trailing `span_ns`.
fn render(mon: &LiveMonitor, t_ns: f64, span_ns: f64) -> String {
    let alerts = mon.alerts.iter().filter(|(_, a)| a.t_ns <= t_ns).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t={:.0}s  window={:.0}s  alerts={alerts}",
        t_ns / 1e9,
        span_ns / 1e9
    );
    out += "tenant            qps   shed/s   drop/s   p50(ms)   p99(ms)  batch   burn5s  burn60s  alert\n";
    for (idx, ten) in mon.tenants().iter().enumerate() {
        let r = ten.row(t_ns, span_ns);
        let own = mon.alerts.iter().filter(|(t, _)| *t == idx).map(|(_, a)| a);
        let _ = writeln!(
            out,
            "{:<12} {:>8.0} {:>8.1} {:>8.1} {:>9.3} {:>9.3} {:>6.2} {:>8.2} {:>8.2} {:>6}",
            r.name,
            r.qps,
            r.shed_rate,
            r.drop_rate,
            r.latency.p50_ms,
            r.latency.p99_ms,
            r.mean_batch,
            r.latency.burn_fast,
            r.latency.burn_slow,
            if firing_at(own, t_ns) { "FIRE" } else { "-" }
        );
    }
    out
}

/// `topsexec top`: the serving scenario under the live monitor, with
/// an optional fault plan.
pub fn run(args: &Args) -> Outcome {
    let accel = accelerator(chip_config(args))?;
    let cache = cli::session_cache(args);
    let mut models = compiled(args, &accel, &cache);
    let chip = accel.config();
    let (plan, seed, severity, duration, deadline): (String, u64, f64, f64, f64) = (
        args.get("--plan"),
        args.get("--seed"),
        args.get("--severity"),
        args.get("--duration"),
        args.get("--deadline"),
    );
    let faults = FaultPlan::preset(
        &plan,
        seed,
        severity,
        chip.clusters,
        chip.groups_per_cluster,
        duration * 1e6,
    )
    .map_err(|e| Failure::Input(e.to_string()))?;
    let names: Vec<String> = args.list("--models");
    let cfg = scenario(args, &accel, names.clone(), faults);

    eprintln!(
        "[top] {} tenants ({}), {:.0} qps each, {duration:.0} ms horizon, plan {plan} \
         s{severity:.2}, SLO p99 < {deadline:.0} ms",
        cfg.tenants.len(),
        names.join(", "),
        args.get::<f64>("--qps"),
    );

    let mut mon = LiveMonitor::new(LiveConfig {
        slo: Some(SloSpec::new(format!("p99<{deadline:.0}ms"), 0.99, deadline)),
    });
    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    let aborted = match run_serving_live(&cfg, chip, &mut refs, &mut mon) {
        Ok(_) => None,
        // A fault killed a tenant's last group: the dashboard still
        // shows the run's log up to the outage.
        Err(ServeError::Outage(o)) => Some(o.fault.to_string()),
        Err(e) => return Err(serve_failure(e)),
    };

    let span_ns = args.get::<f64>("--span") * 1e9;
    replay(args, frame_times(mon.now_ns()), |t| {
        render(&mon, t, span_ns)
    });
    for (idx, a) in &mon.alerts {
        eprintln!(
            "[top] t={:.2}s {} alert `{}` (tenant {}, burn fast {:.1} / slow {:.1})",
            a.t_ns / 1e9,
            a.kind.name(),
            a.slo,
            mon.tenants()[*idx].name,
            a.burn_fast,
            a.burn_slow
        );
    }
    if let Some(e) = aborted {
        eprintln!("[top] run aborted early: {e}");
    }
    eprintln!(
        "[top] flight recorder: {} spans in ring, {} dumps ({} triggers)",
        mon.flight.len(),
        mon.flight.dumps().len(),
        mon.flight.triggers()
    );
    Ok(())
}

/// One token-level frame at simulated time `t_ns`: the engine gauges
/// (QPS, active batch, KV occupancy, spill, preemptions) plus one row
/// per TTFT/TPOT objective.
fn render_generative(mon: &GenMonitor, t_ns: f64, span_ns: f64) -> String {
    let r = mon.row(t_ns, span_ns);
    let alerts = mon.alerts.iter().filter(|a| a.t_ns <= t_ns).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t={:.0}s  window={:.0}s  tenant={}  alerts={alerts}",
        t_ns / 1e9,
        span_ns / 1e9,
        mon.config().tenant
    );
    let _ = writeln!(
        out,
        "qps {:.0}  shed/s {:.1}  preempt/s {:.1}  batch {:.2}  kv {:.1}% of {} pages  \
         spill {:.1} ms/s",
        r.qps,
        r.shed_rate,
        r.preempt_rate,
        r.active_batch,
        100.0 * r.kv_occupancy,
        mon.total_pages(),
        r.spill_ms_per_s
    );
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "objective", "p50(ms)", "p99(ms)", "burn5s", "burn60s", "alert"
    );
    for (metric, objective, row) in [("ttft", &mon.ttft, r.ttft), ("tpot", &mon.tpot, r.tpot)] {
        let (name, fire) = match &objective.slo {
            Some(t) => {
                let own = mon.alerts.iter().filter(|a| a.slo == t.spec.name);
                let fire = if firing_at(own, t_ns) { "FIRE" } else { "-" };
                (t.spec.name.clone(), fire)
            }
            None => (metric.to_string(), "off"),
        };
        let _ = writeln!(
            out,
            "{:<20} {:>9.3} {:>9.3} {:>8.2} {:>8.2} {:>6}",
            name, row.p50_ms, row.p99_ms, row.burn_fast, row.burn_slow, fire
        );
    }
    out
}

/// `topsexec top --generative`: the token-level dashboard.
pub fn generative(args: &Args) -> Outcome {
    let (accel, gen_cfg, scenario) = setup(args)?;
    eprintln!(
        "[top --generative] {} at {:.0} qps over {:.0} ms, concurrency {}, \
         KV pool {} pages; SLOs ttft p99 < {:.0} ms, tpot p99 < {:.0} ms",
        args.get::<String>("--gen-model"),
        args.get::<f64>("--qps"),
        scenario.duration_ms,
        scenario.max_concurrency,
        scenario.kv.total_pages,
        scenario.ttft_deadline_ms,
        scenario.tpot_deadline_ms
    );
    let cache = cli::session_cache(args);
    let mut mon = GenMonitor::new(live_config(args, &scenario));
    dtu_harness::run_generative_serve(&accel, &gen_cfg, &scenario, &cache, Some(&mut mon))
        .map_err(harness_failure)?;

    let span_ns = args.get::<f64>("--span") * 1e9;
    replay(args, frame_times(mon.now_ns()), |t| {
        render_generative(&mon, t, span_ns)
    });
    for a in &mon.alerts {
        eprintln!(
            "[top --generative] t={:.2}s {} alert `{}` (burn fast {:.1} / slow {:.1})",
            a.t_ns / 1e9,
            a.kind.name(),
            a.slo,
            a.burn_fast,
            a.burn_slow
        );
    }
    eprintln!(
        "[top --generative] flight recorder: {} spans in ring, {} dumps ({} triggers)",
        mon.flight.len(),
        mon.flight.dumps().len(),
        mon.flight.triggers()
    );
    Ok(())
}
