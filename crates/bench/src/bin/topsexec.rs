//! `topsexec`: the measurement CLI of the reproduced software stack,
//! playing the role `trtexec` plays in §VI-A of the paper.
//!
//! ```text
//! topsexec --model resnet50            # a Table III model by name
//! topsexec --import my_model.tops      # a textual-format model file
//! topsexec --model vgg16 --batch 16 --chip i10 --groups 3 --profile
//! topsexec --model bert --trace-out out.json --no-power-management
//! topsexec profile resnet50            # cross-layer trace + attribution
//! topsexec profile bert --trace-out bert.json --format prometheus
//! topsexec serve                       # multi-tenant serving scenario
//! topsexec serve --models resnet50,bert --qps 600 --bursty --trace-out t.jsonl
//! topsexec serve --generative          # continuous-batching LLM scenario
//! topsexec serve --generative --gen-model tiny --seed 7 --jobs 4
//! topsexec serve --llm --prompt 128 --max-new 64 --kv-budget 0.25
//! topsexec serve --generative --monitor --slo --flight-out blackbox.json
//! topsexec top --generative --gen-model tiny --duration 4000 --once
//! topsexec sweep                       # model x batch grid, parallel + cached
//! topsexec sweep --models resnet50,bert --batches 1,4,16 --jobs 4 --format json
//! topsexec sweep --check-golden tests/golden/figures.json   # CI figure gate
//! topsexec faults resnet50 --seed 7 --plan core-failure     # fault injection
//! topsexec faults --models resnet50,bert --plans none,ecc,thermal --severities 0.5,1
//! topsexec top --once                  # live serving dashboard (windowed QPS/p50/p99/burn)
//! topsexec top --models resnet50,bert --plan core-failure --severity 1
//! topsexec slo resnet50 --seed 7       # SLO compliance report (byte-deterministic JSON)
//! topsexec slo resnet50 --plan core-failure --flight-out blackbox.json
//! topsexec fleet resnet50 --chips 16 --seed 7   # cluster-scale serving simulation
//! topsexec fleet --chips 8 --kill-chip 3 --kill-at 5000 --format table
//! topsexec fleet top --chips 8 --once  # fleet dashboard (per-chip + per-tenant rows)
//! topsexec fleet resnet50 --slo        # fleet SLO compliance report with burn attribution
//! topsexec fleet --format prom         # Prometheus exposition with chip=/tenant= labels
//! ```

use dtu::serve::{
    faults::FaultPlan, run_serving, run_serving_live, run_serving_recorded, ArrivalProcess,
    BatchPolicy, CompiledModel, GenLiveConfig, GenMonitor, GenerativeScenario, KvCacheConfig,
    LiveConfig, LiveMonitor, ScalePolicy, ServeConfig, ServeError, ServiceModel, SlaPolicy,
    TenantSpec,
};
use dtu::telemetry::{AttributionReport, Recorder, SloSpec, TraceBuffer};
use dtu::{Accelerator, ChipConfig, DataType, Graph, Session, SessionOptions, WorkloadSize};
use dtu_fleet::{
    run_fleet, run_fleet_monitored, ChipKill, FleetConfig, FleetError, FleetFrame, FleetMonitor,
    FleetTenant, FleetTopology, RollPlan,
};
use dtu_graph::parse_model;
use dtu_harness::{
    available_jobs, run_fault_sweep, run_slo_scenario, run_slo_sweep, run_sweep, slo_point_seed,
    HarnessError, SessionCache, SloScenario, SweepModel,
};
use dtu_models::{GenerativeConfig, Model};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    model: Option<String>,
    import: Option<String>,
    batch: usize,
    chip: String,
    groups: Option<usize>,
    profile: bool,
    trace: Option<String>,
    no_power_management: bool,
}

/// The `sweep` section of the usage text, shared by [`usage`] and
/// [`sweep_usage`].
macro_rules! sweep_options {
    () => {
        "sweep options (model x batch grid on the parallel experiment engine):\n\
       --models <a,b,...>       comma-separated model names\n\
                                (default resnet50,vgg16,bert)\n\
       --batches <1,2,...>      comma-separated batch sizes, each at least 1\n\
                                (default 1,2,4,8)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads, at least 1 (default: all\n\
                                cores)\n\
       --format <table|json>    report format on stdout (default table);\n\
                                json output is byte-stable across --jobs\n\
       --cache-dir <dir>        compiled-session artifact directory\n\
                                (default target/dtu-cache)\n\
       --no-disk-cache          keep the session cache in memory only\n\
       --write-golden <file>    regenerate the fig. 12-15 figure data and\n\
                                write it as the golden JSON (skips the grid)\n\
       --check-golden <file>    regenerate the fig. 12-15 figure data and\n\
                                fail unless it matches the golden within a\n\
                                1e-9 relative tolerance (the CI figure gate)"
    };
}

/// The `fleet` section of the usage text (including `fleet top`),
/// shared by [`usage`] and [`fleet_usage`].
macro_rules! fleet_options {
    () => {
        "fleet options (cluster-scale serving over N chips x M cards):\n\
       <name> / --models <a,..> model name(s) to serve (default resnet50)\n\
       --chips <n>              chips in the fleet, at least 1 (default 4)\n\
       --cards <n>              cards they sit on, at least 1; chips must\n\
                                divide evenly (default 1)\n\
       --qps <q>                fleet-wide offered load, positive (default\n\
                                7500 x chips, split across models)\n\
       --duration <ms>          arrival horizon (default 10000)\n\
       --epoch <ms>             routing-epoch length (default 1000)\n\
       --replicas <n>           replicas per tenant, 0 = every chip\n\
                                (default 0)\n\
       --deadline <ms>          per-request SLA deadline (default 50)\n\
       --queue-depth <n>        per-replica admission cap (default 256)\n\
       --cells <n>              routing cells per replica per epoch\n\
                                (default 2)\n\
       --no-roll                skip the default rolling deploy\n\
       --roll-start <ms>        when the roll begins (default 20% of\n\
                                the horizon)\n\
       --roll-chips <n>         chips drained per epoch (default\n\
                                chips/4, at least 1)\n\
       --kill-chip <n>          kill chip n mid-run (whole-chip fault)\n\
       --kill-at <ms>           when the kill fires (default 50% of\n\
                                the horizon)\n\
       --seed <n>               fleet seed (default 7)\n\
       --jobs <n>               worker threads, at least 1 (default: all\n\
                                cores)\n\
       --format <fmt>           report on stdout: json (default), table,\n\
                                or prom (Prometheus exposition with\n\
                                chip=/tenant= labels); json is\n\
                                byte-identical across runs, --jobs, and\n\
                                cache temperature (table adds the\n\
                                schedule-dependent cache tally)\n\
       --monitor                attach the fleet monitor (alerts and\n\
                                burn attribution on stderr); the stdout\n\
                                report stays byte-identical\n\
       --slo                    print the fleet SLO compliance report\n\
                                (per-tenant budget, burn alerts, top\n\
                                offending chip/tenant pairs) instead\n\
                                of the fleet report\n\
       --flight-out <file.json> write the first fleet flight dump (an\n\
                                alert or chip kill freezes the chip's\n\
                                span ring + routing decisions) as a\n\
                                Perfetto/Chrome trace\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --cache-dir <dir>        compiled-session artifact directory\n\
                                (default target/dtu-cache)\n\
       --no-disk-cache          keep the session cache in memory only\n\
     \n\
     fleet top (fleet dashboard: per-tenant and per-chip QPS/shed/p99/\n\
     burn-rate/FIRE rows, one frame per routing epoch):\n\
       all fleet options as above, plus:\n\
       --once                   print the final frame once and exit\n\
                                (deterministic stdout; for scripts/CI)\n\
       --refresh-ms <n>         wall-clock delay between frames\n\
                                (default 150)"
    };
}

fn usage() -> &'static str {
    concat!(
        "usage: topsexec (--model <name> | --import <file.tops>) [options]\n\
     \x20      topsexec profile (<name> | --import <file.tops>) [profile options]\n\
     \x20      topsexec serve [serve options]\n\
     \x20      topsexec sweep [sweep options]\n\
     \x20      topsexec faults [<name>] [fault options]\n\
     \x20      topsexec top [top options]\n\
     \x20      topsexec slo [<name>] [slo options]\n\
     \x20      topsexec fleet [<name>] [fleet options]\n\
     \n\
     options:\n\
       --model <name>           one of: yolov3 centernet retinaface vgg16\n\
                                resnet50 inceptionv4 unet srresnet bert conformer\n\
       --import <file>          load a model in the textual .tops format\n\
       --batch <n>              batch size (default 1; >1 uses throughput mode)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --groups <1|2|3>         restrict to N groups of cluster 0 (default: full chip)\n\
       --profile                print the profiler's hot-kernel report\n\
       --trace-out <file.json>  write a Chrome-trace timeline (--trace also accepted)\n\
       --no-power-management    pin the clock at f_max\n\
     \n\
     profile options (cross-layer telemetry trace + per-operator attribution):\n\
       --batch / --chip / --groups / --no-power-management as above\n\
       --trace-out <file.json>  Perfetto/Chrome trace path (default topsexec.trace.json)\n\
       --format <fmt>           attribution report format: table (default),\n\
                                prometheus, or json\n\
     \n\
     serve options (multi-tenant dynamic-batching scenario):\n\
       --models <a,b,...>       comma-separated model names, one tenant each\n\
                                (default resnet50,bert)\n\
       --qps <n>                mean arrival rate per tenant, queries/s (default 400)\n\
       --duration <ms>          arrival horizon (default 1000)\n\
       --max-batch <n>          dynamic-batching cap (default 8; 1 disables)\n\
       --batch-timeout <ms>     max co-batching wait (default 2)\n\
       --deadline <ms>          per-request SLA deadline (default 50)\n\
       --queue-depth <n>        admission queue cap, arrivals beyond shed (default 64)\n\
       --bursty                 Markov-modulated arrivals instead of Poisson\n\
       --no-autoscale           pin each tenant at one processing group\n\
       --seed <n>               run seed (default 0x5EED)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --trace-out <file>       write the event trace: .json gets Chrome-trace\n\
                                spans, anything else JSON lines\n\
       --cache-dir <dir>        compiled-session artifact directory\n\
                                (default target/dtu-cache)\n\
       --no-disk-cache          keep the session cache in memory only\n\
     \n\
     serve --generative options (continuous-batching generative scenario;\n\
     --llm is a synonym; JSON report on stdout is byte-identical across\n\
     --jobs and cache temperature):\n\
       --gen-model <name>       decoder-only transformer config: gpt1b\n\
                                (16 layers, d_model 2048, ~1B params;\n\
                                default) or tiny (CI-sized)\n\
       --qps <n>                mean arrival rate, requests/s (default 200)\n\
       --duration <ms>          arrival horizon; admitted requests drain\n\
                                to completion past it (default 200)\n\
       --prompt <n>             prompt tokens per request (default 64)\n\
       --min-new <n>            minimum output tokens (default 4)\n\
       --max-new <n>            maximum output tokens (default 32); each\n\
                                request's target is drawn from the seed,\n\
                                independent of schedule\n\
       --max-concurrency <n>    running-batch cap (default 8)\n\
       --queue-depth <n>        admission queue cap, arrivals beyond\n\
                                shed (default 64)\n\
       --ttft-deadline <ms>     time-to-first-token SLO (default 100)\n\
       --tpot-deadline <ms>     time-per-output-token SLO (default 20)\n\
       --kv-budget <f>          fraction of L3 granted to the paged\n\
                                KV-cache pool, in (0,1] (default 1)\n\
       --bursty                 Markov-modulated arrivals instead of\n\
                                Poisson\n\
       --seed <n>               run seed (default 7)\n\
       --jobs <n>               session warm-up workers (default: all\n\
                                cores); does not affect the report\n\
       --monitor                attach the token-level live monitor\n\
                                (TTFT/TPOT burn-rate alerts and the\n\
                                flight-recorder tally on stderr); the\n\
                                stdout report stays byte-identical\n\
       --slo                    print the TTFT/TPOT SLO compliance\n\
                                report (per-objective budget, burn\n\
                                pages, preemption/KV-exhaustion counts)\n\
                                instead of the run report\n\
       --flight-out <file.json> write the flight dump (the first\n\
                                KV-pressure preemption or burn-rate\n\
                                page freezes the token timeline) as a\n\
                                Perfetto/Chrome trace\n\
       --format <json|prom>     run report format on stdout: json\n\
                                (default) or prom (Prometheus\n\
                                exposition with tenant= labels)\n\
       --chip / --trace-out / --cache-dir / --no-disk-cache as for serve\n\
     \n\
     ",
        sweep_options!(),
        "\n\n\
     fault options (model x fault-plan x severity degradation grid):\n\
       <name> / --models <a,..> model name(s) to inject into (default resnet50)\n\
       --plan / --plans <a,..>  fault-plan presets: none core-failure ecc\n\
                                dma-stall dma-timeout thermal icache mixed\n\
                                (default none,core-failure,ecc,dma-stall,thermal)\n\
       --severity <s,..>        severities in [0,1] (--severities also\n\
                                accepted; default 0.5,1)\n\
       --seed <n>               sweep seed, mixed into every point (default 7)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <json|table>    report format on stdout (default json);\n\
                                byte-identical across runs and --jobs\n\
       --cache-dir / --no-disk-cache as for sweep\n\
     \n\
     top options (live serving dashboard: windowed QPS/p50/p99/burn-rate\n\
     per tenant, refreshed per simulated second):\n\
       --models / --qps / --duration / --max-batch / --batch-timeout /\n\
       --deadline / --queue-depth / --bursty / --no-autoscale / --seed /\n\
       --chip / --cache-dir / --no-disk-cache as for serve\n\
       --plan <name>            inject a fault-plan preset (default none)\n\
       --severity <s>           fault severity in [0,1] (default 1)\n\
       --once                   print the final dashboard once and exit\n\
                                (deterministic stdout; for scripts and CI)\n\
       --span <s>               trailing window the rows aggregate over,\n\
                                simulated seconds (default 5)\n\
       --refresh-ms <n>         wall-clock delay between frames (default 150)\n\
     \n\
     top --generative (token-level dashboard over a monitored generative\n\
     run: QPS, active batch, KV occupancy, preempt/s, spill, and one\n\
     TTFT/TPOT objective row with burn rates and FIRE markers):\n\
       all serve --generative options as above, plus --once / --span /\n\
       --refresh-ms as for top\n\
     \n\
     slo options (SLO compliance report over a calibrated serving run):\n\
       <name> / --models <a,..> model name(s) to grade (default resnet50)\n\
       --plan / --plans <a,..>  fault-plan presets to grade (default none)\n\
       --severity <s,..>        severities in [0,1] (--severities also\n\
                                accepted; default 1)\n\
       --seed <n>               sweep seed, mixed into every point (default 7)\n\
       --chip <i20|i10>         accelerator generation (default i20)\n\
       --jobs <n>               worker threads (default: all cores)\n\
       --format <json|table>    report format on stdout (default json);\n\
                                byte-identical across runs, --jobs, and\n\
                                cache temperature\n\
       --flight-out <file.json> write the first grid point's flight-recorder\n\
                                dump as a Perfetto/Chrome trace\n\
       --cache-dir / --no-disk-cache as for sweep\n\
     \n\
     ",
        fleet_options!()
    )
}

/// The usage text of the `fleet` subcommand alone.
fn fleet_usage() -> &'static str {
    concat!(
        "usage: topsexec fleet [top] [<name>] [fleet options]\n\n",
        fleet_options!()
    )
}

/// The usage text of the `sweep` subcommand alone.
fn sweep_usage() -> &'static str {
    concat!(
        "usage: topsexec sweep [sweep options]\n\n",
        sweep_options!()
    )
}

fn chip_by_name(name: &str) -> Result<ChipConfig, String> {
    match name {
        "i20" => Ok(ChipConfig::dtu20()),
        "i10" => Ok(ChipConfig::dtu10()),
        other => Err(format!("unknown chip '{other}' (use i20 or i10)")),
    }
}

fn load_graph(model: Option<&str>, import: Option<&str>, batch: usize) -> Result<Graph, String> {
    if let Some(name) = model {
        return match model_by_name(name) {
            Some(m) => Ok(m.build(batch)),
            None => Err(format!("unknown model '{name}'\n\n{}", usage())),
        };
    }
    let path = import.expect("validated");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_model(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload_size(groups: Option<usize>) -> Result<WorkloadSize, String> {
    match groups {
        Some(1) => Ok(WorkloadSize::Small),
        Some(2) => Ok(WorkloadSize::Medium),
        Some(3) => Ok(WorkloadSize::Large),
        None => Ok(WorkloadSize::FullChip),
        Some(n) => Err(format!("--groups must be 1..3, got {n}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: None,
        import: None,
        batch: 1,
        chip: "i20".into(),
        groups: None,
        profile: false,
        trace: None,
        no_power_management: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--model" => args.model = Some(value("--model")?),
            "--import" => args.import = Some(value("--import")?),
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch needs an integer".to_string())?
            }
            "--chip" => args.chip = value("--chip")?,
            "--groups" => {
                args.groups = Some(
                    value("--groups")?
                        .parse()
                        .map_err(|_| "--groups needs an integer".to_string())?,
                )
            }
            "--profile" => args.profile = true,
            "--trace-out" | "--trace" => args.trace = Some(value("--trace-out")?),
            "--no-power-management" => args.no_power_management = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.model.is_none() == args.import.is_none() {
        return Err("exactly one of --model / --import is required".into());
    }
    Ok(args)
}

fn model_by_name(name: &str) -> Option<Model> {
    match name.to_lowercase().as_str() {
        "yolov3" | "yolo" => Some(Model::YoloV3),
        "centernet" => Some(Model::CenterNet),
        "retinaface" => Some(Model::RetinaFace),
        "vgg16" | "vgg" => Some(Model::Vgg16),
        "resnet50" | "resnet" => Some(Model::Resnet50),
        "inceptionv4" | "inception" => Some(Model::InceptionV4),
        "unet" => Some(Model::Unet),
        "srresnet" => Some(Model::SrResnet),
        "bert" | "bertlarge" => Some(Model::BertLarge),
        "conformer" => Some(Model::Conformer),
        _ => None,
    }
}

struct ServeArgs {
    models: Vec<String>,
    qps: f64,
    duration_ms: f64,
    max_batch: usize,
    batch_timeout_ms: f64,
    deadline_ms: f64,
    queue_depth: usize,
    bursty: bool,
    autoscale: bool,
    seed: u64,
    chip: String,
    trace: Option<String>,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
}

/// Builds the artifact cache the `sweep` and `serve` subcommands share
/// (on disk) from the common `--cache-dir` / `--no-disk-cache` flags.
fn artifact_cache(cache_dir: Option<&PathBuf>, disk_cache: bool) -> SessionCache {
    if !disk_cache {
        return SessionCache::memory_only();
    }
    let dir = cache_dir
        .cloned()
        .unwrap_or_else(SessionCache::default_disk_dir);
    SessionCache::with_disk(dir)
}

fn parse_serve_args() -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        models: vec!["resnet50".into(), "bert".into()],
        qps: 400.0,
        duration_ms: 1000.0,
        max_batch: 8,
        batch_timeout_ms: 2.0,
        deadline_ms: 50.0,
        queue_depth: 64,
        bursty: false,
        autoscale: true,
        seed: 0x5EED,
        chip: "i20".into(),
        trace: None,
        cache_dir: None,
        disk_cache: true,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} needs a number"))
        }
        match a.as_str() {
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--qps" => args.qps = num("--qps", value("--qps")?)?,
            "--duration" => args.duration_ms = num("--duration", value("--duration")?)?,
            "--max-batch" => args.max_batch = num("--max-batch", value("--max-batch")?)?,
            "--batch-timeout" => {
                args.batch_timeout_ms = num("--batch-timeout", value("--batch-timeout")?)?
            }
            "--deadline" => args.deadline_ms = num("--deadline", value("--deadline")?)?,
            "--queue-depth" => args.queue_depth = num("--queue-depth", value("--queue-depth")?)?,
            "--bursty" => args.bursty = true,
            "--no-autoscale" => args.autoscale = false,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--chip" => args.chip = value("--chip")?,
            "--trace-out" | "--trace" => args.trace = Some(value("--trace-out")?),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    if args.models.is_empty() {
        return Err("--models needs at least one model name".into());
    }
    Ok(args)
}

fn run_serve() -> ExitCode {
    let args = match parse_serve_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The artifact cache outlives the per-tenant models so every
    // tenant compiles through it — and, with the disk tier on, reuses
    // sessions a previous `serve` or `sweep` run already lowered.
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let mut models = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", usage());
            return ExitCode::FAILURE;
        };
        models.push(
            CompiledModel::new(accel.chip(), name.clone(), move |b| m.build(b)).with_source(&cache),
        );
    }

    let gpc = accel.config().groups_per_cluster;
    let cfg = ServeConfig {
        duration_ms: args.duration_ms,
        seed: args.seed,
        record_requests: false,
        faults: Default::default(),
        retry: Default::default(),
        tenants: (0..models.len())
            .map(|i| TenantSpec {
                name: format!("tenant{i}"),
                model: i,
                arrival: if args.bursty {
                    ArrivalProcess::Bursty {
                        base_qps: 0.5 * args.qps,
                        burst_qps: 2.5 * args.qps,
                        mean_dwell_ms: args.duration_ms / 8.0,
                    }
                } else {
                    ArrivalProcess::Poisson { qps: args.qps }
                },
                batch: if args.max_batch > 1 {
                    BatchPolicy::dynamic(args.max_batch, args.batch_timeout_ms)
                } else {
                    BatchPolicy::none()
                },
                sla: SlaPolicy::new(args.deadline_ms, args.queue_depth),
                scale: if args.autoscale {
                    ScalePolicy::elastic(args.deadline_ms / 4.0, args.deadline_ms / 20.0, gpc)
                } else {
                    ScalePolicy::none()
                },
                cluster: None,
                initial_groups: 1,
            })
            .collect(),
    };

    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    // A .json trace goes through the telemetry exporter (request/batch
    // spans on the shared clock); anything else stays JSONL.
    let chrome_trace = args.trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let mut buf = TraceBuffer::new();
    let out = if chrome_trace {
        run_serving_recorded(&cfg, accel.config(), &mut refs, &mut buf)
    } else {
        run_serving(&cfg, accel.config(), &mut refs)
    };
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The header waits for the run, so a rejected scenario prints
    // nothing on stdout.
    println!("=== topsexec serve ===");
    println!("accelerator : {accel}");
    println!(
        "tenants     : {} ({}), {:.0} qps each{}, {:.0} ms horizon",
        cfg.tenants.len(),
        args.models.join(", "),
        args.qps,
        if args.bursty { " (bursty)" } else { "" },
        args.duration_ms
    );
    println!(
        "policies    : max batch {}, timeout {:.1} ms, deadline {:.0} ms, queue cap {}, autoscale {}",
        args.max_batch,
        args.batch_timeout_ms,
        args.deadline_ms,
        args.queue_depth,
        if args.autoscale { "on" } else { "off" }
    );
    println!("\n--- report ---");
    print!("{}", out.report);
    println!("\n--- session cache ---");
    for m in &models {
        let s = m.cache_stats();
        println!(
            "  {}: {} sessions compiled, {} hits / {} misses",
            m.name(),
            m.cached_sessions(),
            s.hits,
            s.misses
        );
    }
    let s = cache.stats();
    println!(
        "  shared artifacts: {} memory + {} disk hits, {} misses",
        s.memory_hits, s.disk_hits, s.misses
    );

    if let Some(path) = &args.trace {
        let payload = if chrome_trace {
            buf.to_chrome_trace(true)
        } else {
            out.trace.to_jsonl()
        };
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\ntrace written to {path} ({} events)", out.trace.len());
    }
    ExitCode::SUCCESS
}

struct GenServeArgs {
    gen_model: String,
    qps: f64,
    duration_ms: f64,
    prompt: usize,
    min_new: usize,
    max_new: usize,
    max_concurrency: usize,
    queue_depth: usize,
    ttft_deadline_ms: f64,
    tpot_deadline_ms: f64,
    kv_budget: f64,
    bursty: bool,
    seed: u64,
    chip: String,
    jobs: usize,
    trace: Option<String>,
    monitor: bool,
    slo: bool,
    flight_out: Option<String>,
    format: String,
    once: bool,
    span_s: f64,
    refresh_ms: u64,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
}

fn gen_model_by_name(name: &str) -> Option<GenerativeConfig> {
    match name.to_lowercase().as_str() {
        "gpt1b" | "gpt-1b" | "1b" => Some(GenerativeConfig::gpt_1b()),
        "tiny" => Some(GenerativeConfig::tiny()),
        _ => None,
    }
}

fn parse_genserve_args() -> Result<GenServeArgs, String> {
    let mut args = GenServeArgs {
        gen_model: "gpt1b".into(),
        qps: 200.0,
        duration_ms: 200.0,
        prompt: 64,
        min_new: 4,
        max_new: 32,
        max_concurrency: 8,
        queue_depth: 64,
        ttft_deadline_ms: 100.0,
        tpot_deadline_ms: 20.0,
        kv_budget: 1.0,
        bursty: false,
        seed: 7,
        chip: "i20".into(),
        jobs: available_jobs(),
        trace: None,
        monitor: false,
        slo: false,
        flight_out: None,
        format: "json".into(),
        once: false,
        span_s: 5.0,
        refresh_ms: 150,
        cache_dir: None,
        disk_cache: true,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} needs a number"))
        }
        match a.as_str() {
            // The mode selectors themselves (main() already routed on
            // them).
            "--generative" | "--llm" => {}
            "--gen-model" => args.gen_model = value("--gen-model")?,
            "--qps" => args.qps = num("--qps", value("--qps")?)?,
            "--duration" => args.duration_ms = num("--duration", value("--duration")?)?,
            "--prompt" => args.prompt = num("--prompt", value("--prompt")?)?,
            "--min-new" => args.min_new = num("--min-new", value("--min-new")?)?,
            "--max-new" => args.max_new = num("--max-new", value("--max-new")?)?,
            "--max-concurrency" => {
                args.max_concurrency = num("--max-concurrency", value("--max-concurrency")?)?
            }
            "--queue-depth" => args.queue_depth = num("--queue-depth", value("--queue-depth")?)?,
            "--ttft-deadline" => {
                args.ttft_deadline_ms = num("--ttft-deadline", value("--ttft-deadline")?)?
            }
            "--tpot-deadline" => {
                args.tpot_deadline_ms = num("--tpot-deadline", value("--tpot-deadline")?)?
            }
            "--kv-budget" => args.kv_budget = num("--kv-budget", value("--kv-budget")?)?,
            "--bursty" => args.bursty = true,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--chip" => args.chip = value("--chip")?,
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?
            }
            "--trace-out" | "--trace" => args.trace = Some(value("--trace-out")?),
            "--monitor" => args.monitor = true,
            "--slo" => args.slo = true,
            "--flight-out" => args.flight_out = Some(value("--flight-out")?),
            "--format" => args.format = value("--format")?,
            "--once" => args.once = true,
            "--span" => args.span_s = num("--span", value("--span")?)?,
            "--refresh-ms" => args.refresh_ms = num("--refresh-ms", value("--refresh-ms")?)?,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown generative serve flag '{other}'")),
        }
    }
    if args.min_new == 0 || args.max_new < args.min_new {
        return Err("--min-new must be at least 1 and --max-new at least --min-new".into());
    }
    if !(args.kv_budget > 0.0 && args.kv_budget <= 1.0) {
        return Err("--kv-budget must be in (0, 1]".into());
    }
    if !matches!(args.format.as_str(), "json" | "prom") {
        return Err(format!(
            "--format must be json or prom, got '{}'",
            args.format
        ));
    }
    if args.span_s <= 0.0 {
        return Err("--span must be positive".into());
    }
    Ok(args)
}

/// The deadline-derived burn-rate objectives of a generative run: a
/// p99 objective per finite deadline (an infinite deadline means "no
/// SLO", matching the engine's violation accounting).
fn gen_live_config(args: &GenServeArgs) -> GenLiveConfig {
    let spec = |metric: &str, deadline_ms: f64| {
        deadline_ms.is_finite().then(|| {
            SloSpec::new(
                format!("{metric}_p99<{deadline_ms:.0}ms"),
                0.99,
                deadline_ms,
            )
        })
    };
    GenLiveConfig {
        ttft_slo: spec("ttft", args.ttft_deadline_ms),
        tpot_slo: spec("tpot", args.tpot_deadline_ms),
        tenant: args.gen_model.clone(),
        ..GenLiveConfig::default()
    }
}

fn gen_scenario(
    args: &GenServeArgs,
    accel: &Accelerator,
    gen_cfg: &GenerativeConfig,
) -> GenerativeScenario {
    let kv = KvCacheConfig::for_chip_with_budget(
        accel.config(),
        gen_cfg.kv_bytes_per_token(),
        args.kv_budget,
    );
    GenerativeScenario {
        duration_ms: args.duration_ms,
        seed: args.seed,
        arrival: if args.bursty {
            ArrivalProcess::Bursty {
                base_qps: 0.5 * args.qps,
                burst_qps: 2.5 * args.qps,
                mean_dwell_ms: args.duration_ms / 8.0,
            }
        } else {
            ArrivalProcess::Poisson { qps: args.qps }
        },
        prompt_tokens: args.prompt,
        min_new_tokens: args.min_new,
        max_new_tokens: args.max_new,
        max_concurrency: args.max_concurrency,
        queue_depth: args.queue_depth,
        ttft_deadline_ms: args.ttft_deadline_ms,
        tpot_deadline_ms: args.tpot_deadline_ms,
        kv,
    }
}

fn run_genserve() -> ExitCode {
    let args = match parse_genserve_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(gen_cfg) = gen_model_by_name(&args.gen_model) else {
        eprintln!(
            "error: unknown generative model '{}' (use gpt1b or tiny)\n\n{}",
            args.gen_model,
            usage()
        );
        return ExitCode::FAILURE;
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scenario = gen_scenario(&args, &accel, &gen_cfg);

    eprintln!(
        "[serve --generative] {} ({} prompt tokens, {}..{} new), {:.0} qps{} over {:.0} ms, \
         concurrency {}, KV pool {} pages ({} L2-resident) on {} warm-up workers",
        args.gen_model,
        args.prompt,
        args.min_new,
        args.max_new,
        args.qps,
        if args.bursty { " (bursty)" } else { "" },
        args.duration_ms,
        args.max_concurrency,
        scenario.kv.total_pages,
        scenario.kv.l2_pages,
        args.jobs
    );

    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let chrome_trace = args.trace.as_deref().is_some_and(|p| p.ends_with(".json"));
    let monitored = args.monitor || args.slo || args.flight_out.is_some();
    let mut buf = TraceBuffer::new();
    let mut mon = monitored.then(|| GenMonitor::new(gen_live_config(&args)));
    let started = std::time::Instant::now();
    let result = if let Some(mon) = mon.as_mut() {
        // Monitored: the live path. The monitor is observational, so
        // stdout stays byte-identical to the plain run.
        dtu_harness::run_generative_serve_live(&accel, &gen_cfg, &scenario, &cache, args.jobs, mon)
    } else {
        let rec: Option<&mut dyn Recorder> = if chrome_trace { Some(&mut buf) } else { None };
        dtu_harness::run_generative_serve(&accel, &gen_cfg, &scenario, &cache, args.jobs, rec)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("generative serve error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    if chrome_trace && monitored {
        // The live path has no recorder attached; rebuild the exact
        // spans (and final counter snapshot) the recorded path emits,
        // from the schedule-independent event trace.
        for s in out.trace.to_spans() {
            buf.record(s);
        }
        buf.snapshot(dtu::telemetry::CounterSnapshot {
            at_ns: out.report.drained_ms * 1e6,
            label: "generative".into(),
            set: out.report.counters(),
        });
    }

    // The stdout payload is schedule-independent so two runs (any
    // --jobs, warm or cold cache, monitored or not) compare
    // byte-for-byte; wall-clock chatter stays on stderr.
    if args.slo {
        println!(
            "{}",
            mon.as_ref()
                .expect("slo implies monitored")
                .compliance_json()
        );
    } else if args.format == "prom" {
        print!("{}", out.report.to_prometheus(&args.gen_model));
    } else {
        println!("{}", out.report.to_json());
    }
    let s = cache.stats();
    eprintln!(
        "[serve --generative] {} prefill + {} decode steps in {:.0} ms; \
         cache: {} memory + {} disk hits, {} misses",
        out.report.prefill_steps,
        out.report.decode_steps,
        elapsed_ms,
        s.memory_hits,
        s.disk_hits,
        s.misses
    );
    if let Some(mon) = &mon {
        for a in &mon.alerts {
            eprintln!(
                "[serve --generative] t={:.2}s {} alert `{}` (burn fast {:.1} / slow {:.1})",
                a.t_ns / 1e9,
                a.kind.name(),
                a.slo,
                a.burn_fast,
                a.burn_slow
            );
        }
        eprintln!(
            "[serve --generative] monitor: {} preemptions, {} kv exhaustions; \
             flight recorder: {} spans in ring, {} dumps ({} triggers)",
            mon.preempts.total() as u64,
            mon.exhausts.total() as u64,
            mon.flight.len(),
            mon.flight.dumps().len(),
            mon.flight.triggers()
        );
    }

    if let (Some(path), Some(mon)) = (&args.flight_out, mon.as_mut()) {
        if mon.flight.dumps().is_empty() {
            // Nothing went wrong: snapshot the ring at end of run so
            // the flag always produces a trace.
            let end_ns = mon.now_ns();
            mon.flight.trigger("end-of-run snapshot", end_ns);
        }
        // Prefer the KV-pressure dump (it names the preempted
        // request), then the first burn-rate page, then whatever came
        // first.
        let dumps = mon.flight.dumps();
        let dump = dumps
            .iter()
            .find(|d| d.reason.starts_with("kv-exhaustion"))
            .or_else(|| dumps.iter().find(|d| d.reason.starts_with("alert")))
            .or_else(|| dumps.first())
            .expect("just ensured");
        if let Err(e) = std::fs::write(path, dump.to_chrome_trace(true)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[serve --generative] flight dump `{}` ({} spans at t={:.2}s) written to {path}",
            dump.reason,
            dump.spans.len(),
            dump.at_ns / 1e9
        );
    }

    if let Some(path) = &args.trace {
        let payload = if chrome_trace {
            buf.to_chrome_trace(true)
        } else {
            out.trace.to_jsonl()
        };
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[serve --generative] trace written to {path} ({} events)",
            out.trace.len()
        );
    }
    ExitCode::SUCCESS
}

struct SweepArgs {
    models: Vec<String>,
    batches: Vec<usize>,
    chip: String,
    jobs: usize,
    format: String,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
    check_golden: Option<String>,
    write_golden: Option<String>,
}

fn parse_sweep_args() -> Result<SweepArgs, String> {
    let mut args = SweepArgs {
        models: vec!["resnet50".into(), "vgg16".into(), "bert".into()],
        batches: vec![1, 2, 4, 8],
        chip: "i20".into(),
        jobs: available_jobs(),
        format: "table".into(),
        cache_dir: None,
        disk_cache: true,
        check_golden: None,
        write_golden: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--check-golden" => args.check_golden = Some(value("--check-golden")?),
            "--write-golden" => args.write_golden = Some(value("--write-golden")?),
            "--batches" => {
                args.batches = value("--batches")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("bad batch size '{}'", s.trim()))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--chip" => args.chip = value("--chip")?,
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?
            }
            "--format" => args.format = value("--format")?,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown sweep flag '{other}'")),
        }
    }
    if args.models.is_empty() || args.batches.is_empty() {
        return Err("sweep needs at least one model and one batch".into());
    }
    if !matches!(args.format.as_str(), "table" | "json") {
        return Err(format!(
            "--format must be table or json, got '{}'",
            args.format
        ));
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if args.check_golden.is_some() && args.write_golden.is_some() {
        return Err("--check-golden and --write-golden are mutually exclusive".into());
    }
    Ok(args)
}

/// The `sweep --write-golden` / `--check-golden` modes: regenerate the
/// fig. 12–15 figure data through the shared cache and either commit it
/// as the golden or gate against it at [`dtu_harness::GOLDEN_RTOL`].
fn run_golden(args: &SweepArgs, cache: &SessionCache) -> ExitCode {
    let regenerated = dtu_bench::figures_json(cache, args.jobs);
    if let Some(path) = &args.write_golden {
        if let Err(e) = std::fs::write(path, format!("{regenerated}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("golden figures written to {path}");
        return ExitCode::SUCCESS;
    }
    let path = args.check_golden.as_deref().expect("validated");
    let golden = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read golden {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match dtu_harness::compare_golden(golden.trim_end(), &regenerated, dtu_harness::GOLDEN_RTOL) {
        Ok(()) => {
            println!("golden figures OK: {path} matches within 1e-9 relative tolerance");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "golden figure regression against {path}: {e}\n\
                 if the change is intentional, regenerate with\n\
                 \x20 topsexec sweep --write-golden {path}\n\
                 and commit the diff (see docs/CLI.md)"
            );
            ExitCode::FAILURE
        }
    }
}

fn run_sweep_cmd() -> ExitCode {
    let args = match parse_sweep_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", sweep_usage());
            return ExitCode::FAILURE;
        }
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", sweep_usage());
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.check_golden.is_some() || args.write_golden.is_some() {
        let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
        return run_golden(&args, &cache);
    }
    let mut grid = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", sweep_usage());
            return ExitCode::FAILURE;
        };
        grid.push(SweepModel::new(name.clone(), move |b| m.build(b)));
    }
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let started = std::time::Instant::now();
    let report = match run_sweep(&accel, &grid, &args.batches, &cache, args.jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep error: {e}");
            if matches!(e, HarnessError::Config(_)) {
                eprintln!("\n{}", sweep_usage());
            }
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report itself is schedule-independent and goes to stdout;
    // anything wall-clock-dependent stays on stderr so json output can
    // be compared byte-for-byte between runs.
    match args.format.as_str() {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.to_table()),
    }
    eprintln!(
        "[sweep] {} points ({} models x {} batches) on {} workers \
         in {wall_ms:.0} ms; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.batches.len(),
        args.jobs,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    ExitCode::SUCCESS
}

struct FaultsArgs {
    models: Vec<String>,
    plans: Vec<String>,
    severities: Vec<f64>,
    seed: u64,
    chip: String,
    jobs: usize,
    format: String,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
}

fn parse_faults_args() -> Result<FaultsArgs, String> {
    let mut args = FaultsArgs {
        models: Vec::new(),
        plans: vec![
            "none".into(),
            "core-failure".into(),
            "ecc".into(),
            "dma-stall".into(),
            "thermal".into(),
        ],
        severities: vec![0.5, 1.0],
        seed: 7,
        chip: "i20".into(),
        jobs: available_jobs(),
        format: "json".into(),
        cache_dir: None,
        disk_cache: true,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--models" | "--model" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--plans" | "--plan" => {
                args.plans = value("--plans")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--severities" | "--severity" => {
                args.severities = value("--severities")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("bad severity '{}'", s.trim()))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--chip" => args.chip = value("--chip")?,
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?
            }
            "--format" => args.format = value("--format")?,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            name if !name.starts_with('-') => args.models.push(name.to_string()),
            other => return Err(format!("unknown faults flag '{other}'")),
        }
    }
    if args.models.is_empty() {
        args.models.push("resnet50".into());
    }
    if args.plans.is_empty() || args.severities.is_empty() {
        return Err("faults needs at least one plan and one severity".into());
    }
    if !matches!(args.format.as_str(), "table" | "json") {
        return Err(format!(
            "--format must be table or json, got '{}'",
            args.format
        ));
    }
    Ok(args)
}

fn run_faults() -> ExitCode {
    let args = match parse_faults_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut grid = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", usage());
            return ExitCode::FAILURE;
        };
        grid.push(SweepModel::new(name.clone(), move |b| m.build(b)));
    }
    let plans: Vec<&str> = args.plans.iter().map(String::as_str).collect();
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);

    let started = std::time::Instant::now();
    let report = match run_fault_sweep(
        &accel,
        &grid,
        &plans,
        &args.severities,
        args.seed,
        &cache,
        args.jobs,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("faults error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Like `sweep`: the report is schedule-independent and goes to
    // stdout, so two runs of the same grid and seed are byte-identical;
    // wall-clock chatter stays on stderr.
    match args.format.as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[faults] {} points ({} models x {} plans x {} severities) on {} workers in {:.0} ms; \
         availability {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        args.jobs,
        elapsed_ms,
        report.availability() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    ExitCode::SUCCESS
}

struct TopArgs {
    models: Vec<String>,
    qps: f64,
    duration_ms: f64,
    max_batch: usize,
    batch_timeout_ms: f64,
    deadline_ms: f64,
    queue_depth: usize,
    bursty: bool,
    autoscale: bool,
    seed: u64,
    chip: String,
    plan: String,
    severity: f64,
    once: bool,
    span_s: f64,
    refresh_ms: u64,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
}

fn parse_top_args() -> Result<TopArgs, String> {
    let mut args = TopArgs {
        models: vec!["resnet50".into(), "bert".into()],
        qps: 400.0,
        duration_ms: 10_000.0,
        max_batch: 8,
        batch_timeout_ms: 2.0,
        deadline_ms: 50.0,
        queue_depth: 64,
        bursty: false,
        autoscale: true,
        seed: 0x5EED,
        chip: "i20".into(),
        plan: "none".into(),
        severity: 1.0,
        once: false,
        span_s: 5.0,
        refresh_ms: 150,
        cache_dir: None,
        disk_cache: true,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} needs a number"))
        }
        match a.as_str() {
            "--models" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--qps" => args.qps = num("--qps", value("--qps")?)?,
            "--duration" => args.duration_ms = num("--duration", value("--duration")?)?,
            "--max-batch" => args.max_batch = num("--max-batch", value("--max-batch")?)?,
            "--batch-timeout" => {
                args.batch_timeout_ms = num("--batch-timeout", value("--batch-timeout")?)?
            }
            "--deadline" => args.deadline_ms = num("--deadline", value("--deadline")?)?,
            "--queue-depth" => args.queue_depth = num("--queue-depth", value("--queue-depth")?)?,
            "--bursty" => args.bursty = true,
            "--no-autoscale" => args.autoscale = false,
            "--seed" => args.seed = num("--seed", value("--seed")?)?,
            "--chip" => args.chip = value("--chip")?,
            "--plan" => args.plan = value("--plan")?,
            "--severity" => args.severity = num("--severity", value("--severity")?)?,
            "--once" => args.once = true,
            "--span" => args.span_s = num("--span", value("--span")?)?,
            "--refresh-ms" => args.refresh_ms = num("--refresh-ms", value("--refresh-ms")?)?,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown top flag '{other}'")),
        }
    }
    if args.models.is_empty() {
        return Err("--models needs at least one model name".into());
    }
    if args.span_s <= 0.0 {
        return Err("--span must be positive".into());
    }
    Ok(args)
}

/// Whether tenant `idx`'s burn-rate alert is firing at simulated time
/// `t_ns`, reconstructed from the alert log (the tracker only holds
/// end-of-run state, and `top` replays history).
fn firing_at(mon: &LiveMonitor, idx: usize, t_ns: f64) -> bool {
    let mut firing = false;
    for (tenant, a) in &mon.alerts {
        if *tenant != idx || a.t_ns > t_ns {
            continue;
        }
        match a.kind {
            dtu::telemetry::AlertKind::BurnRate => firing = true,
            dtu::telemetry::AlertKind::Resolved => firing = false,
            dtu::telemetry::AlertKind::Fault => {}
        }
    }
    firing
}

/// One dashboard frame at simulated time `t_ns`, rows aggregated over
/// the trailing `span_ns`.
fn render_top(mon: &LiveMonitor, t_ns: f64, span_ns: f64) -> String {
    use std::fmt::Write;
    let alerts = mon.alerts.iter().filter(|(_, a)| a.t_ns <= t_ns).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "t={:.0}s  window={:.0}s  alerts={alerts}",
        t_ns / 1e9,
        span_ns / 1e9
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>9} {:>9} {:>6} {:>8} {:>8} {:>6}",
        "tenant",
        "qps",
        "shed/s",
        "drop/s",
        "p50(ms)",
        "p99(ms)",
        "batch",
        "burn5s",
        "burn60s",
        "alert"
    );
    for (idx, ten) in mon.tenants().iter().enumerate() {
        let r = ten.row(t_ns, span_ns);
        let _ = writeln!(
            out,
            "{:<12} {:>8.0} {:>8.1} {:>8.1} {:>9.3} {:>9.3} {:>6.2} {:>8.2} {:>8.2} {:>6}",
            r.name,
            r.qps,
            r.shed_rate,
            r.drop_rate,
            r.p50_ms,
            r.p99_ms,
            r.mean_batch,
            r.burn_fast,
            r.burn_slow,
            if firing_at(mon, idx, t_ns) {
                "FIRE"
            } else {
                "-"
            }
        );
    }
    out
}

fn run_top() -> ExitCode {
    let args = match parse_top_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let mut models = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", usage());
            return ExitCode::FAILURE;
        };
        models.push(
            CompiledModel::new(accel.chip(), name.clone(), move |b| m.build(b)).with_source(&cache),
        );
    }

    let chip = accel.config();
    let faults = match FaultPlan::preset(
        &args.plan,
        args.seed,
        args.severity,
        chip.clusters,
        chip.groups_per_cluster,
        args.duration_ms * 1e6,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let gpc = chip.groups_per_cluster;
    let cfg = ServeConfig {
        duration_ms: args.duration_ms,
        seed: args.seed,
        record_requests: false,
        faults,
        retry: Default::default(),
        tenants: (0..models.len())
            .map(|i| TenantSpec {
                name: args.models[i].clone(),
                model: i,
                arrival: if args.bursty {
                    ArrivalProcess::Bursty {
                        base_qps: 0.5 * args.qps,
                        burst_qps: 2.5 * args.qps,
                        mean_dwell_ms: args.duration_ms / 8.0,
                    }
                } else {
                    ArrivalProcess::Poisson { qps: args.qps }
                },
                batch: if args.max_batch > 1 {
                    BatchPolicy::dynamic(args.max_batch, args.batch_timeout_ms)
                } else {
                    BatchPolicy::none()
                },
                sla: SlaPolicy::new(args.deadline_ms, args.queue_depth),
                scale: if args.autoscale {
                    ScalePolicy::elastic(args.deadline_ms / 4.0, args.deadline_ms / 20.0, gpc)
                } else {
                    ScalePolicy::none()
                },
                cluster: None,
                initial_groups: 1,
            })
            .collect(),
    };

    eprintln!(
        "[top] {} tenants ({}), {:.0} qps each, {:.0} ms horizon, plan {} s{:.2}, \
         SLO p99 < {:.0} ms",
        cfg.tenants.len(),
        args.models.join(", "),
        args.qps,
        args.duration_ms,
        args.plan,
        args.severity,
        args.deadline_ms
    );

    let mut mon = LiveMonitor::new(LiveConfig {
        slo: Some(SloSpec::new(
            format!("p99<{:.0}ms", args.deadline_ms),
            0.99,
            args.deadline_ms,
        )),
        ..LiveConfig::default()
    });
    let mut refs: Vec<&mut dyn ServiceModel> = models
        .iter_mut()
        .map(|m| m as &mut dyn ServiceModel)
        .collect();
    let aborted = match run_serving_live(&cfg, accel.config(), &mut refs, &mut mon) {
        Ok(_) => None,
        // A fault killed a tenant's last group: the dashboard still
        // shows everything the monitor saw up to the outage.
        Err(ServeError::Sim(dtu_sim::SimError::Fault(e))) => Some(e.to_string()),
        Err(e) => {
            eprintln!("top error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let span_ns = args.span_s * 1e9;
    let end_ns = mon.now_ns();
    if args.once {
        print!("{}", render_top(&mon, end_ns, span_ns));
    } else {
        // The run is already simulated; replay it one evaluation
        // window per frame against the retained rings.
        let frames = (end_ns / 1e9).ceil().max(1.0) as u64;
        for f in 1..=frames {
            let t_ns = (f as f64 * 1e9).min(end_ns);
            print!("\x1b[2J\x1b[H{}", render_top(&mon, t_ns, span_ns));
            use std::io::Write;
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_millis(args.refresh_ms));
        }
    }
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
    ExitCode::SUCCESS
}

/// Whether a generative burn-rate alert for objective `slo` is firing
/// at simulated time `t_ns`, replayed from the alert log (like
/// [`firing_at`], but objectives are named, not indexed).
fn gen_firing_at(mon: &GenMonitor, slo: &str, t_ns: f64) -> bool {
    let mut firing = false;
    for a in &mon.alerts {
        if a.slo != slo || a.t_ns > t_ns {
            continue;
        }
        match a.kind {
            dtu::telemetry::AlertKind::BurnRate => firing = true,
            dtu::telemetry::AlertKind::Resolved => firing = false,
            dtu::telemetry::AlertKind::Fault => {}
        }
    }
    firing
}

/// One generative dashboard frame at simulated time `t_ns`: the
/// engine-level gauges (QPS, active batch, KV occupancy, spill,
/// preemptions) plus one row per TTFT/TPOT objective.
fn render_gen_top(mon: &GenMonitor, t_ns: f64, span_ns: f64) -> String {
    use std::fmt::Write;
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
    let rows = [
        (
            "ttft",
            &mon.ttft_slo,
            r.ttft_p50_ms,
            r.ttft_p99_ms,
            r.ttft_burn_fast,
            r.ttft_burn_slow,
        ),
        (
            "tpot",
            &mon.tpot_slo,
            r.tpot_p50_ms,
            r.tpot_p99_ms,
            r.tpot_burn_fast,
            r.tpot_burn_slow,
        ),
    ];
    for (metric, tracker, p50, p99, burn_fast, burn_slow) in rows {
        let (name, fire) = match tracker {
            Some(t) => (
                t.spec.name.clone(),
                if gen_firing_at(mon, &t.spec.name, t_ns) {
                    "FIRE"
                } else {
                    "-"
                },
            ),
            None => (metric.to_string(), "off"),
        };
        let _ = writeln!(
            out,
            "{:<20} {:>9.3} {:>9.3} {:>8.2} {:>8.2} {:>6}",
            name, p50, p99, burn_fast, burn_slow, fire
        );
    }
    out
}

fn run_gen_top() -> ExitCode {
    let args = match parse_genserve_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(gen_cfg) = gen_model_by_name(&args.gen_model) else {
        eprintln!(
            "error: unknown generative model '{}' (use gpt1b or tiny)\n\n{}",
            args.gen_model,
            usage()
        );
        return ExitCode::FAILURE;
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = gen_scenario(&args, &accel, &gen_cfg);

    eprintln!(
        "[top --generative] {} at {:.0} qps over {:.0} ms, concurrency {}, \
         KV pool {} pages; SLOs ttft p99 < {:.0} ms, tpot p99 < {:.0} ms",
        args.gen_model,
        args.qps,
        args.duration_ms,
        args.max_concurrency,
        scenario.kv.total_pages,
        args.ttft_deadline_ms,
        args.tpot_deadline_ms
    );

    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let mut mon = GenMonitor::new(gen_live_config(&args));
    if let Err(e) = dtu_harness::run_generative_serve_live(
        &accel, &gen_cfg, &scenario, &cache, args.jobs, &mut mon,
    ) {
        eprintln!("top error: {e}");
        return ExitCode::FAILURE;
    }

    let span_ns = args.span_s * 1e9;
    let end_ns = mon.now_ns();
    if args.once {
        print!("{}", render_gen_top(&mon, end_ns, span_ns));
    } else {
        // The run is already simulated; replay it one evaluation
        // window per frame against the retained rings.
        let frames = (end_ns / 1e9).ceil().max(1.0) as u64;
        for f in 1..=frames {
            let t_ns = (f as f64 * 1e9).min(end_ns);
            print!("\x1b[2J\x1b[H{}", render_gen_top(&mon, t_ns, span_ns));
            use std::io::Write;
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_millis(args.refresh_ms));
        }
    }
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
    ExitCode::SUCCESS
}

struct SloArgs {
    models: Vec<String>,
    plans: Vec<String>,
    severities: Vec<f64>,
    seed: u64,
    chip: String,
    jobs: usize,
    format: String,
    flight_out: Option<String>,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
}

fn parse_slo_args() -> Result<SloArgs, String> {
    let mut args = SloArgs {
        models: Vec::new(),
        plans: vec!["none".into()],
        severities: vec![1.0],
        seed: 7,
        chip: "i20".into(),
        jobs: available_jobs(),
        format: "json".into(),
        flight_out: None,
        cache_dir: None,
        disk_cache: true,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--models" | "--model" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--plans" | "--plan" => {
                args.plans = value("--plans")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--severities" | "--severity" => {
                args.severities = value("--severities")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| format!("bad severity '{}'", s.trim()))
                    })
                    .collect::<Result<_, _>>()?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--chip" => args.chip = value("--chip")?,
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?
            }
            "--format" => args.format = value("--format")?,
            "--flight-out" => args.flight_out = Some(value("--flight-out")?),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--help" | "-h" => return Err(String::new()),
            name if !name.starts_with('-') => args.models.push(name.to_string()),
            other => return Err(format!("unknown slo flag '{other}'")),
        }
    }
    if args.models.is_empty() {
        args.models.push("resnet50".into());
    }
    if args.plans.is_empty() || args.severities.is_empty() {
        return Err("slo needs at least one plan and one severity".into());
    }
    if !matches!(args.format.as_str(), "table" | "json") {
        return Err(format!(
            "--format must be table or json, got '{}'",
            args.format
        ));
    }
    Ok(args)
}

fn run_slo() -> ExitCode {
    let args = match parse_slo_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut grid = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", usage());
            return ExitCode::FAILURE;
        };
        grid.push(SweepModel::new(name.clone(), move |b| m.build(b)));
    }
    let plans: Vec<&str> = args.plans.iter().map(String::as_str).collect();
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let scenario = SloScenario::default();

    let started = std::time::Instant::now();
    let report = match run_slo_sweep(
        &accel,
        &grid,
        &plans,
        &args.severities,
        args.seed,
        &scenario,
        &cache,
        args.jobs,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("slo error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // The report is schedule-independent and goes to stdout, so two
    // runs of the same grid and seed are byte-identical; wall-clock
    // chatter stays on stderr.
    match args.format.as_str() {
        "table" => print!("{}", report.to_table()),
        _ => println!("{}", report.to_json()),
    }
    eprintln!(
        "[slo] {} points ({} models x {} plans x {} severities) on {} workers in {:.0} ms; \
         compliance {:.1}%; cache: {} memory + {} disk hits, {} misses",
        report.points.len(),
        report.models.len(),
        report.plans.len(),
        report.severities.len(),
        args.jobs,
        elapsed_ms,
        report.compliance() * 100.0,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );

    if let Some(path) = &args.flight_out {
        // Re-run the first grid point with its content-derived seed
        // (warm cache, so this is cheap) to recover the monitor and
        // its flight recorder.
        let seed = slo_point_seed(grid[0].name(), plans[0], args.severities[0], args.seed);
        let (_, mut mon) = match run_slo_scenario(
            &accel,
            &grid[0],
            plans[0],
            args.severities[0],
            seed,
            &scenario,
            &cache,
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("slo error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if mon.flight.dumps().is_empty() {
            // Nothing went wrong: snapshot the ring at end of run so
            // the flag always produces a trace.
            let end_ns = mon.now_ns();
            mon.flight.trigger("end-of-run snapshot", end_ns);
        }
        let dump = mon.flight.dumps().first().expect("just ensured");
        if let Err(e) = std::fs::write(path, dump.to_chrome_trace(true)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[slo] flight dump `{}` ({} spans at t={:.2}s) written to {path}",
            dump.reason,
            dump.spans.len(),
            dump.at_ns / 1e9
        );
    }
    ExitCode::SUCCESS
}

struct ProfileArgs {
    model: Option<String>,
    import: Option<String>,
    batch: usize,
    chip: String,
    groups: Option<usize>,
    trace_out: String,
    format: String,
    no_power_management: bool,
}

fn parse_profile_args() -> Result<ProfileArgs, String> {
    let mut args = ProfileArgs {
        model: None,
        import: None,
        batch: 1,
        chip: "i20".into(),
        groups: None,
        trace_out: "topsexec.trace.json".into(),
        format: "table".into(),
        no_power_management: false,
    };
    let mut it = std::env::args().skip(2);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--model" => args.model = Some(value("--model")?),
            "--import" => args.import = Some(value("--import")?),
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch needs an integer".to_string())?
            }
            "--chip" => args.chip = value("--chip")?,
            "--groups" => {
                args.groups = Some(
                    value("--groups")?
                        .parse()
                        .map_err(|_| "--groups needs an integer".to_string())?,
                )
            }
            "--trace-out" | "--trace" => args.trace_out = value("--trace-out")?,
            "--format" => args.format = value("--format")?,
            "--no-power-management" => args.no_power_management = true,
            "--help" | "-h" => return Err(String::new()),
            name if !name.starts_with('-') && args.model.is_none() => {
                args.model = Some(name.to_string())
            }
            other => return Err(format!("unknown profile flag '{other}'")),
        }
    }
    if args.model.is_none() == args.import.is_none() {
        return Err("profile needs a model name or --import <file>".into());
    }
    if !matches!(args.format.as_str(), "table" | "prometheus" | "json") {
        return Err(format!(
            "--format must be table, prometheus, or json, got '{}'",
            args.format
        ));
    }
    Ok(args)
}

fn run_profile() -> ExitCode {
    let args = match parse_profile_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let graph = match load_graph(args.model.as_deref(), args.import.as_deref(), args.batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.no_power_management {
        chip_cfg.features.power_management = false;
    }
    let accel = match Accelerator::with_config(chip_cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let size = match workload_size(args.groups) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = SessionOptions {
        size,
        batch: args.batch,
        ..Default::default()
    };

    // Compiler phases, the session envelope, and the simulator's
    // kernel/DMA/sync spans all land in one buffer on one clock.
    let mut buf = TraceBuffer::new();
    let session = match Session::compile_recorded(&accel, &graph, options, &mut buf) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match session.run_recorded(&mut buf) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let groups = args.groups.unwrap_or_else(|| accel.config().total_groups());
    // The compiler lowers to fp16 by default; fold the Table I
    // throughput ratio into the roofline peak.
    let machine = accel
        .config()
        .machine_spec(groups, DataType::Fp16.ops_multiplier());
    let attr = AttributionReport::from_spans(buf.spans(), report.raw().latency_ns, machine);
    for s in attr.operator_spans() {
        buf.record(s);
    }

    if let Err(e) = std::fs::write(&args.trace_out, buf.to_chrome_trace(true)) {
        eprintln!("error: cannot write {}: {e}", args.trace_out);
        return ExitCode::FAILURE;
    }

    println!("=== topsexec profile ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!(
        "run         : {:.3} ms, {} operator segments, {} spans",
        report.latency_ms(),
        attr.ops.len(),
        buf.len()
    );
    println!(
        "trace       : {} (open in Perfetto / chrome://tracing)",
        args.trace_out
    );
    println!();
    match args.format.as_str() {
        "prometheus" => print!("{}", attr.to_prometheus()),
        "json" => println!("{}", attr.to_json()),
        _ => print!("{}", attr.to_table()),
    }
    ExitCode::SUCCESS
}

struct FleetArgs {
    models: Vec<String>,
    chips: usize,
    cards: usize,
    qps: Option<f64>,
    duration_ms: f64,
    epoch_ms: f64,
    replicas: usize,
    deadline_ms: f64,
    queue_depth: usize,
    cells: usize,
    roll: bool,
    roll_start: Option<f64>,
    roll_chips: Option<usize>,
    kill_chip: Option<usize>,
    kill_at: Option<f64>,
    seed: u64,
    chip: String,
    jobs: usize,
    format: String,
    cache_dir: Option<PathBuf>,
    disk_cache: bool,
    top: bool,
    once: bool,
    refresh_ms: u64,
    slo: bool,
    monitor: bool,
    flight_out: Option<String>,
}

fn parse_fleet_args() -> Result<FleetArgs, String> {
    let mut args = FleetArgs {
        models: Vec::new(),
        chips: 4,
        cards: 1,
        qps: None,
        duration_ms: 10_000.0,
        epoch_ms: 1_000.0,
        replicas: 0,
        deadline_ms: 50.0,
        queue_depth: 256,
        cells: 2,
        roll: true,
        roll_start: None,
        roll_chips: None,
        kill_chip: None,
        kill_at: None,
        seed: 7,
        chip: "i20".into(),
        jobs: available_jobs(),
        format: "json".into(),
        cache_dir: None,
        disk_cache: true,
        top: false,
        once: false,
        refresh_ms: 150,
        slo: false,
        monitor: false,
        flight_out: None,
    };
    let mut it = std::env::args().skip(2).peekable();
    // `topsexec fleet top ...` is the dashboard form of the command.
    if it.peek().map(String::as_str) == Some("top") {
        it.next();
        args.top = true;
    }
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let parse_num = |flag: &str, v: String| -> Result<f64, String> {
            v.parse().map_err(|_| format!("{flag} needs a number"))
        };
        let parse_int = |flag: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|_| format!("{flag} needs an integer"))
        };
        match a.as_str() {
            "--models" | "--model" => {
                args.models = value("--models")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--chips" => args.chips = parse_int("--chips", value("--chips")?)?,
            "--cards" => args.cards = parse_int("--cards", value("--cards")?)?,
            "--qps" => args.qps = Some(parse_num("--qps", value("--qps")?)?),
            "--duration" => args.duration_ms = parse_num("--duration", value("--duration")?)?,
            "--epoch" => args.epoch_ms = parse_num("--epoch", value("--epoch")?)?,
            "--replicas" => args.replicas = parse_int("--replicas", value("--replicas")?)?,
            "--deadline" => args.deadline_ms = parse_num("--deadline", value("--deadline")?)?,
            "--queue-depth" => {
                args.queue_depth = parse_int("--queue-depth", value("--queue-depth")?)?
            }
            "--cells" => args.cells = parse_int("--cells", value("--cells")?)?,
            "--no-roll" => args.roll = false,
            "--roll-start" => {
                args.roll_start = Some(parse_num("--roll-start", value("--roll-start")?)?)
            }
            "--roll-chips" => {
                args.roll_chips = Some(parse_int("--roll-chips", value("--roll-chips")?)?)
            }
            "--kill-chip" => {
                args.kill_chip = Some(parse_int("--kill-chip", value("--kill-chip")?)?)
            }
            "--kill-at" => args.kill_at = Some(parse_num("--kill-at", value("--kill-at")?)?),
            "--seed" => args.seed = parse_int("--seed", value("--seed")?)? as u64,
            "--chip" => args.chip = value("--chip")?,
            "--jobs" | "-j" => args.jobs = parse_int("--jobs", value("--jobs")?)?,
            "--format" => args.format = value("--format")?,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--no-disk-cache" => args.disk_cache = false,
            "--once" => args.once = true,
            "--refresh-ms" => {
                args.refresh_ms = parse_int("--refresh-ms", value("--refresh-ms")?)? as u64
            }
            "--slo" => args.slo = true,
            "--monitor" => args.monitor = true,
            "--flight-out" => args.flight_out = Some(value("--flight-out")?),
            "--help" | "-h" => return Err(String::new()),
            name if !name.starts_with('-') => args.models.push(name.to_string()),
            other => return Err(format!("unknown fleet flag '{other}'")),
        }
    }
    if args.models.is_empty() {
        args.models.push("resnet50".into());
    }
    if args.chips == 0 {
        return Err("--chips must be at least 1".into());
    }
    if args.cards == 0 {
        return Err("--cards must be at least 1".into());
    }
    if !args.chips.is_multiple_of(args.cards) {
        return Err(format!(
            "--chips {} must divide evenly over --cards {}",
            args.chips, args.cards
        ));
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if !matches!(args.format.as_str(), "table" | "json" | "prom") {
        return Err(format!(
            "--format must be table, json, or prom, got '{}'",
            args.format
        ));
    }
    if args.once && !args.top {
        return Err("--once only applies to `fleet top`".into());
    }
    Ok(args)
}

/// One fleet dashboard frame: per-tenant then per-chip rows aggregated
/// over the trailing fast burn window.
fn render_fleet_top(frame: &FleetFrame) -> String {
    use std::fmt::Write;
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
            t.p99_ms,
            t.burn_fast,
            t.burn_slow,
            if t.firing { "FIRE" } else { "-" }
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

/// Stderr chatter for a monitored fleet run: alerts, offenders, dumps.
fn report_fleet_monitor(mon: &FleetMonitor) {
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
}

fn run_fleet_cmd() -> ExitCode {
    let args = match parse_fleet_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", fleet_usage());
            return ExitCode::FAILURE;
        }
    };
    let chip_cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", fleet_usage());
            return ExitCode::FAILURE;
        }
    };
    let topology = match FleetTopology::homogeneous(args.cards, args.chips / args.cards, &chip_cfg)
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", fleet_usage());
            return ExitCode::FAILURE;
        }
    };
    let qps_total = args.qps.unwrap_or(7_500.0 * topology.len() as f64);
    let qps_per_model = qps_total / args.models.len() as f64;
    let mut tenants = Vec::new();
    for name in &args.models {
        let Some(m) = model_by_name(name) else {
            eprintln!("error: unknown model '{name}'\n\n{}", fleet_usage());
            return ExitCode::FAILURE;
        };
        let mut tenant = FleetTenant::new(
            SweepModel::new(name.clone(), move |b| m.build(b)),
            qps_per_model,
        );
        tenant.replicas = args.replicas;
        tenant.deadline_ms = args.deadline_ms;
        tenant.queue_depth = args.queue_depth;
        tenants.push(tenant);
    }
    let cache = artifact_cache(args.cache_dir.as_ref(), args.disk_cache);
    let cfg = FleetConfig {
        duration_ms: args.duration_ms,
        epoch_ms: args.epoch_ms,
        seed: args.seed,
        cells_per_replica: args.cells,
        roll: args.roll.then(|| {
            RollPlan::new(
                args.roll_start.unwrap_or(args.duration_ms * 0.2),
                args.roll_chips
                    .unwrap_or_else(|| (topology.len() / 4).max(1)),
            )
        }),
        kill: args.kill_chip.map(|chip| ChipKill {
            chip,
            at_ms: args.kill_at.unwrap_or(args.duration_ms * 0.5),
        }),
    };

    // The dashboard, compliance report, and flight dump all need the
    // fleet monitor; a plain run skips it entirely. Either way the
    // stdout report is byte-identical — the monitor is observational.
    let monitored = args.top || args.slo || args.monitor || args.flight_out.is_some();
    let started = std::time::Instant::now();
    let result = if monitored {
        run_fleet_monitored(&topology, &tenants, &cfg, &cache, args.jobs).map(|(r, m)| (r, Some(m)))
    } else {
        run_fleet(&topology, &tenants, &cfg, &cache, args.jobs).map(|r| (r, None))
    };
    let (report, monitor) = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fleet error: {e}");
            if matches!(e, FleetError::Config(_)) {
                eprintln!("\n{}", fleet_usage());
            }
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;

    // Everything on stdout is schedule-independent; the wall-clock
    // chatter and cache tally stay on stderr.
    if args.top {
        let mon = monitor.as_ref().expect("top runs monitored");
        if args.once {
            if let Some(f) = mon.frames().last() {
                print!("{}", render_fleet_top(f));
            }
        } else {
            // The run is already simulated; replay it one routing
            // epoch per frame against the retained rollups.
            for f in mon.frames() {
                print!("\x1b[2J\x1b[H{}", render_fleet_top(f));
                use std::io::Write;
                let _ = std::io::stdout().flush();
                std::thread::sleep(std::time::Duration::from_millis(args.refresh_ms));
            }
        }
    } else if args.slo {
        let mon = monitor.as_ref().expect("--slo runs monitored");
        println!("{}", mon.compliance_json());
    } else {
        match args.format.as_str() {
            "table" => print!("{}", report.to_table()),
            "prom" => print!("{}", report.to_prometheus()),
            _ => println!("{}", report.to_json()),
        }
    }
    let availability = if report.offered == 0 {
        1.0
    } else {
        report.completed as f64 / report.offered as f64
    };
    eprintln!(
        "[fleet] {} chips x {} epochs on {} workers in {:.0} ms; {} offered, \
         availability {:.3}, {} lost / {} rolled; cache: {} memory + {} disk hits, {} misses",
        report.chips,
        report.epochs,
        args.jobs,
        elapsed_ms,
        report.offered,
        availability,
        report.chips_lost,
        report.chips_rolled,
        report.cache.memory_hits,
        report.cache.disk_hits,
        report.cache.misses
    );
    if let Some(mut mon) = monitor {
        report_fleet_monitor(&mon);
        if let Some(path) = &args.flight_out {
            if mon.dumps().is_empty() {
                // Nothing went wrong: freeze the worst-burning (or
                // first) chip's ring so the flag always yields a trace.
                let chip = mon.top_offenders(1).first().map_or(0, |o| o.chip);
                mon.snapshot_chip(chip, "end-of-run snapshot");
            }
            // A whole-chip loss is the incident the operator came for:
            // prefer its black box over an earlier burn-rate page.
            let dump = mon
                .dumps()
                .iter()
                .find(|d| d.reason.contains("killed"))
                .or_else(|| mon.dumps().first())
                .expect("just ensured");
            if let Err(e) = std::fs::write(path, dump.to_chrome_trace(true)) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[fleet] flight dump `{}` ({} spans at t={:.2}s) written to {path}",
                dump.reason,
                dump.spans.len(),
                dump.at_ns / 1e9
            );
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => {
            // `serve --generative` (or `--llm`) is the continuous-
            // batching token-level engine; plain `serve` stays the
            // multi-tenant request-level scenario.
            if std::env::args().any(|a| a == "--generative" || a == "--llm") {
                return run_genserve();
            }
            return run_serve();
        }
        Some("profile") => return run_profile(),
        Some("sweep") => return run_sweep_cmd(),
        Some("faults") => return run_faults(),
        Some("top") => {
            // `top --generative` (or `--llm`) replays the token-level
            // monitor; plain `top` stays the request-level dashboard.
            if std::env::args().any(|a| a == "--generative" || a == "--llm") {
                return run_gen_top();
            }
            return run_top();
        }
        Some("slo") => return run_slo(),
        Some("fleet") => return run_fleet_cmd(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };

    let graph = match load_graph(args.model.as_deref(), args.import.as_deref(), args.batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = match chip_by_name(&args.chip) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.no_power_management {
        cfg.features.power_management = false;
    }
    let accel = match Accelerator::with_config(cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let size = match workload_size(args.groups) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = SessionOptions {
        size,
        batch: args.batch,
        ..Default::default()
    };

    println!("=== topsexec ===");
    println!("accelerator : {accel}");
    println!("model       : {graph}");
    println!("batch       : {}", args.batch);

    let session = match Session::compile(&accel, &graph, options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "compiled    : {} commands over {} streams",
        session.program().total_commands(),
        session.program().streams.len()
    );

    let (report, timeline) = match session.run_traced() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("\n--- measurements ---");
    println!("latency      : {:.3} ms", report.latency_ms());
    println!("throughput   : {:.1} samples/s", report.throughput());
    println!("avg power    : {:.1} W", report.average_watts());
    println!("energy/sample: {:.4} J", 1.0 / report.samples_per_joule());
    println!("mean clock   : {:.0} MHz", report.mean_freq_mhz());
    let c = report.raw().counters;
    println!(
        "kernels      : {} launches, icache hit rate {:.0}%",
        c.kernel_launches,
        c.icache_hit_rate() * 100.0
    );
    println!(
        "dma          : {} transfers, {:.1} MiB on the wire",
        c.dma_transfers,
        c.dma_wire_bytes as f64 / (1024.0 * 1024.0)
    );

    if args.profile {
        println!("\n--- profile ---");
        println!("{}", timeline.report(10));
    }
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, timeline.to_chrome_trace()) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\ntrace written to {path} (open in chrome://tracing)");
    }
    ExitCode::SUCCESS
}
