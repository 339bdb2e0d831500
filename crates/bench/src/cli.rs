//! The one flag layer of every CLI binary: `topsexec` and the
//! `repro_*` binaries.
//!
//! A [`Flag`] is declared once: name, aliases, value kind, default and
//! help. A [`Command`] is a list of flag groups. [`parse`] checks every
//! value against its flag's [`Kind`] and returns typed [`Args`] or a
//! [`CliError`], and [`usage`] renders a command's usage text from the
//! same table. A value that a library call validates (arrival rates and
//! horizons, the fleet's QPS, epoch and kill target, sweep batch sizes,
//! fault-plan names) passes through as a plain number or word, so it is
//! checked in exactly one place.

use dtu_harness::{available_jobs, SessionCache};
use dtu_models::{GenerativeConfig, Model};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// No value: the flag is either present or absent.
    Switch,
    /// Any word, such as a path.
    Text,
    /// One of a fixed set of words.
    Choice(&'static [&'static str]),
    /// A Table III model name ([`model_by_name`]).
    Model,
    /// A generative transformer name ([`gen_model_by_name`]).
    GenModel,
    /// An integer in `min..=max`.
    Int {
        /// Smallest accepted value.
        min: u64,
        /// Largest accepted value.
        max: u64,
    },
    /// Any number, including non-finite ones; a library call checks it.
    Number,
    /// A positive, finite number.
    Positive,
    /// A number in `[0, 1]`.
    Unit,
    /// A number in `(0, 1]`.
    Share,
    /// A comma-separated list of at least one value of the inner kind.
    List(&'static Kind),
}

/// Any non-negative integer.
const INT: Kind = Kind::Int {
    min: 0,
    max: u64::MAX,
};
/// An integer of at least 1: a count that may not be zero.
const COUNT: Kind = Kind::Int {
    min: 1,
    max: u64::MAX,
};

impl Kind {
    /// Checks one raw value; the error says what is wrong with it.
    fn check(self, raw: &str) -> Result<(), String> {
        let number = |ok: fn(f64) -> bool| raw.parse().is_ok_and(ok);
        let (ok, expected) = match self {
            Kind::Switch | Kind::List(_) => unreachable!("{self:?} holds no single value"),
            Kind::Text => (true, String::new()),
            Kind::Choice(words) => (words.contains(&raw), format!("one of {}", words.join(", "))),
            Kind::Model if model_by_name(raw).is_none() => {
                return Err(format!("unknown model '{raw}' (use {MODEL_NAMES})"));
            }
            Kind::GenModel if gen_model_by_name(raw).is_none() => {
                return Err(format!(
                    "unknown generative model '{raw}' (use gpt1b or tiny)"
                ));
            }
            Kind::Model | Kind::GenModel => (true, String::new()),
            Kind::Int { min, max } => (
                raw.parse().is_ok_and(|n: u64| (min..=max).contains(&n)),
                match (min, max) {
                    (0, u64::MAX) => "a non-negative integer".into(),
                    (_, u64::MAX) => format!("an integer of at least {min}"),
                    _ => format!("an integer in {min}..={max}"),
                },
            ),
            Kind::Number => (number(|_| true), "a number".into()),
            Kind::Positive => (
                number(|x| x.is_finite() && x > 0.0),
                "a positive, finite number".into(),
            ),
            Kind::Unit => (
                number(|x| (0.0..=1.0).contains(&x)),
                "a number in [0, 1]".into(),
            ),
            Kind::Share => (number(|x| x > 0.0 && x <= 1.0), "a number in (0, 1]".into()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("needs {expected}, got '{raw}'"))
        }
    }

    /// Checks a raw value and splits it into its items: a list's
    /// comma-separated values, or the one value of any other kind.
    fn items(self, raw: &str) -> Result<Vec<String>, String> {
        let Kind::List(item) = self else {
            return self.check(raw).map(|()| vec![raw.to_string()]);
        };
        let items: Vec<String> = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        if items.is_empty() {
            return Err("needs at least one value".into());
        }
        items.iter().try_for_each(|i| item.check(i))?;
        Ok(items)
    }
}

/// One flag, declared once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flag {
    /// The flag itself, e.g. `--qps`.
    pub name: &'static str,
    /// Other spellings of it.
    pub aliases: &'static [&'static str],
    /// The value's placeholder in the usage text (empty for a switch).
    pub arg: &'static str,
    /// What the value must be.
    pub kind: Kind,
    /// The literal it holds when not given, checked like a given value.
    /// Without one the flag is optional, or its help says how the
    /// command works the value out.
    pub default: Option<&'static str>,
    /// One line of usage text.
    pub help: &'static str,
}

/// A flag without a value.
const fn switch(name: &'static str) -> Flag {
    value(name, "", Kind::Switch)
}

/// A flag taking a value of `kind`, shown as `arg` in the usage text.
const fn value(name: &'static str, arg: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        aliases: &[],
        arg,
        kind,
        default: None,
        help: "",
    }
}

/// A `--format` flag choosing among `formats` of the report on stdout.
const fn format_flag(formats: &'static [&'static str]) -> Flag {
    value("--format", "<fmt>", Kind::Choice(formats)).help("report format on stdout")
}

impl Flag {
    const fn alias(mut self, aliases: &'static [&'static str]) -> Flag {
        self.aliases = aliases;
        self
    }

    /// The flag with a literal default: one command's operating point.
    const fn or(mut self, value: &'static str) -> Flag {
        self.default = Some(value);
        self
    }

    const fn help(mut self, help: &'static str) -> Flag {
        self.help = help;
        self
    }

    /// Whether `arg` spells this flag.
    fn is(&self, arg: &str) -> bool {
        self.name == arg || self.aliases.contains(&arg)
    }
}

/// One command: the words that select it and the flags it takes.
#[derive(Debug)]
pub struct Command {
    /// How the command is invoked, e.g. `topsexec serve --generative`.
    pub name: &'static str,
    /// The usage line's arguments after the name.
    pub args: &'static str,
    /// One line on what the command does.
    pub about: &'static str,
    /// The flag bare arguments fill: a list flag collects them, a
    /// single-valued one takes the first.
    pub positional: Option<&'static str>,
    /// The flags, in groups shared between commands.
    pub groups: &'static [&'static [Flag]],
}

impl Command {
    /// Every flag the command takes, in usage order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    fn index(&self, name: &str) -> Option<usize> {
        self.flags().position(|f| f.name == name)
    }
}

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `-h` or `--help`: print the usage on stdout and succeed.
    Help,
    /// A flag no command takes.
    Unknown(String),
    /// A flag another command takes, given to one that does not.
    NotApplicable {
        /// The flag as given.
        flag: String,
        /// The command that does not take it.
        command: &'static str,
    },
    /// A bare argument the command has no place for.
    Unexpected(String),
    /// A value flag at the end of the line.
    MissingValue(&'static str),
    /// A value its flag's kind rejects.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// What is wrong with the value.
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::Unknown(flag) => write!(f, "unknown flag '{flag}'"),
            CliError::NotApplicable { flag, command } => {
                write!(f, "{flag} does not apply to `{command}`")
            }
            CliError::Unexpected(arg) => write!(f, "unexpected argument '{arg}'"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, reason } => write!(f, "{flag}: {reason}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A parsed command line: every flag of one command, given or
/// defaulted, as checked items (none for a present switch, one value,
/// or a list's values). The accessors convert them to typed values.
#[derive(Debug, Clone)]
pub struct Args {
    command: &'static Command,
    values: Vec<Option<Vec<String>>>,
}

impl Args {
    fn items(&self, name: &str) -> Option<&[String]> {
        let i = self
            .command
            .index(name)
            .unwrap_or_else(|| panic!("`{}` declares no flag {name}", self.command.name));
        self.values[i].as_deref()
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.items(name).is_some()
    }

    /// The value of an optional flag, `None` when not given.
    ///
    /// # Panics
    ///
    /// When the command does not declare the flag, or its kind admits
    /// values that are not a `T`: a mismatch between a command and its
    /// table.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.items(name).map(|items| typed(name, &items[0]))
    }

    /// The value of a flag with a default.
    ///
    /// # Panics
    ///
    /// As for [`Args::opt`], and when the flag has no value.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("{name} of `{}` has no value", self.command.name))
    }

    /// The values of a list flag with a default.
    ///
    /// # Panics
    ///
    /// As for [`Args::get`].
    pub fn list<T: FromStr>(&self, name: &str) -> Vec<T> {
        let items = self
            .items(name)
            .unwrap_or_else(|| panic!("{name} has no value"));
        items.iter().map(|item| typed(name, item)).collect()
    }
}

/// A checked item as a `T`.
fn typed<T: FromStr>(name: &str, item: &str) -> T {
    item.parse()
        .unwrap_or_else(|_| panic!("{name} item '{item}' is not of the type asked for"))
}

/// Parses `args` (without the words that selected the command) against
/// `command`'s table.
///
/// # Errors
///
/// [`CliError::Help`] for `-h`/`--help`; otherwise the first flag,
/// value or argument the table rejects.
pub fn parse<I: IntoIterator<Item = String>>(
    command: &'static Command,
    args: I,
) -> Result<Args, CliError> {
    let flags: Vec<&Flag> = command.flags().collect();
    let mut values: Vec<Option<Vec<String>>> = vec![None; flags.len()];
    let positional = command.positional.and_then(|name| command.index(name));
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "-h" || arg == "--help" {
            return Err(CliError::Help);
        }
        if let Some(i) = flags.iter().position(|f| f.is(&arg)) {
            let flag = flags[i];
            values[i] = Some(match flag.kind {
                Kind::Switch => Vec::new(),
                kind => {
                    let raw = it.next().ok_or(CliError::MissingValue(flag.name))?;
                    kind.items(&raw).map_err(|reason| CliError::BadValue {
                        flag: flag.name,
                        reason,
                    })?
                }
            });
        } else if let (Some(i), false) = (positional, arg.starts_with('-')) {
            // A bare argument adds to a list flag, or fills a
            // single-valued one not yet given.
            let flag = flags[i];
            let item = match flag.kind {
                Kind::List(item) => *item,
                kind => kind,
            };
            item.check(&arg).map_err(|reason| CliError::BadValue {
                flag: flag.name,
                reason,
            })?;
            match (&mut values[i], flag.kind) {
                (Some(items), Kind::List(_)) => items.push(arg),
                (slot @ None, _) => *slot = Some(vec![arg]),
                (Some(_), _) => return Err(CliError::Unexpected(arg)),
            }
        } else if !arg.starts_with('-') {
            return Err(CliError::Unexpected(arg));
        } else if COMMANDS.iter().any(|c| c.flags().any(|f| f.is(&arg))) {
            return Err(CliError::NotApplicable {
                flag: arg,
                command: command.name,
            });
        } else {
            return Err(CliError::Unknown(arg));
        }
    }
    for (flag, slot) in flags.iter().zip(&mut values) {
        if let (None, Some(raw)) = (&slot, flag.default) {
            let items = flag.kind.items(raw);
            *slot = Some(items.unwrap_or_else(|e| panic!("default of {}: {e}", flag.name)));
        }
    }
    Ok(Args { command, values })
}

/// `-h` / `--help`, which every command takes.
const HELP: Flag = switch("-h")
    .alias(&["--help"])
    .help("print this usage and exit");
/// Where the help column of the usage text starts.
const HELP_COLUMN: usize = 30;
/// Where the usage text wraps.
const WIDTH: usize = 80;

/// `command`'s usage text, generated from its table. The default
/// `topsexec` run also lists every other `topsexec` command.
pub fn usage(command: &Command) -> String {
    let mut out = format!(
        "usage: {} {}\n\n{}\n\noptions:\n",
        command.name, command.args, command.about
    );
    for flag in command.flags().chain([&HELP]) {
        let mut left = format!("  {}", flag.name);
        for alias in flag.aliases {
            left += &format!(", {alias}");
        }
        if !flag.arg.is_empty() {
            left += &format!(" {}", flag.arg);
        }
        let text = match flag.default {
            Some(v) => format!("{} (default {v})", flag.help),
            None => flag.help.to_string(),
        };
        let mut line = if left.len() + 2 > HELP_COLUMN {
            format!("{left}\n{:HELP_COLUMN$}", "")
        } else {
            format!("{left:HELP_COLUMN$}")
        };
        let mut width = HELP_COLUMN;
        for word in text.split(' ') {
            if width > HELP_COLUMN && width + 1 + word.len() > WIDTH {
                line += &format!("\n{:HELP_COLUMN$}", "");
                width = HELP_COLUMN;
            }
            if width > HELP_COLUMN {
                line.push(' ');
                width += 1;
            }
            line += word;
            width += word.len();
        }
        out += &line;
        out.push('\n');
    }
    if std::ptr::eq(command, &RUN) {
        out += "\ncommands (each takes -h for its own options):\n";
        for other in COMMANDS.iter().filter(|c| c.name.starts_with("topsexec ")) {
            out += &format!("  {} {}\n", other.name, other.args);
        }
    }
    out
}

/// Parses `std::env::args()` past `skip` words for `command`. On
/// `--help` prints the usage on stdout and exits 0; on an error prints
/// it with the usage on stderr and exits 1.
pub fn parse_or_exit(command: &'static Command, skip: usize) -> Args {
    match parse(command, std::env::args().skip(skip)) {
        Ok(args) => args,
        Err(CliError::Help) => {
            print!("{}", usage(command));
            std::process::exit(0)
        }
        Err(e) => exit_with_usage(command, &e),
    }
}

/// Prints `error` and `command`'s usage on stderr, then exits 1.
pub fn exit_with_usage(command: &Command, error: &dyn fmt::Display) -> ! {
    eprintln!("error: {error}\n\n{}", usage(command));
    std::process::exit(1)
}

/// The worker count `--jobs` asks for (default: every core).
pub fn jobs(args: &Args) -> usize {
    args.opt("--jobs").unwrap_or_else(available_jobs)
}

/// The compiled-session cache `--cache-dir` / `--no-disk-cache` ask for.
pub fn session_cache(args: &Args) -> SessionCache {
    if args.switch("--no-disk-cache") {
        return SessionCache::memory_only();
    }
    let dir = args.opt::<String>("--cache-dir").map(PathBuf::from);
    SessionCache::with_disk(dir.unwrap_or_else(SessionCache::default_disk_dir))
}

/// The names [`model_by_name`] knows, one per Table III model.
const MODEL_NAMES: &str =
    "yolov3, centernet, retinaface, vgg16, resnet50, inceptionv4, unet, srresnet, bert, conformer";

/// The Table III model a (case-insensitive) name or short alias names.
pub fn model_by_name(name: &str) -> Option<Model> {
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

/// The generative transformer a (case-insensitive) name selects.
pub fn gen_model_by_name(name: &str) -> Option<GenerativeConfig> {
    match name.to_lowercase().as_str() {
        "gpt1b" | "gpt-1b" | "1b" => Some(GenerativeConfig::gpt_1b()),
        "tiny" => Some(GenerativeConfig::tiny()),
        _ => None,
    }
}

// --- The flags -------------------------------------------------------

const MODEL: Flag =
    value("--model", "<name>", Kind::Model).help("a Table III model (see the error for the names)");
const IMPORT: Flag = value("--import", "<file.tops>", Kind::Text)
    .help("load a model in the textual .tops format instead");
const BATCH: Flag = value("--batch", "<n>", COUNT)
    .or("1")
    .help("batch size; above 1 uses throughput mode");
const CHIP: Flag = value("--chip", "<i20|i10>", Kind::Choice(&["i20", "i10"]))
    .or("i20")
    .help("accelerator generation");
const GROUPS: Flag = value("--groups", "<1|2|3>", Kind::Int { min: 1, max: 3 })
    .help("run on N groups of cluster 0 (default: the full chip)");
const PROFILE_REPORT: Flag = switch("--profile").help("print the profiler's hot-kernel report");
const RUN_TRACE: Flag = value("--trace-out", "<file.json>", Kind::Text)
    .alias(&["--trace"])
    .help("write a Chrome-trace timeline");
const NO_POWER_MANAGEMENT: Flag =
    switch("--no-power-management").help("pin the clock at f_max (no DVFS)");
const PROFILE_TRACE: Flag = RUN_TRACE
    .or("topsexec.trace.json")
    .help("Perfetto/Chrome trace path");
const PROFILE_FORMAT: Flag = format_flag(&["table", "prometheus", "json"]).or("table");

const MODELS: Flag = value("--models", "<a,b,...>", Kind::List(&Kind::Model))
    .help("comma-separated model names, one tenant or grid row each");
const QPS: Flag =
    value("--qps", "<n>", Kind::Number).help("mean arrival rate per tenant, requests/s");
const DURATION: Flag =
    value("--duration", "<ms>", Kind::Number).help("arrival horizon; admitted work drains past it");
const MAX_BATCH: Flag = value("--max-batch", "<n>", COUNT)
    .or("8")
    .help("dynamic-batching cap; 1 disables batching");
const BATCH_TIMEOUT: Flag = value("--batch-timeout", "<ms>", Kind::Number)
    .or("2")
    .help("longest co-batching wait");
const DEADLINE: Flag = value("--deadline", "<ms>", Kind::Number)
    .or("50")
    .help("per-request SLA deadline");
const QUEUE_DEPTH: Flag =
    value("--queue-depth", "<n>", INT).help("admission queue cap; arrivals beyond it shed");
const BURSTY: Flag = switch("--bursty").help("Markov-modulated arrivals instead of Poisson");
const NO_AUTOSCALE: Flag = switch("--no-autoscale").help("pin each tenant at one processing group");
const SEED: Flag = value("--seed", "<n>", INT).help("seed of every random draw in the run");
const SERVE_TRACE: Flag = value("--trace-out", "<file>", Kind::Text)
    .alias(&["--trace"])
    .help("write the event trace: .json gets Chrome-trace spans, anything else JSON lines");
const CACHE_DIR: Flag = value("--cache-dir", "<dir>", Kind::Text)
    .help("compiled-session artifact directory (default: target/dtu-cache)");
const NO_DISK_CACHE: Flag = switch("--no-disk-cache").help("keep the session cache in memory only");
const JOBS: Flag = value("--jobs", "<n>", COUNT)
    .alias(&["-j"])
    .help("worker threads (default: all cores)");

const GENERATIVE: Flag = switch("--generative")
    .alias(&["--llm"])
    .help("select the continuous-batching generative engine");
const GEN_MODEL: Flag = value("--gen-model", "<gpt1b|tiny>", Kind::GenModel)
    .or("gpt1b")
    .help("decoder-only transformer: gpt1b (16 layers, d_model 2048) or tiny");
const PROMPT: Flag = value("--prompt", "<n>", INT)
    .or("64")
    .help("prompt tokens per request");
const MIN_NEW: Flag = value("--min-new", "<n>", COUNT)
    .or("4")
    .help("fewest output tokens per request");
const MAX_NEW: Flag = value("--max-new", "<n>", INT)
    .or("32")
    .help("most output tokens per request, at least --min-new");
const MAX_CONCURRENCY: Flag = value("--max-concurrency", "<n>", INT)
    .or("8")
    .help("running-batch cap");
const TTFT_DEADLINE: Flag = value("--ttft-deadline", "<ms>", Kind::Number)
    .or("100")
    .help("time-to-first-token SLO");
const TPOT_DEADLINE: Flag = value("--tpot-deadline", "<ms>", Kind::Number)
    .or("20")
    .help("time-per-output-token SLO");
const KV_BUDGET: Flag = value("--kv-budget", "<f>", Kind::Share)
    .or("1")
    .help("fraction of L3 granted to the paged KV-cache pool");
const MONITOR: Flag =
    switch("--monitor").help("attach the live monitor: alerts on stderr, stdout unchanged");
const SLO_REPORT: Flag =
    switch("--slo").help("print the SLO compliance report instead of the run report");
const FLIGHT_OUT: Flag = value("--flight-out", "<file.json>", Kind::Text)
    .help("write the flight recorder's dump as a Perfetto/Chrome trace");
const GEN_FORMAT: Flag = format_flag(&["json", "prom"]).or("json");
const ONCE: Flag =
    switch("--once").help("print the final frame once and exit (deterministic stdout)");
const SPAN: Flag = value("--span", "<s>", Kind::Positive)
    .or("5")
    .help("trailing window the rows aggregate over, simulated seconds");
const REFRESH_MS: Flag = value("--refresh-ms", "<n>", INT)
    .or("150")
    .help("wall-clock delay between frames");

const BATCHES: Flag = value("--batches", "<1,2,...>", Kind::List(&INT))
    .or("1,2,4,8")
    .help("comma-separated batch sizes, each at least 1");
const SWEEP_FORMAT: Flag = format_flag(&["table", "json"]).or("table");
const WRITE_GOLDEN: Flag = value("--write-golden", "<file>", Kind::Text)
    .help("regenerate the fig. 12-15 data and write it as the golden");
const CHECK_GOLDEN: Flag = value("--check-golden", "<file>", Kind::Text)
    .help("fail unless the regenerated fig. 12-15 data matches this golden to 1e-9 (relative)");

const GRID_MODELS: Flag = MODELS.alias(&["--model"]).or("resnet50");
const PLANS: Flag = value("--plans", "<a,b,...>", Kind::List(&Kind::Text))
    .alias(&["--plan"])
    .help("fault-plan presets: none core-failure ecc dma-stall dma-timeout thermal icache mixed");
const SEVERITIES: Flag = value("--severities", "<s,...>", Kind::List(&Kind::Unit))
    .alias(&["--severity"])
    .help("fault severities, each in [0, 1]");
const GRID_FORMAT: Flag = format_flag(&["json", "table"]).or("json");
const PLAN: Flag = value("--plan", "<name>", Kind::Text)
    .or("none")
    .help("fault-plan preset to inject");
const SEVERITY: Flag = value("--severity", "<s>", Kind::Unit)
    .or("1")
    .help("fault severity, in [0, 1]");

const CHIPS: Flag = value("--chips", "<n>", COUNT)
    .or("4")
    .help("chips in the fleet");
const CARDS: Flag = value("--cards", "<n>", COUNT)
    .or("1")
    .help("cards the chips sit on; --chips must divide evenly");
const FLEET_QPS: Flag = value("--qps", "<q>", Kind::Number)
    .help("fleet-wide offered load, split across models (default: 7500 x chips)");
const EPOCH: Flag = value("--epoch", "<ms>", Kind::Number)
    .or("1000")
    .help("routing-epoch length");
const REPLICAS: Flag = value("--replicas", "<n>", INT)
    .or("0")
    .help("replicas per tenant; 0 = every chip");
const CELLS: Flag = value("--cells", "<n>", COUNT)
    .or("2")
    .help("routing cells per replica per epoch");
const NO_ROLL: Flag = switch("--no-roll").help("skip the default rolling deploy");
const ROLL_START: Flag = value("--roll-start", "<ms>", Kind::Number)
    .help("when the roll begins (default: 20% of the horizon)");
const ROLL_CHIPS: Flag = value("--roll-chips", "<n>", COUNT)
    .help("chips drained per epoch (default: chips/4, at least 1)");
const KILL_CHIP: Flag = value("--kill-chip", "<n>", INT).help("kill chip n mid-run");
const KILL_AT: Flag = value("--kill-at", "<ms>", Kind::Number)
    .help("when the kill fires (default: 50% of the horizon)");
const FLEET_FORMAT: Flag = format_flag(&["json", "table", "prom"]).or("json");

// --- The commands ----------------------------------------------------

const CACHE: &[Flag] = &[CACHE_DIR, NO_DISK_CACHE];
const ONE_MODEL: &[Flag] = &[MODEL, IMPORT, BATCH, CHIP, GROUPS, NO_POWER_MANAGEMENT];
const SERVING: &[Flag] = &[
    MODELS.or("resnet50,bert"),
    QPS.or("400"),
    MAX_BATCH,
    BATCH_TIMEOUT,
    DEADLINE,
    QUEUE_DEPTH.or("64"),
    BURSTY,
    NO_AUTOSCALE,
    SEED.or("24301"),
    CHIP,
];
const GENERATING: &[Flag] = &[
    GENERATIVE,
    GEN_MODEL,
    QPS.or("200"),
    DURATION.or("200"),
    PROMPT,
    MIN_NEW,
    MAX_NEW,
    MAX_CONCURRENCY,
    QUEUE_DEPTH.or("64"),
    TTFT_DEADLINE,
    TPOT_DEADLINE,
    KV_BUDGET,
    BURSTY,
    SEED.or("7"),
    CHIP,
];
const DASHBOARD: &[Flag] = &[ONCE, SPAN, REFRESH_MS];
const GRID: &[Flag] = &[GRID_MODELS, SEED.or("7"), CHIP, JOBS, GRID_FORMAT];
const FLEET_RUN: &[Flag] = &[
    GRID_MODELS,
    CHIPS,
    CARDS,
    FLEET_QPS,
    DURATION.or("10000"),
    EPOCH,
    REPLICAS,
    DEADLINE,
    QUEUE_DEPTH.or("256"),
    CELLS,
    NO_ROLL,
    ROLL_START,
    ROLL_CHIPS,
    KILL_CHIP,
    KILL_AT,
    SEED.or("7"),
    CHIP,
    JOBS,
    MONITOR,
    FLIGHT_OUT,
];

/// `topsexec` without a command: compile and simulate one model.
pub static RUN: Command = Command {
    name: "topsexec",
    args: "(--model <name> | --import <file.tops>) [options]",
    about: "Compile and simulate one model end to end: latency, throughput, power.",
    positional: None,
    groups: &[ONE_MODEL, &[PROFILE_REPORT, RUN_TRACE]],
};

/// `topsexec profile`: cross-layer trace plus per-operator attribution.
pub static PROFILE: Command = Command {
    name: "topsexec profile",
    args: "(<name> | --model <name> | --import <file.tops>) [options]",
    about: "Cross-layer telemetry trace plus per-operator bottleneck attribution.",
    positional: Some("--model"),
    groups: &[ONE_MODEL, &[PROFILE_TRACE, PROFILE_FORMAT]],
};

/// `topsexec serve`: the multi-tenant dynamic-batching scenario.
pub static SERVE: Command = Command {
    name: "topsexec serve",
    args: "[options]",
    about: "Multi-tenant serving: dynamic batching, SLA admission, elastic group scaling.",
    positional: None,
    groups: &[SERVING, &[DURATION.or("1000"), SERVE_TRACE], CACHE],
};

/// `topsexec serve --generative`: continuous-batching LLM serving.
pub static GEN_SERVE: Command = Command {
    name: "topsexec serve --generative",
    args: "[options]",
    about: "Continuous-batching generative serving over a paged KV cache.",
    positional: None,
    groups: &[
        GENERATING,
        &[SERVE_TRACE, MONITOR, SLO_REPORT, FLIGHT_OUT, GEN_FORMAT],
        CACHE,
    ],
};

/// `topsexec sweep`: a model x batch grid on the parallel engine.
pub static SWEEP: Command = Command {
    name: "topsexec sweep",
    args: "[options]",
    about: "Model x batch grid on the parallel experiment engine.",
    positional: None,
    groups: &[
        &[
            MODELS.or("resnet50,vgg16,bert"),
            BATCHES,
            CHIP,
            JOBS,
            SWEEP_FORMAT,
            WRITE_GOLDEN,
            CHECK_GOLDEN,
        ],
        CACHE,
    ],
};

/// `topsexec faults`: the model x fault-plan x severity grid.
pub static FAULTS: Command = Command {
    name: "topsexec faults",
    args: "[<name>...] [options]",
    about: "Fault-injection degradation grid: model x fault plan x severity.",
    positional: Some("--models"),
    groups: &[
        GRID,
        &[
            PLANS.or("none,core-failure,ecc,dma-stall,thermal"),
            SEVERITIES.or("0.5,1"),
        ],
        CACHE,
    ],
};

/// `topsexec top`: the live serving dashboard.
pub static TOP: Command = Command {
    name: "topsexec top",
    args: "[options]",
    about: "Live serving dashboard: windowed QPS, p50/p99 and burn rate per tenant.",
    positional: None,
    groups: &[
        SERVING,
        &[DURATION.or("10000"), PLAN, SEVERITY],
        DASHBOARD,
        CACHE,
    ],
};

/// `topsexec top --generative`: the token-level dashboard.
pub static GEN_TOP: Command = Command {
    name: "topsexec top --generative",
    args: "[options]",
    about: "Token-level dashboard: QPS, batch, KV occupancy, TTFT/TPOT burn rates.",
    positional: None,
    groups: &[GENERATING, DASHBOARD, CACHE],
};

/// `topsexec slo`: SLO compliance over calibrated serving runs.
pub static SLO: Command = Command {
    name: "topsexec slo",
    args: "[<name>...] [options]",
    about: "SLO compliance report over self-calibrating serving runs.",
    positional: Some("--models"),
    groups: &[
        GRID,
        &[PLANS.or("none"), SEVERITIES.or("1"), FLIGHT_OUT],
        CACHE,
    ],
};

/// `topsexec fleet`: cluster-scale serving.
pub static FLEET: Command = Command {
    name: "topsexec fleet",
    args: "[<name>...] [options]",
    about: "Cluster-scale serving over N chips x M cards.",
    positional: Some("--models"),
    groups: &[FLEET_RUN, &[FLEET_FORMAT, SLO_REPORT], CACHE],
};

/// `topsexec fleet top`: the fleet dashboard.
pub static FLEET_TOP: Command = Command {
    name: "topsexec fleet top",
    args: "[<name>...] [options]",
    about: "Fleet dashboard: per-tenant and per-chip rows, one frame per routing epoch.",
    positional: Some("--models"),
    groups: &[FLEET_RUN, &[ONCE, REFRESH_MS], CACHE],
};

/// The flags every `repro_*` binary that runs the experiment engine takes.
pub static REPRO: Command = Command {
    name: "repro_*",
    args: "[options]",
    about: "Regenerate one table or figure of the paper's evaluation.",
    positional: None,
    groups: &[&[JOBS], CACHE],
};

/// The `repro_*` binaries that neither run the experiment engine nor
/// compile through the session cache, and `repro_all`: no flags.
pub static REPRO_FIXED: Command = Command {
    name: "repro_* (fixed)",
    args: "[-h]",
    about: "Regenerate tables or figures of the paper's evaluation from fixed inputs.",
    positional: None,
    groups: &[],
};

/// Every command, in usage order.
pub static COMMANDS: [&Command; 13] = [
    &RUN,
    &PROFILE,
    &SERVE,
    &GEN_SERVE,
    &SWEEP,
    &FAULTS,
    &TOP,
    &GEN_TOP,
    &SLO,
    &FLEET,
    &FLEET_TOP,
    &REPRO,
    &REPRO_FIXED,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &'static Command, args: &[&str]) -> Result<Args, CliError> {
        super::parse(command, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn repro_defaults_and_flags() {
        let d = parse(&REPRO, &[]).unwrap();
        assert!(jobs(&d) >= 1);
        assert!(!d.switch("--no-disk-cache"));
        assert_eq!(d.opt::<String>("--cache-dir"), None);
        let a = parse(&REPRO, &["-j", "3", "--no-disk-cache", "--cache-dir", "/x"]).unwrap();
        assert_eq!(jobs(&a), 3);
        assert!(a.switch("--no-disk-cache"));
        assert_eq!(a.get::<String>("--cache-dir"), "/x");
    }

    #[test]
    fn repro_rejects_unknown_and_malformed() {
        let err = |args: &[&str]| parse(&REPRO, args).unwrap_err();
        assert_eq!(
            err(&["--frobnicate"]),
            CliError::Unknown("--frobnicate".into())
        );
        assert_eq!(err(&["--jobs"]), CliError::MissingValue("--jobs"));
        for bad in ["many", "0", "-1"] {
            assert!(err(&["--jobs", bad])
                .to_string()
                .starts_with("--jobs: needs"));
        }
        assert_eq!(err(&["--help"]), CliError::Help);
        assert_eq!(
            err(&["--once"]).to_string(),
            "--once does not apply to `repro_*`"
        );
    }

    #[test]
    fn no_disk_cache_builds_memory_only() {
        let a = parse(&REPRO, &["--no-disk-cache"]).unwrap();
        assert_eq!(session_cache(&a).stats().lookups(), 0);
    }

    #[test]
    fn defaults_aliases_and_positionals() {
        let a = parse(&FAULTS, &[]).unwrap();
        assert_eq!(a.list::<String>("--models"), ["resnet50"]);
        assert_eq!(a.list::<f64>("--severities"), [0.5, 1.0]);
        let a = parse(
            &FAULTS,
            &["bert", "vgg", "--severity", "0.25", "--plan", "ecc"],
        )
        .unwrap();
        assert_eq!(a.list::<String>("--models"), ["bert", "vgg"]);
        assert_eq!(a.list::<f64>("--severities"), [0.25]);
        assert_eq!(a.list::<String>("--plans"), ["ecc"]);
        // A later --models replaces what came before it.
        let a = parse(&FAULTS, &["bert", "--models", "vgg16"]).unwrap();
        assert_eq!(a.list::<String>("--models"), ["vgg16"]);
        let a = parse(&PROFILE, &["resnet50"]).unwrap();
        assert_eq!(a.opt::<String>("--model").as_deref(), Some("resnet50"));
        let e = parse(&PROFILE, &["resnet50", "bert"]).unwrap_err();
        assert_eq!(e, CliError::Unexpected("bert".into()));
        // A value is taken verbatim, even when it starts with a dash.
        let e = parse(&FAULTS, &["--severity", "-1"]).unwrap_err();
        assert!(e
            .to_string()
            .starts_with("--severities: needs a number in [0, 1]"));
        let a = parse(&SERVE, &["--qps", "-5"]).unwrap();
        assert_eq!(a.get::<f64>("--qps"), -5.0);
    }

    #[test]
    fn every_table_is_consistent() {
        let known: Vec<_> = MODEL_NAMES.split(", ").filter_map(model_by_name).collect();
        assert_eq!(known, Model::ALL);
        for command in COMMANDS {
            let flags: Vec<&Flag> = command.flags().collect();
            for (i, f) in flags.iter().enumerate() {
                for spelling in std::iter::once(&f.name).chain(f.aliases) {
                    let twice = flags[..i].iter().any(|other| other.is(spelling));
                    assert!(!twice, "{} takes {spelling} twice", command.name);
                }
                assert_eq!(f.kind == Kind::Switch, f.arg.is_empty(), "{}", f.name);
            }
            if let Some(p) = command.positional {
                assert!(command.index(p).is_some(), "{}", command.name);
            }
            // Every literal default passes its own kind.
            parse(command, &[]).unwrap();
            assert!(usage(command).starts_with(&format!("usage: {} ", command.name)));
        }
    }
}
