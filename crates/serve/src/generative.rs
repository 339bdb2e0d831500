//! Continuous (iteration-level) batching for generative workloads.
//!
//! The fixed-batch engine forms a batch, serves it to completion, then
//! forms the next — right for single-shot models, wrong for
//! autoregressive generation where requests produce different token
//! counts and a long answer would hold the whole batch hostage.
//! [`run_generative`] instead advances the system one **iteration** at
//! a time:
//!
//! 1. **Admit** — waiting requests join the running batch whenever
//!    there is concurrency headroom *and* the [`PagedKvCache`] can
//!    reserve their pages. Joiners run one **prefill** step together
//!    (emitting each sequence's first token — the TTFT measurement);
//!    prefill has priority over decode, the standard continuous-batching
//!    choice that keeps TTFT bounded under load.
//! 2. **Decode** — otherwise the running batch advances one token.
//!    Before the step, every sequence reserves the page its next token
//!    may need; on pool exhaustion the **youngest** running sequence is
//!    preempted — pages released, progress kept, re-queued at the front
//!    — until the reservation fits. The oldest sequence is never
//!    preempted, so the system always makes progress. The step is
//!    priced by the [`TokenModel`] plus the allocator's L3 spill charge.
//! 3. **Complete** — sequences that hit their target length leave at
//!    the token boundary, free their pages, and record TTFT / TPOT /
//!    end-to-end samples through the shared [`Sample`] accumulator.
//!
//! Output lengths are drawn per request from a seeded RNG keyed by
//! request id (not by schedule), so the offered workload is identical
//! whatever the batching decisions — and the whole run is a pure
//! function of its [`GenerativeScenario`], byte-stable across `--jobs`
//! and cache temperature.
//!
//! Accounting always balances: `offered == completed + shed +
//! fault_dropped`. Sheds happen only at arrival (queue full, or the
//! request could never fit in the KV pool — admitting it would
//! livelock); preempted requests are *not* sheds, they re-queue and
//! eventually finish because the run drains after the arrival horizon.

use crate::arrival::{ArrivalGen, ArrivalProcess, ServeRng};
use crate::config::{check_count, check_deadline, require};
use crate::kv::{KvCacheConfig, KvStats, PagedKvCache};
use crate::metrics::{ServeEvent, ServeEventKind, ServingTrace};
use crate::stats::{LatencyStats, Sample};
use crate::token_model::TokenModel;
use crate::ServeError;
use dtu_telemetry::clock::ms_to_ns;
use dtu_telemetry::prometheus::{self, Declared, Family, MetricType};
use dtu_telemetry::{Counter, CounterSet};
use std::collections::VecDeque;
use std::fmt;

/// Observer of the engine's token boundaries.
///
/// [`run_generative_live`] calls these hooks *as the run unfolds*, so a
/// live monitor sees every prefill / decode-step / preempt / exhaust /
/// complete / shed at its simulated time instead of
/// reconstructing them afterwards. Every hook is pure observation: the
/// engine never reads anything back, so an observed run's report and
/// trace are byte-identical to a plain run's.
///
/// All hooks default to no-ops; implement only what you need.
pub trait GenObserver {
    /// Whether the observer wants per-sequence detail. The engine
    /// skips building [`GenJoiner`]/[`GenDecodeStep`] payloads when
    /// this is `false`, keeping the plain path allocation-free.
    fn enabled(&self) -> bool {
        true
    }
    /// The run over `sc` is about to start (the scenario has been
    /// validated).
    fn begin(&mut self, _sc: &GenerativeScenario) {}
    /// The run drained at `drained_ns`; no hook follows.
    fn finish(&mut self, _drained_ns: f64) {}
    /// Every trace record, in order, the moment it is appended.
    fn on_event(&mut self, _event: &ServeEvent) {}
    /// A request was shed at arrival (queue full or KV-impossible).
    fn on_shed(&mut self, _t_ms: f64, _req: u64) {}
    /// A prefill step ran over `joiners` from `t_ms` to `end_ms`.
    fn on_prefill(&mut self, _t_ms: f64, _end_ms: f64, _joiners: &[GenJoiner]) {}
    /// A sequence emitted its first token at `t_ms` (the TTFT sample,
    /// recorded at first-token time — not at completion).
    fn on_first_token(&mut self, _t_ms: f64, _req: u64, _ttft_ms: f64) {}
    /// A decode step ran; `step` carries the batch composition and the
    /// KV pages in use after it.
    fn on_decode(&mut self, _step: &GenDecodeStep) {}
    /// A decode-path page reservation was refused on pool exhaustion
    /// (admission-path refusals are ordinary backpressure and are not
    /// reported here).
    fn on_exhaust(&mut self, _t_ms: f64, _req: u64) {}
    /// A running sequence was preempted: pages released, progress
    /// kept, re-queued at the front.
    fn on_preempt(&mut self, _t_ms: f64, _req: u64, _pages: usize) {}
    /// A request completed its full answer.
    #[allow(clippy::too_many_arguments)]
    fn on_complete(
        &mut self,
        _t_ms: f64,
        _req: u64,
        _ttft_ms: f64,
        _tpot_ms: f64,
        _e2e_ms: f64,
        _violated: bool,
    ) {
    }
}

/// The do-nothing observer behind [`run_generative`].
struct NoopObserver;

impl GenObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// One sequence joining a prefill step, as seen by a [`GenObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenJoiner {
    /// Request id.
    pub req: u64,
    /// Prompt + already-produced tokens this prefill recomputes.
    pub tokens: usize,
    /// `true` when the sequence was preempted earlier and is resuming.
    pub resumed: bool,
}

/// One decode step, as seen by a [`GenObserver`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenDecodeStep {
    /// Step start, ms.
    pub t_ms: f64,
    /// Step end, ms.
    pub end_ms: f64,
    /// Running batch size.
    pub batch: usize,
    /// L3 spill charge folded into the step, ms.
    pub spill_ms: f64,
    /// KV pages reserved across all sequences after this step's
    /// reservations.
    pub kv_pages_in_use: usize,
    /// `(request id, tokens produced after this step)` per running
    /// sequence, oldest first.
    pub reqs: Vec<(u64, usize)>,
}

/// Salt mixing request ids into per-request output-length draws.
/// Id-keyed (not schedule-keyed) so the drawn lengths are independent
/// of batching decisions.
const LEN_RNG_SALT: u64 = 0x6E6F_7465_70A6_E5D7;

/// One generative serving scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerativeScenario {
    /// Arrival horizon, ms (the run then drains to completion).
    pub duration_ms: f64,
    /// Root seed for arrivals and output-length draws.
    pub seed: u64,
    /// Request arrival process.
    pub arrival: ArrivalProcess,
    /// Prompt length of every request, tokens.
    pub prompt_tokens: usize,
    /// Minimum generated tokens per request (inclusive, ≥ 1).
    pub min_new_tokens: usize,
    /// Maximum generated tokens per request (inclusive, ≥
    /// `min_new_tokens`).
    pub max_new_tokens: usize,
    /// Running-batch concurrency cap (sequences decoded together).
    pub max_concurrency: usize,
    /// Waiting-queue cap; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Per-request TTFT deadline, ms (`f64::INFINITY` to disable).
    pub ttft_deadline_ms: f64,
    /// Per-request mean-TPOT deadline, ms (`f64::INFINITY` to disable).
    pub tpot_deadline_ms: f64,
    /// KV-cache pool sizing.
    pub kv: KvCacheConfig,
}

impl GenerativeScenario {
    /// Output length drawn for request `id` — a uniform draw in
    /// `[min_new_tokens, max_new_tokens]` from an id-keyed RNG, for a
    /// scenario [`validate`](Self::validate) accepts. Pure: the same
    /// (seed, id) always yields the same length.
    pub fn target_tokens(&self, id: u64) -> usize {
        let (lo, hi) = (self.min_new_tokens, self.max_new_tokens);
        let span = (hi - lo + 1) as f64;
        let mut rng = ServeRng::new(self.seed ^ id.wrapping_mul(LEN_RNG_SALT));
        lo + ((rng.next_f64() * span) as usize).min(hi - lo)
    }

    /// Checks the scenario before any work: the arrival process and
    /// horizon ([`ArrivalProcess::validate`]), a concurrency cap, prompt
    /// length and KV pool of at least one, TTFT and TPOT deadlines that
    /// are positive (`f64::INFINITY` disables one), and at least one new
    /// token, with `max_new_tokens` not below `min_new_tokens`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] naming the first bad field and its value.
    pub fn validate(&self) -> Result<(), ServeError> {
        self.arrival.validate(self.duration_ms)?;
        check_count("max_concurrency", self.max_concurrency)?;
        check_count("prompt_tokens", self.prompt_tokens)?;
        require(self.kv.total_pages > 0, || "KV pool has zero pages".into())?;
        check_deadline("ttft_deadline_ms", self.ttft_deadline_ms)?;
        check_deadline("tpot_deadline_ms", self.tpot_deadline_ms)?;
        check_count("min_new_tokens", self.min_new_tokens)?;
        let (min, max) = (self.min_new_tokens, self.max_new_tokens);
        require(max >= min, || {
            format!("max_new_tokens must be at least min_new_tokens ({min}), got {max}")
        })
    }

    /// KV pages request `id` needs at its largest (prompt + full
    /// answer + the lookahead token decode reserves).
    fn max_pages(&self, id: u64) -> usize {
        self.kv
            .pages_for(self.prompt_tokens + self.target_tokens(id) + 1)
    }
}

/// One in-flight sequence.
#[derive(Debug, Clone)]
struct Seq {
    id: u64,
    arrival_ms: f64,
    /// Prompt tokens (same for every request in a scenario).
    prompt: usize,
    /// Tokens generated so far (survives preemption).
    produced: usize,
    /// Tokens this request will generate in total.
    target: usize,
    /// When the first token was emitted (set by the first prefill).
    first_token_ms: Option<f64>,
}

/// The outcome of one generative run.
#[derive(Debug, Clone, PartialEq)]
pub struct GenReport {
    /// Arrival horizon, ms.
    pub horizon_ms: f64,
    /// Simulated time the run actually ended (drain included), ms.
    pub drained_ms: f64,
    /// Requests that arrived within the horizon.
    pub offered: u64,
    /// Requests that completed their full answer.
    pub completed: u64,
    /// Requests shed at arrival (queue full or KV-impossible).
    pub shed: u64,
    /// Requests dropped by faults (always 0 today; kept so the
    /// accounting identity matches the fixed-batch engine).
    pub fault_dropped: u64,
    /// Completions that violated the TTFT or TPOT deadline.
    pub violations: u64,
    /// Times a running sequence was evicted on KV exhaustion.
    pub preemptions: u64,
    /// Prefill steps executed.
    pub prefill_steps: u64,
    /// Decode steps executed.
    pub decode_steps: u64,
    /// Prompt tokens processed by prefill (recomputation included).
    pub prefill_tokens: u64,
    /// Tokens emitted by decode steps.
    pub decode_tokens: u64,
    /// KV-allocator statistics.
    pub kv: KvStats,
    /// Time-to-first-token statistics (arrival → first token).
    pub ttft: LatencyStats,
    /// Time-per-output-token statistics (per-request mean over its
    /// decode phase).
    pub tpot: LatencyStats,
    /// End-to-end latency statistics (arrival → last token).
    pub e2e: LatencyStats,
    /// Request id of the slowest TTFT, when any request completed.
    pub ttft_exemplar: Option<u64>,
    /// Sustained generated-token throughput over the drained run,
    /// tokens/second.
    pub tokens_per_s: f64,
}

impl GenReport {
    /// The accounting identity every run must satisfy.
    pub fn balanced(&self) -> bool {
        self.offered == self.completed + self.shed + self.fault_dropped
    }

    /// Serialises the report as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        use dtu_telemetry::json::JsonObject;
        let stats = |s: &LatencyStats| {
            JsonObject::new()
                .int("count", s.count as i64)
                .num("mean_ms", s.mean_ms)
                .num("p50_ms", s.p50_ms)
                .num("p95_ms", s.p95_ms)
                .num("p99_ms", s.p99_ms)
                .num("max_ms", s.max_ms)
                .build()
        };
        let kv = JsonObject::new()
            .int("pages_allocated", self.kv.pages_allocated as i64)
            .int("exhaustions", self.kv.exhaustions as i64)
            .int("spill_bytes", self.kv.spill_bytes as i64)
            .int("peak_pages", self.kv.peak_pages as i64)
            .build();
        let o = JsonObject::new()
            .num("horizon_ms", self.horizon_ms)
            .num("drained_ms", self.drained_ms)
            .int("offered", self.offered as i64)
            .int("completed", self.completed as i64)
            .int("shed", self.shed as i64)
            .int("fault_dropped", self.fault_dropped as i64)
            .int("violations", self.violations as i64)
            .int("preemptions", self.preemptions as i64)
            .int("prefill_steps", self.prefill_steps as i64)
            .int("decode_steps", self.decode_steps as i64)
            .int("prefill_tokens", self.prefill_tokens as i64)
            .int("decode_tokens", self.decode_tokens as i64)
            .raw("kv", &kv)
            .raw("ttft", &stats(&self.ttft))
            .raw("tpot", &stats(&self.tpot))
            .raw("e2e", &stats(&self.e2e))
            .num("tokens_per_s", self.tokens_per_s);
        match self.ttft_exemplar {
            Some(id) => o.int("ttft_exemplar", id as i64),
            None => o,
        }
        .build()
    }

    /// The run's token/KV counters as a registry [`CounterSet`].
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        set.add(Counter::PrefillTokens, self.prefill_tokens as f64);
        set.add(Counter::DecodeTokens, self.decode_tokens as f64);
        set.add(Counter::KvPagesAllocated, self.kv.pages_allocated as f64);
        set.add(Counter::KvSpillBytes, self.kv.spill_bytes as f64);
        set.add(Counter::KvPreemptions, self.preemptions as f64);
        set.add(Counter::KvExhaustions, self.kv.exhaustions as f64);
        set
    }

    /// Renders the report as Prometheus text exposition: the registry
    /// token/KV counters, then `GEN_FAMILIES`, every sample labelled
    /// `tenant="<tenant>"`.
    pub fn to_prometheus(&self, tenant: &str) -> String {
        let labels = [("tenant", tenant)];
        let mut families = self.counters().families(&labels);
        for &(name, help, kind, value) in &GEN_FAMILIES {
            families.push(Family::new(name, help, kind).sample(&labels, value(self)));
        }
        prometheus::render(&families)
    }
}

/// The report's own metric families.
#[rustfmt::skip]
const GEN_FAMILIES: [Declared<GenReport>; 12] = [
    ("dtu_gen_offered_total", "Generative requests offered within the horizon", MetricType::Counter, |r| r.offered as f64),
    ("dtu_gen_completed_total", "Generative requests that completed their full answer", MetricType::Counter, |r| r.completed as f64),
    ("dtu_gen_shed_total", "Generative requests shed at arrival", MetricType::Counter, |r| r.shed as f64),
    ("dtu_gen_violations_total", "Completions that violated the TTFT or TPOT deadline", MetricType::Counter, |r| r.violations as f64),
    ("dtu_gen_preemptions_total", "Running sequences preempted on KV exhaustion", MetricType::Counter, |r| r.preemptions as f64),
    ("dtu_gen_ttft_p50_ms", "Median time-to-first-token", MetricType::Gauge, |r| r.ttft.p50_ms),
    ("dtu_gen_ttft_p99_ms", "99th-percentile time-to-first-token", MetricType::Gauge, |r| r.ttft.p99_ms),
    ("dtu_gen_tpot_p50_ms", "Median time-per-output-token", MetricType::Gauge, |r| r.tpot.p50_ms),
    ("dtu_gen_tpot_p99_ms", "99th-percentile time-per-output-token", MetricType::Gauge, |r| r.tpot.p99_ms),
    ("dtu_gen_e2e_p99_ms", "99th-percentile end-to-end latency", MetricType::Gauge, |r| r.e2e.p99_ms),
    ("dtu_gen_tokens_per_s", "Sustained generated-token throughput", MetricType::Gauge, |r| r.tokens_per_s),
    ("dtu_gen_kv_peak_pages", "Peak KV pages reserved at once", MetricType::Gauge, |r| r.kv.peak_pages as f64),
];

impl fmt::Display for GenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "generative: {} offered, {} completed, {} shed, {} late over {:.0} ms (drained {:.0} ms)",
            self.offered, self.completed, self.shed, self.violations, self.horizon_ms,
            self.drained_ms
        )?;
        writeln!(
            f,
            "  {} prefill steps ({} tokens), {} decode steps ({} tokens), {:.0} tok/s",
            self.prefill_steps,
            self.prefill_tokens,
            self.decode_steps,
            self.decode_tokens,
            self.tokens_per_s
        )?;
        writeln!(
            f,
            "  kv: {} pages allocated (peak {}), {} exhaustions, {} preemptions, {} spill bytes",
            self.kv.pages_allocated,
            self.kv.peak_pages,
            self.kv.exhaustions,
            self.preemptions,
            self.kv.spill_bytes
        )?;
        writeln!(f, "  ttft {}", self.ttft)?;
        writeln!(f, "  tpot {}", self.tpot)?;
        write!(f, "  e2e  {}", self.e2e)
    }
}

/// Report plus the run's event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GenOutcome {
    /// Aggregated statistics.
    pub report: GenReport,
    /// Ordered event log (arrivals, sheds, prefill/decode steps,
    /// preemptions, completions).
    pub trace: ServingTrace,
}

struct GenEngine<'m> {
    model: &'m mut dyn TokenModel,
    obs: &'m mut dyn GenObserver,
    kv: PagedKvCache,
    waiting: VecDeque<Seq>,
    running: Vec<Seq>,
    trace: ServingTrace,
    // Accounting.
    offered: u64,
    shed: u64,
    violations: u64,
    preemptions: u64,
    prefill_steps: u64,
    decode_steps: u64,
    prefill_tokens: u64,
    decode_tokens: u64,
    ttft: Sample,
    tpot: Sample,
    e2e: Sample,
}

impl<'m> GenEngine<'m> {
    fn event(&mut self, t: f64, kind: ServeEventKind) {
        let e = ServeEvent {
            t_ns: ms_to_ns(t),
            tenant: 0,
            kind,
        };
        self.obs.on_event(&e);
        self.trace.events.push(e);
    }

    /// Admits one arrival, shedding on queue overflow or a KV ask the
    /// pool could never satisfy (admitting it would livelock the
    /// preemption loop).
    fn arrive(&mut self, sc: &GenerativeScenario, id: u64, t: f64) {
        self.offered += 1;
        let impossible = sc.max_pages(id) > sc.kv.total_pages;
        if self.waiting.len() >= sc.queue_depth || impossible {
            self.shed += 1;
            self.event(
                t,
                ServeEventKind::Shed {
                    req: id,
                    depth: self.waiting.len(),
                },
            );
            self.obs.on_shed(t, id);
            return;
        }
        self.waiting.push_back(Seq {
            id,
            arrival_ms: t,
            prompt: sc.prompt_tokens,
            produced: 0,
            target: sc.target_tokens(id),
            first_token_ms: None,
        });
        self.event(
            t,
            ServeEventKind::Arrival {
                req: id,
                depth: self.waiting.len(),
            },
        );
    }

    /// Completes a sequence at time `t`: frees pages, records samples,
    /// checks deadlines.
    fn complete(&mut self, sc: &GenerativeScenario, seq: Seq, t: f64) {
        self.kv.release(seq.id);
        let first = seq.first_token_ms.expect("completed without prefill");
        let ttft = first - seq.arrival_ms;
        // Mean time per output token after the first; a 1-token answer
        // has no decode phase and contributes a zero TPOT.
        let tpot = if seq.target > 1 {
            (t - first) / (seq.target - 1) as f64
        } else {
            0.0
        };
        self.ttft.record(ttft, seq.id);
        self.tpot.record(tpot, seq.id);
        self.e2e.record(t - seq.arrival_ms, seq.id);
        let violated = ttft > sc.ttft_deadline_ms || tpot > sc.tpot_deadline_ms;
        if violated {
            self.violations += 1;
        }
        self.event(
            t,
            ServeEventKind::Complete {
                batch: 1,
                depth: self.waiting.len(),
            },
        );
        self.obs
            .on_complete(t, seq.id, ttft, tpot, t - seq.arrival_ms, violated);
    }

    /// One prefill step over `joiners` (which already hold their KV
    /// reservations). Returns the step's end time.
    fn prefill(
        &mut self,
        sc: &GenerativeScenario,
        joiners: Vec<Seq>,
        t: f64,
    ) -> Result<f64, ServeError> {
        let batch = joiners.len();
        // Resumed sequences recompute prompt + everything they already
        // produced; the step runs at the longest sequence in the group.
        let tokens = joiners
            .iter()
            .map(|s| s.prompt + s.produced)
            .max()
            .expect("prefill with no joiners");
        let ms = self.model.prefill_ms(batch, tokens)?;
        let end = t + ms;
        self.prefill_steps += 1;
        self.prefill_tokens += joiners
            .iter()
            .map(|s| (s.prompt + s.produced) as u64)
            .sum::<u64>();
        self.event(
            t,
            ServeEventKind::Prefill {
                batch,
                tokens,
                service_ms: ms,
            },
        );
        if self.obs.enabled() {
            let info: Vec<GenJoiner> = joiners
                .iter()
                .map(|s| GenJoiner {
                    req: s.id,
                    tokens: s.prompt + s.produced,
                    resumed: s.produced > 0,
                })
                .collect();
            self.obs.on_prefill(t, end, &info);
        }
        for mut seq in joiners {
            if seq.first_token_ms.is_none() {
                // Prefill emits the first token.
                seq.first_token_ms = Some(end);
                seq.produced = 1;
                self.obs.on_first_token(end, seq.id, end - seq.arrival_ms);
            }
            if seq.produced >= seq.target {
                self.complete(sc, seq, end);
            } else {
                self.running.push(seq);
            }
        }
        Ok(end)
    }

    /// One decode step over the running batch. Returns the step's end
    /// time.
    fn decode(&mut self, sc: &GenerativeScenario, t: f64) -> Result<f64, ServeError> {
        // Reserve next-token pages oldest-first; preempt the youngest
        // on exhaustion. The oldest sequence can always win this fight
        // (admission guarantees a lone sequence fits), so the loop
        // terminates with at least one survivor.
        let mut i = 0;
        while i < self.running.len() {
            let need = self.running[i].prompt + self.running[i].produced + 1;
            let id = self.running[i].id;
            if self.kv.try_reserve(id, need) {
                i += 1;
                continue;
            }
            self.obs.on_exhaust(t, id);
            let victim = self.running.pop().expect("non-empty running batch");
            let pages = self.kv.release(victim.id);
            self.preemptions += 1;
            self.event(
                t,
                ServeEventKind::Preempt {
                    req: victim.id,
                    pages,
                },
            );
            self.obs.on_preempt(t, victim.id, pages);
            // Keep progress; rejoin at the queue front so it re-admits
            // (and recomputes its KV via prefill) at the next boundary.
            self.waiting.push_front(victim);
        }
        let batch = self.running.len();
        let context = self
            .running
            .iter()
            .map(|s| s.prompt + s.produced)
            .max()
            .expect("decode with empty batch");
        let spill_before = self.kv.stats().spill_bytes;
        let spill_ms = self.kv.charge_step();
        let spilled = self.kv.stats().spill_bytes - spill_before;
        let ms = self.model.decode_ms(batch, context)? + spill_ms;
        let end = t + ms;
        self.decode_steps += 1;
        self.decode_tokens += batch as u64;
        self.event(
            t,
            ServeEventKind::DecodeStep {
                batch,
                context,
                service_ms: ms,
                spill_bytes: spilled,
            },
        );
        if self.obs.enabled() {
            let step = GenDecodeStep {
                t_ms: t,
                end_ms: end,
                batch,
                spill_ms,
                kv_pages_in_use: self.kv.pages_in_use(),
                reqs: self
                    .running
                    .iter()
                    .map(|s| (s.id, s.produced + 1))
                    .collect(),
            };
            self.obs.on_decode(&step);
        }
        let mut idx = 0;
        while idx < self.running.len() {
            self.running[idx].produced += 1;
            if self.running[idx].produced >= self.running[idx].target {
                let seq = self.running.remove(idx);
                self.complete(sc, seq, end);
            } else {
                idx += 1;
            }
        }
        Ok(end)
    }
}

/// Runs one generative serving scenario to completion.
///
/// Arrivals are generated within `sc.duration_ms`; every admitted
/// request then runs to completion (the queues drain), so the
/// accounting identity `offered == completed + shed + fault_dropped`
/// holds on every return.
///
/// # Errors
///
/// [`ServeError::Config`] for a scenario
/// [`GenerativeScenario::validate`] rejects, before the token model is
/// asked for anything; compile/simulate failures from the token model
/// surface as [`ServeError`] too.
pub fn run_generative(
    sc: &GenerativeScenario,
    model: &mut dyn TokenModel,
) -> Result<GenOutcome, ServeError> {
    run_generative_live(sc, model, &mut NoopObserver)
}

/// Runs one generative serving scenario to completion with a
/// [`GenObserver`] (for example a [`crate::GenMonitor`]) receiving
/// every token-boundary event as it happens, between its
/// [`GenObserver::begin`] and [`GenObserver::finish`] hooks.
///
/// The observer is strictly observational: for any observer, the
/// returned report and trace are identical to [`run_generative`]'s.
///
/// # Errors
///
/// As for [`run_generative`].
pub fn run_generative_live(
    sc: &GenerativeScenario,
    model: &mut dyn TokenModel,
    obs: &mut dyn GenObserver,
) -> Result<GenOutcome, ServeError> {
    sc.validate()?;
    obs.begin(sc);
    let mut eng = GenEngine {
        model,
        obs,
        kv: PagedKvCache::new(sc.kv),
        waiting: VecDeque::new(),
        running: Vec::new(),
        trace: ServingTrace::default(),
        offered: 0,
        shed: 0,
        violations: 0,
        preemptions: 0,
        prefill_steps: 0,
        decode_steps: 0,
        prefill_tokens: 0,
        decode_tokens: 0,
        ttft: Sample::new(),
        tpot: Sample::new(),
        e2e: Sample::new(),
    };
    let mut gen = ArrivalGen::new(sc.arrival.clone(), sc.seed);
    let mut next_id = 0u64;
    let first = gen.next_after(0.0);
    let mut next_arrival = (first <= sc.duration_ms).then_some(first);
    let mut t = 0.0f64;
    loop {
        // Drain every arrival at or before the current time.
        while let Some(a) = next_arrival {
            if a > t {
                break;
            }
            eng.arrive(sc, next_id, a);
            next_id += 1;
            let n = gen.next_after(a);
            next_arrival = (n <= sc.duration_ms).then_some(n);
        }
        if eng.running.is_empty() && eng.waiting.is_empty() {
            match next_arrival {
                // Idle: jump to the next arrival.
                Some(a) => {
                    t = t.max(a);
                    continue;
                }
                None => break,
            }
        }
        // Admission (prefill priority): pull waiting sequences while
        // concurrency and KV pages allow.
        let mut joiners: Vec<Seq> = Vec::new();
        while eng.running.len() + joiners.len() < sc.max_concurrency {
            let Some(front) = eng.waiting.front() else {
                break;
            };
            let need = front.prompt + front.produced + 1;
            let id = front.id;
            if eng.kv.try_reserve(id, need) {
                joiners.push(eng.waiting.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        if !joiners.is_empty() {
            t = eng.prefill(sc, joiners, t)?;
            continue;
        }
        if eng.running.is_empty() {
            // Waiting sequences exist but none fit (pool exhausted by
            // nothing running — impossible unless queue-only churn);
            // jump to the next arrival or fail-safe break.
            match next_arrival {
                Some(a) if a > t => {
                    t = a;
                    continue;
                }
                _ => {
                    return Err(ServeError::Config(
                        "KV pool cannot admit any waiting sequence".into(),
                    ))
                }
            }
        }
        t = eng.decode(sc, t)?;
    }
    let drained_ms = t;
    let ttft_exemplar = eng.ttft.exemplar();
    let (_, ttft) = eng.ttft.into_parts();
    let (_, tpot) = eng.tpot.into_parts();
    let (_, e2e) = eng.e2e.into_parts();
    let completed = ttft.count;
    let report = GenReport {
        horizon_ms: sc.duration_ms,
        drained_ms,
        offered: eng.offered,
        completed,
        shed: eng.shed,
        fault_dropped: 0,
        violations: eng.violations,
        preemptions: eng.preemptions,
        prefill_steps: eng.prefill_steps,
        decode_steps: eng.decode_steps,
        prefill_tokens: eng.prefill_tokens,
        decode_tokens: eng.decode_tokens,
        kv: eng.kv.stats(),
        ttft,
        tpot,
        e2e,
        ttft_exemplar,
        tokens_per_s: if drained_ms > 0.0 {
            eng.decode_tokens as f64 / (drained_ms / 1e3)
        } else {
            0.0
        },
    };
    debug_assert!(report.balanced(), "accounting identity violated");
    eng.obs.finish(ms_to_ns(drained_ms));
    Ok(GenOutcome {
        report,
        trace: eng.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token_model::AnalyticTokenModel;

    fn kv(total: usize, l2: usize) -> KvCacheConfig {
        KvCacheConfig {
            page_tokens: 16,
            bytes_per_token: 1024,
            total_pages: total,
            l2_pages: l2,
            l3_gb_per_s: 100.0,
        }
    }

    fn scenario(total_pages: usize) -> GenerativeScenario {
        GenerativeScenario {
            duration_ms: 300.0,
            seed: 7,
            arrival: ArrivalProcess::Poisson { qps: 120.0 },
            prompt_tokens: 64,
            min_new_tokens: 4,
            max_new_tokens: 48,
            max_concurrency: 8,
            queue_depth: 64,
            ttft_deadline_ms: f64::INFINITY,
            tpot_deadline_ms: f64::INFINITY,
            kv: kv(total_pages, 16),
        }
    }

    #[test]
    fn accounting_balances_and_tokens_flow() {
        let sc = scenario(4096);
        let mut m = AnalyticTokenModel::new("m");
        let out = run_generative(&sc, &mut m).unwrap();
        let r = &out.report;
        assert!(r.balanced(), "{r:?}");
        assert!(r.offered > 0);
        assert!(r.completed > 0);
        assert!(r.decode_tokens > 0);
        assert!(r.prefill_tokens >= r.completed * 64);
        assert_eq!(r.ttft.count, r.completed);
        assert_eq!(r.tpot.count, r.completed);
        assert!(r.ttft.p50_ms > 0.0);
        assert!(r.tokens_per_s > 0.0);
    }

    #[test]
    fn run_is_deterministic() {
        let sc = scenario(4096);
        let a = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let b = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn target_lengths_are_schedule_independent() {
        let sc = scenario(4096);
        let tight = scenario(40); // wildly different schedule
        for id in 0..50 {
            assert_eq!(sc.target_tokens(id), tight.target_tokens(id));
            assert!((4..=48).contains(&sc.target_tokens(id)));
        }
    }

    #[test]
    fn constrained_pool_preempts_and_still_balances() {
        // 40 pages ≈ 640 tokens of KV across up to 8 concurrent seqs
        // needing up to 113 tokens (8 pages) each — at saturating
        // arrival rates the full batch wants ~64 pages, guaranteed
        // contention.
        let mut sc = scenario(40);
        sc.arrival = ArrivalProcess::Poisson { qps: 2000.0 };
        sc.duration_ms = 100.0;
        sc.queue_depth = 512;
        let mut m = AnalyticTokenModel::new("m");
        let out = run_generative(&sc, &mut m).unwrap();
        let r = &out.report;
        assert!(r.balanced(), "{r:?}");
        assert!(
            r.preemptions > 0 || r.kv.exhaustions > 0,
            "constrained pool should show pressure: {r:?}"
        );
        assert!(r.completed > 0, "preemption must not deadlock completion");
        // Preempted sequences re-prefill, so prefill tokens exceed the
        // bare completed * prompt.
        assert!(r.prefill_steps >= r.completed / sc.max_concurrency as u64);
    }

    #[test]
    fn impossible_requests_are_shed_not_livelocked() {
        // Pool smaller than a single request's worst case.
        let mut sc = scenario(4);
        sc.min_new_tokens = 100;
        sc.max_new_tokens = 100;
        let mut m = AnalyticTokenModel::new("m");
        let out = run_generative(&sc, &mut m).unwrap();
        let r = &out.report;
        assert!(r.balanced());
        assert_eq!(r.completed, 0);
        assert_eq!(r.shed, r.offered);
    }

    #[test]
    fn ttft_deadline_counts_violations() {
        let mut sc = scenario(4096);
        sc.ttft_deadline_ms = 1e-9; // everything is late
        let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        assert_eq!(out.report.violations, out.report.completed);
    }

    #[test]
    fn deadlines_must_be_positive() {
        for (ttft, tpot) in [(-1.0, 1.0), (0.0, 1.0), (1.0, f64::NAN)] {
            let mut sc = scenario(4096);
            (sc.ttft_deadline_ms, sc.tpot_deadline_ms) = (ttft, tpot);
            let err = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap_err();
            assert!(
                err.to_string().contains("deadline_ms must be positive"),
                "{err}"
            );
        }
    }

    #[test]
    fn one_token_answers_complete_at_prefill() {
        let mut sc = scenario(4096);
        sc.min_new_tokens = 1;
        sc.max_new_tokens = 1;
        let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let r = &out.report;
        assert!(r.completed > 0);
        assert_eq!(r.decode_steps, 0);
        assert_eq!(r.decode_tokens, 0);
        assert_eq!(r.tpot.max_ms, 0.0, "no decode phase, zero TPOT");
    }

    #[test]
    fn trace_records_prefill_decode_and_preempt_kinds() {
        let sc = scenario(40);
        let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let has = |f: &dyn Fn(&ServeEventKind) -> bool| out.trace.events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, ServeEventKind::Prefill { .. })));
        assert!(has(&|k| matches!(k, ServeEventKind::DecodeStep { .. })));
        if out.report.preemptions > 0 {
            assert!(has(&|k| matches!(k, ServeEventKind::Preempt { .. })));
        }
        // Spans build cleanly from the generative kinds.
        assert_eq!(out.trace.to_spans().len(), out.trace.len());
        assert!(out.trace.to_jsonl().contains("\"kind\":\"decode\""));
    }

    #[test]
    fn recorded_run_matches_plain_and_snapshots_counters() {
        // What `serve --generative --trace-out x.json` records, from a
        // plain or a monitored run alike: one span per event, plus the
        // report's token counters.
        let sc = scenario(4096);
        let plain = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let mut mon = crate::GenMonitor::with_defaults();
        let live = run_generative_live(&sc, &mut AnalyticTokenModel::new("m"), &mut mon).unwrap();
        let spans = live.trace.to_spans();
        assert_eq!(spans, plain.trace.to_spans());
        assert_eq!(spans.len(), live.trace.len());
        let set = live.report.counters();
        let r = &live.report;
        assert_eq!(set.get(Counter::DecodeTokens), r.decode_tokens as f64);
        assert_eq!(set.get(Counter::PrefillTokens), r.prefill_tokens as f64);
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let sc = scenario(4096);
        let out = run_generative(&sc, &mut AnalyticTokenModel::new("m")).unwrap();
        let js = out.report.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        for key in [
            "\"offered\"",
            "\"ttft\"",
            "\"tpot\"",
            "\"e2e\"",
            "\"kv\"",
            "\"tokens_per_s\"",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
        assert!(out.report.to_string().contains("ttft"));
    }
}
