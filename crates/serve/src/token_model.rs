//! Per-token cost models for generative serving.
//!
//! The continuous batcher prices two kernel families: **prefill** (all
//! of a joining group's prompts in one full-sequence pass) and
//! **decode** (one token for every running sequence against its
//! KV-cache). [`TokenModel`] is the interface; [`AnalyticTokenModel`]
//! is the closed-form curve scheduler tests run against, and
//! [`CompiledTokenModel`] prices steps by compiling and simulating the
//! workload's real prefill/decode graphs on the chip — reusing the
//! single-shot [`CompiledModel`](crate::CompiledModel) session cache
//! (and therefore the shared [`ProgramSource`] artifact cache)
//! underneath.

use crate::model::{CacheStats, CompiledModel, ProgramSource, ServiceModel};
use crate::ServeError;
use dtu_compiler::Placement;
use dtu_models::Workload;
use dtu_sim::{Chip, GroupId};

/// Cost of one continuous-batching iteration.
pub trait TokenModel {
    /// Model name for reports and traces.
    fn name(&self) -> &str;

    /// Latency of one prefill step: `batch` sequences processing
    /// prompts of (up to) `tokens` tokens, ms.
    ///
    /// # Errors
    ///
    /// Compile/simulate failures surface as [`ServeError`].
    fn prefill_ms(&mut self, batch: usize, tokens: usize) -> Result<f64, ServeError>;

    /// Latency of one decode step: `batch` sequences each producing one
    /// token against a KV-cache of (up to) `context` tokens, ms. KV
    /// spill DMA is charged separately by the allocator.
    ///
    /// # Errors
    ///
    /// Compile/simulate failures surface as [`ServeError`].
    fn decode_ms(&mut self, batch: usize, context: usize) -> Result<f64, ServeError>;
}

/// Closed-form per-token cost curve for batcher unit tests.
///
/// Prefill is linear in prompt tokens with sublinear batch scaling;
/// decode has a fixed launch cost plus a per-context term (the KV
/// stream) with near-perfect batch amortisation of the launch:
///
/// ```text
/// prefill(b, n) = prefill_token_us · n · (overhead + (1 − overhead) · b) / 1000
/// decode(b, c)  = decode_base_ms · (overhead + (1 − overhead) · b)
///                 + context_us · c / 1000
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticTokenModel {
    /// Name used in reports.
    pub name: String,
    /// Prefill cost per prompt token per sequence, µs.
    pub prefill_token_us: f64,
    /// Fixed decode-step launch cost, ms.
    pub decode_base_ms: f64,
    /// Decode cost per context token, µs.
    pub context_us: f64,
    /// Fraction of cost that is per-step overhead rather than
    /// per-sequence work (same convention as `AnalyticModel`).
    pub batch_overhead: f64,
}

impl AnalyticTokenModel {
    /// A model with the default curve: 2 µs/prompt-token, 0.2 ms decode
    /// launch, 0.5 µs/context-token.
    pub fn new(name: impl Into<String>) -> Self {
        AnalyticTokenModel {
            name: name.into(),
            prefill_token_us: 2.0,
            decode_base_ms: 0.2,
            context_us: 0.5,
            batch_overhead: 0.7,
        }
    }
}

impl TokenModel for AnalyticTokenModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn prefill_ms(&mut self, batch: usize, tokens: usize) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let batch_cost = self.batch_overhead + (1.0 - self.batch_overhead) * batch as f64;
        Ok(self.prefill_token_us * tokens as f64 * batch_cost / 1000.0)
    }

    fn decode_ms(&mut self, batch: usize, context: usize) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let batch_cost = self.batch_overhead + (1.0 - self.batch_overhead) * batch as f64;
        Ok(self.decode_base_ms * batch_cost + self.context_us * context as f64 / 1000.0)
    }
}

/// A generative workload priced through the real compiled stack.
///
/// Sessions are **bucketed**: batch sizes round up to the next power of
/// two and decode contexts to the next power of two as well, so a long
/// run compiles a handful of sessions instead of one per (batch,
/// context) pair. Prefill compiles the workload's bound-prompt graph at
/// the batch bucket and scales the measured latency linearly to the
/// requested token count (prefill MACs are linear in prompt length to
/// first order; the quadratic attention term is a small fraction at
/// serving prompt lengths). All steps run on the full chip — continuous
/// batching already time-multiplexes the device, so there is no
/// per-tenant partitioning as in the fixed-batch engine.
pub struct CompiledTokenModel<'c, W: Workload + Clone + 'c> {
    name: String,
    workload: W,
    /// Prompt length `workload.build` graphs are bound to.
    prompt_tokens: usize,
    placement: Placement,
    prefill: CompiledModel<'c>,
    /// One compiled-model session cache per decode context bucket,
    /// indexed by the bucket's log2.
    decode: Vec<Option<CompiledModel<'c>>>,
    chip: &'c Chip,
    source: Option<&'c dyn ProgramSource>,
}

impl<'c, W: Workload + Clone + 'c> std::fmt::Debug for CompiledTokenModel<'c, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledTokenModel")
            .field("name", &self.name)
            .field("prompt_tokens", &self.prompt_tokens)
            .field("decode_buckets", &self.decode.iter().flatten().count())
            .finish()
    }
}

fn full_chip_placement(chip: &Chip) -> Placement {
    let cfg = chip.config();
    let mut groups = Vec::with_capacity(cfg.total_groups());
    for cluster in 0..cfg.clusters {
        for group in 0..cfg.groups_per_cluster {
            groups.push(GroupId::new(cluster, group));
        }
    }
    Placement::explicit(groups)
}

/// The power of two a batch or context rounds up to (1 for 0).
fn bucket(n: usize) -> usize {
    n.next_power_of_two()
}

impl<'c, W: Workload + Clone + 'c> CompiledTokenModel<'c, W> {
    /// Wraps a generative workload whose prefill graphs are bound to
    /// `prompt_tokens`-token prompts.
    pub fn new(chip: &'c Chip, workload: W, prompt_tokens: usize) -> Self {
        let name = workload.name();
        let prefill_workload = workload.clone();
        let prefill = CompiledModel::new(chip, format!("{name}-prefill"), move |b| {
            prefill_workload.build(b)
        });
        CompiledTokenModel {
            name,
            workload,
            // Divides prefill latencies; this constructor cannot return
            // a `Result`, so a zero prompt (which validation rejects) is 1.
            prompt_tokens: prompt_tokens.max(1),
            placement: full_chip_placement(chip),
            prefill,
            decode: Vec::new(),
            chip,
            source: None,
        }
    }

    /// Routes program compilation through an external [`ProgramSource`]
    /// (builder-style), exactly as
    /// [`CompiledModel::with_source`](crate::CompiledModel::with_source).
    pub fn with_source(mut self, source: &'c dyn ProgramSource) -> Self {
        self.source = Some(source);
        self.prefill = self.prefill.with_source(source);
        self
    }

    /// Aggregate session-cache hit/miss counters over the prefill and
    /// every decode-bucket cache.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = self.prefill.cache_stats();
        for m in self.decode.iter().flatten() {
            let s = m.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Number of distinct compiled sessions across both phases.
    pub fn cached_sessions(&self) -> usize {
        self.prefill.cached_sessions()
            + self
                .decode
                .iter()
                .flatten()
                .map(|m| m.cached_sessions())
                .sum::<usize>()
    }
}

impl<'c, W: Workload + Clone + 'c> TokenModel for CompiledTokenModel<'c, W> {
    fn name(&self) -> &str {
        &self.name
    }

    fn prefill_ms(&mut self, batch: usize, tokens: usize) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let measured = self.prefill.service_ms(bucket(batch), &self.placement)?;
        Ok(measured * tokens as f64 / self.prompt_tokens as f64)
    }

    fn decode_ms(&mut self, batch: usize, context: usize) -> Result<f64, ServeError> {
        if batch == 0 {
            return Err(ServeError::Config("batch must be at least 1".into()));
        }
        let ctx_bucket = bucket(context);
        let slot = ctx_bucket.trailing_zeros() as usize;
        if slot >= self.decode.len() {
            self.decode.resize_with(slot + 1, || None);
        }
        let model = self.decode[slot].get_or_insert_with(|| {
            let workload = self.workload.clone();
            let name = format!("{}-decode-c{ctx_bucket}", self.name);
            let m = CompiledModel::new(self.chip, name, move |b| {
                workload
                    .decode(b, ctx_bucket)
                    .expect("generative workload must emit a decode graph")
            });
            match self.source {
                Some(source) => m.with_source(source),
                None => m,
            }
        });
        model.service_ms(bucket(batch), &self.placement)
    }
}

/// Blanket adapter: any [`TokenModel`] also works as a single-shot
/// [`ServiceModel`] by pricing each request as one bound-prompt prefill
/// — the shared-path direction of the `Workload` split (a generative
/// model can stand in wherever a single-shot model is expected).
#[derive(Debug)]
pub struct PrefillOnly<M: TokenModel> {
    inner: M,
    prompt_tokens: usize,
}

impl<M: TokenModel> PrefillOnly<M> {
    /// Adapts `inner` at a fixed prompt length.
    pub fn new(inner: M, prompt_tokens: usize) -> Self {
        PrefillOnly {
            inner,
            prompt_tokens,
        }
    }
}

impl<M: TokenModel> ServiceModel for PrefillOnly<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_ms(&mut self, batch: usize, _placement: &Placement) -> Result<f64, ServeError> {
        self.inner.prefill_ms(batch, self.prompt_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_models::{GenerativeConfig, GenerativeModel};
    use dtu_sim::ChipConfig;

    #[test]
    fn analytic_prefill_is_linear_in_tokens() {
        let mut m = AnalyticTokenModel::new("m");
        let a = m.prefill_ms(1, 100).unwrap();
        let b = m.prefill_ms(1, 200).unwrap();
        assert!((b - 2.0 * a).abs() < 1e-12);
        assert!(m.prefill_ms(0, 1).is_err());
    }

    #[test]
    fn analytic_decode_grows_with_context_and_amortises_batch() {
        let mut m = AnalyticTokenModel::new("m");
        let short = m.decode_ms(1, 64).unwrap();
        let long = m.decode_ms(1, 2048).unwrap();
        assert!(long > short);
        // Batch 8 in one step is far cheaper than 8 single steps.
        let b8 = m.decode_ms(8, 64).unwrap();
        assert!(b8 < 8.0 * short);
        assert!(m.decode_ms(0, 1).is_err());
    }

    #[test]
    fn compiled_token_model_buckets_sessions() {
        let chip = Chip::new(ChipConfig::dtu20());
        let w = GenerativeModel::new(GenerativeConfig::tiny(), 32);
        let mut m = CompiledTokenModel::new(&chip, w, 32);
        // Contexts 33 and 60 share the 64-bucket; batches 3 and 4 share
        // the 4-bucket — one compiled session for all four calls.
        let a = m.decode_ms(3, 33).unwrap();
        let b = m.decode_ms(4, 60).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.cached_sessions(), 1);
        assert_eq!(m.cache_stats().misses, 1);
        assert_eq!(m.cache_stats().hits, 1);
        // A new context bucket compiles a new session.
        m.decode_ms(3, 100).unwrap();
        assert_eq!(m.cached_sessions(), 2);
        assert_eq!((bucket(3), bucket(100)), (4, 128));
    }

    #[test]
    fn compiled_prefill_scales_to_requested_tokens() {
        let chip = Chip::new(ChipConfig::dtu20());
        let w = GenerativeModel::new(GenerativeConfig::tiny(), 64);
        let mut m = CompiledTokenModel::new(&chip, w, 64);
        let bound = m.prefill_ms(1, 64).unwrap();
        let resumed = m.prefill_ms(1, 96).unwrap();
        assert!(bound > 0.0);
        assert!((resumed - bound * 1.5).abs() < 1e-9);
    }

    #[test]
    fn decode_step_is_much_cheaper_than_prefill() {
        // The serving-side restatement of the graph-level MAC split.
        let chip = Chip::new(ChipConfig::dtu20());
        let w = GenerativeModel::new(GenerativeConfig::tiny(), 256);
        let mut m = CompiledTokenModel::new(&chip, w, 256);
        let prefill = m.prefill_ms(1, 256).unwrap();
        let decode = m.decode_ms(1, 256).unwrap();
        assert!(
            decode < prefill,
            "decode {decode} ms should undercut prefill {prefill} ms"
        );
    }

    #[test]
    fn prefill_only_adapter_serves_like_a_single_shot_model() {
        let mut m = PrefillOnly::new(AnalyticTokenModel::new("gen"), 128);
        let p = Placement::explicit(vec![GroupId::new(0, 0)]);
        let one = m.service_ms(1, &p).unwrap();
        let inner = AnalyticTokenModel::new("gen").prefill_ms(1, 128).unwrap();
        assert_eq!(one, inner);
        assert_eq!(m.name(), "gen");
    }
}
