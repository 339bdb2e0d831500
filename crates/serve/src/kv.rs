//! Paged KV-cache allocator charged against the DTU's three-level
//! memory model.
//!
//! Generative decode reads the whole KV-cache every token, so cache
//! *placement* — not arithmetic — dominates the step cost. This module
//! models it the way a paged attention runtime does:
//!
//! * Tokens are stored in fixed-size **pages** ([`KvCacheConfig::page_tokens`]
//!   tokens each). A sequence holds `ceil(tokens / page_tokens)` pages;
//!   pages are reserved before a step runs and freed when the sequence
//!   completes (or is preempted).
//! * The **pool** is bounded by L3 capacity ([`KvCacheConfig::total_pages`]).
//!   When a reservation fails the serving engine must shed or preempt —
//!   the allocator never overcommits.
//! * Each decode step **charges** the bytes it streams: sequences whose
//!   pages fit in the L2-resident budget (oldest-first, up to
//!   [`KvCacheConfig::l2_pages`]) read at L2 speed and cost nothing
//!   extra; the overflow is **spill traffic** — DMA reads from L3 whose
//!   time (`bytes / l3_gb_per_s`) is added to the step latency by the
//!   caller.
//!
//! The allocator is deterministic: identical reservation/release
//! sequences produce identical occupancy and spill accounting, which is
//! what keeps generative serving byte-stable across `--jobs`.

use dtu_sim::ChipConfig;

/// Sizing of the paged KV-cache pool against a chip's memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvCacheConfig {
    /// Tokens per page.
    pub page_tokens: usize,
    /// Bytes of KV state per token per sequence (from
    /// `Workload::kv_bytes_per_token`).
    pub bytes_per_token: u64,
    /// Total pages the pool may hold (bounded by L3 capacity).
    pub total_pages: usize,
    /// Pages that fit in the L2-resident hot set.
    pub l2_pages: usize,
    /// L3 DMA bandwidth, GB/s — converts spilled bytes to milliseconds.
    pub l3_gb_per_s: f64,
}

impl KvCacheConfig {
    /// Default page granularity: 16 tokens, the paged-attention sweet
    /// spot between fragmentation and allocator churn.
    pub const DEFAULT_PAGE_TOKENS: usize = 16;

    /// Sizes the pool for a chip: the whole L3 backs the page pool, and
    /// the aggregate L2 (all groups) is the resident hot set.
    pub fn for_chip(chip: &ChipConfig, bytes_per_token: u64) -> Self {
        Self::for_chip_with_budget(chip, bytes_per_token, 1.0)
    }

    /// Like [`for_chip`](Self::for_chip) but with only `l3_fraction` of
    /// L3 granted to the pool — weights and activations need the rest,
    /// and constrained-capacity experiments shrink it further.
    pub fn for_chip_with_budget(chip: &ChipConfig, bytes_per_token: u64, l3_fraction: f64) -> Self {
        // This constructor cannot return a `Result`: a zero token size
        // would divide by zero below, and the pool never exceeds L3.
        let page_bytes = Self::DEFAULT_PAGE_TOKENS as u64 * bytes_per_token.max(1);
        let l3_budget = (chip.l3_bytes() as f64 * l3_fraction.clamp(0.0, 1.0)) as u64;
        let l2_total = chip.l2_bytes_per_group() * chip.total_groups() as u64;
        KvCacheConfig {
            page_tokens: Self::DEFAULT_PAGE_TOKENS,
            // The same guard as `page_bytes`, kept in step with it.
            bytes_per_token: bytes_per_token.max(1),
            total_pages: (l3_budget / page_bytes) as usize,
            l2_pages: (l2_total / page_bytes) as usize,
            l3_gb_per_s: chip.l3_gb_per_s,
        }
    }

    /// Bytes in one page.
    pub fn page_bytes(&self) -> u64 {
        self.page_tokens as u64 * self.bytes_per_token
    }

    /// Pages needed to hold `tokens` tokens of KV state.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_tokens)
    }
}

/// Per-sequence page reservation.
#[derive(Debug, Clone, Copy)]
struct Seq {
    id: u64,
    pages: usize,
}

/// Cumulative allocator statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KvStats {
    /// Total page reservations granted over the run.
    pub pages_allocated: u64,
    /// Reservations refused because the pool was exhausted.
    pub exhaustions: u64,
    /// Bytes streamed from L3 because the decode working set exceeded
    /// the L2-resident budget.
    pub spill_bytes: u64,
    /// High-water mark of concurrently held pages.
    pub peak_pages: usize,
}

/// The paged KV-cache allocator.
///
/// Holds one reservation per active sequence. `try_reserve` grows a
/// sequence to a token count (allocating whole pages), `release` frees
/// everything a sequence holds, and `charge_step` computes the L3 spill
/// bytes for one decode iteration over the current residents.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    cfg: KvCacheConfig,
    seqs: Vec<Seq>,
    in_use: usize,
    stats: KvStats,
}

impl PagedKvCache {
    /// An empty pool.
    pub fn new(cfg: KvCacheConfig) -> Self {
        PagedKvCache {
            cfg,
            seqs: Vec::new(),
            in_use: 0,
            stats: KvStats::default(),
        }
    }

    /// The sizing this pool was built with.
    pub fn config(&self) -> &KvCacheConfig {
        &self.cfg
    }

    /// Pages currently reserved.
    pub fn pages_in_use(&self) -> usize {
        self.in_use
    }

    /// Pages still free.
    pub fn pages_free(&self) -> usize {
        self.cfg.total_pages - self.in_use
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Grows (or creates) sequence `id`'s reservation to cover `tokens`
    /// tokens. Returns `false` — recording an exhaustion, allocating
    /// nothing — if the pool cannot hold the growth. Never shrinks.
    pub fn try_reserve(&mut self, id: u64, tokens: usize) -> bool {
        let want = self.cfg.pages_for(tokens);
        let held = match self.seqs.iter().position(|s| s.id == id) {
            Some(i) => i,
            None => {
                self.seqs.push(Seq { id, pages: 0 });
                self.seqs.len() - 1
            }
        };
        let have = self.seqs[held].pages;
        if want <= have {
            return true;
        }
        let grow = want - have;
        if grow > self.pages_free() {
            if self.seqs[held].pages == 0 {
                self.seqs.remove(held);
            }
            self.stats.exhaustions += 1;
            return false;
        }
        self.seqs[held].pages = want;
        self.in_use += grow;
        self.stats.pages_allocated += grow as u64;
        self.stats.peak_pages = self.stats.peak_pages.max(self.in_use);
        true
    }

    /// Frees every page sequence `id` holds. Returns the page count
    /// released (0 if the sequence held nothing).
    pub fn release(&mut self, id: u64) -> usize {
        if let Some(i) = self.seqs.iter().position(|s| s.id == id) {
            let pages = self.seqs.remove(i).pages;
            self.in_use -= pages;
            pages
        } else {
            0
        }
    }

    /// Charges one decode iteration: every resident sequence streams
    /// its whole reservation; the oldest sequences (insertion order —
    /// the continuous batcher admits oldest-first) occupy the
    /// L2-resident budget, and the rest spills from L3. Returns the
    /// milliseconds of DMA time the spill adds to the step.
    pub fn charge_step(&mut self) -> f64 {
        let mut l2_left = self.cfg.l2_pages;
        let mut spill_pages = 0usize;
        for s in &self.seqs {
            let resident = s.pages.min(l2_left);
            l2_left -= resident;
            spill_pages += s.pages - resident;
        }
        let bytes = spill_pages as u64 * self.cfg.page_bytes();
        self.stats.spill_bytes += bytes;
        // GB/s == bytes/µs·1e-3 → ms = bytes / (gb_per_s · 1e6).
        bytes as f64 / (self.cfg.l3_gb_per_s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(total: usize, l2: usize) -> KvCacheConfig {
        KvCacheConfig {
            page_tokens: 16,
            bytes_per_token: 1024,
            total_pages: total,
            l2_pages: l2,
            l3_gb_per_s: 100.0,
        }
    }

    #[test]
    fn for_chip_matches_hand_sizing() {
        let chip = ChipConfig::dtu20();
        // 128 KiB/token (the 1B-class config): page = 2 MiB.
        let kv = KvCacheConfig::for_chip(&chip, 128 * 1024);
        assert_eq!(kv.page_bytes(), 2 * 1024 * 1024);
        // 16 GiB L3 / 2 MiB pages.
        assert_eq!(kv.total_pages, 8192);
        // 48 MiB aggregate L2 / 2 MiB pages.
        assert_eq!(kv.l2_pages, 24);
        // Fractional budget shrinks the pool proportionally.
        let tight = KvCacheConfig::for_chip_with_budget(&chip, 128 * 1024, 0.25);
        assert_eq!(tight.total_pages, 2048);
        assert_eq!(tight.l2_pages, kv.l2_pages);
    }

    #[test]
    fn reserve_grows_in_whole_pages_and_never_shrinks() {
        let mut kv = PagedKvCache::new(cfg(10, 10));
        assert!(kv.try_reserve(1, 1)); // 1 page
        assert_eq!(kv.pages_in_use(), 1);
        assert!(kv.try_reserve(1, 16)); // still 1 page
        assert_eq!(kv.pages_in_use(), 1);
        assert!(kv.try_reserve(1, 17)); // 2 pages
        assert_eq!(kv.pages_in_use(), 2);
        assert!(kv.try_reserve(1, 5)); // no shrink
        assert_eq!(kv.pages_in_use(), 2);
        assert_eq!(kv.stats().pages_allocated, 2);
    }

    #[test]
    fn exhaustion_refuses_without_partial_allocation() {
        let mut kv = PagedKvCache::new(cfg(4, 4));
        assert!(kv.try_reserve(1, 48)); // 3 pages
        assert!(!kv.try_reserve(2, 32)); // needs 2, only 1 free
        assert_eq!(kv.pages_in_use(), 3, "failed reserve must not leak");
        assert_eq!(kv.stats().exhaustions, 1);
        // The refused sequence holds nothing, so releasing it is a no-op.
        assert_eq!(kv.release(2), 0);
        // A 1-page ask still fits.
        assert!(kv.try_reserve(3, 16));
        assert_eq!(kv.pages_in_use(), 4);
        assert_eq!(kv.stats().peak_pages, 4);
    }

    #[test]
    fn release_returns_pages_to_the_pool() {
        let mut kv = PagedKvCache::new(cfg(4, 4));
        assert!(kv.try_reserve(1, 64)); // all 4 pages
        assert!(!kv.try_reserve(2, 16));
        assert_eq!(kv.release(1), 4);
        assert_eq!(kv.pages_in_use(), 0);
        assert!(kv.try_reserve(2, 16));
    }

    #[test]
    fn charge_step_spills_only_past_the_l2_budget() {
        let mut kv = PagedKvCache::new(cfg(100, 3));
        assert!(kv.try_reserve(1, 32)); // 2 pages — resident
        assert!(kv.try_reserve(2, 32)); // 2 pages — 1 resident, 1 spilled
        let ms = kv.charge_step();
        let page = kv.config().page_bytes();
        assert_eq!(kv.stats().spill_bytes, page);
        let expect_ms = page as f64 / (100.0 * 1e6);
        assert!((ms - expect_ms).abs() < 1e-12);
        // Oldest-first residency: releasing seq 1 makes seq 2 resident.
        kv.release(1);
        assert_eq!(kv.charge_step(), 0.0);
        assert_eq!(kv.stats().spill_bytes, page);
    }

    #[test]
    fn charge_step_with_everything_resident_is_free() {
        let mut kv = PagedKvCache::new(cfg(10, 10));
        assert!(kv.try_reserve(1, 160));
        assert_eq!(kv.charge_step(), 0.0);
        assert_eq!(kv.stats().spill_bytes, 0);
    }
}
