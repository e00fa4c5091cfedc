//! Superblock cache for the emulation fast path.
//!
//! Replaying an attested operation executes the same instructions over and
//! over — every loop iteration, and (server-side) every proof of the same
//! operation. Instead of re-running the decoder on each step, the core
//! stitches straight-line runs of predecoded instructions ("superblocks",
//! the threaded-code/TB-chaining idea from emulator literature) and
//! dispatches them block-at-a-time, so the steady-state loop pays the
//! cache probe, the log-site test and the halt/IRQ checks once per block
//! instead of once per step.
//!
//! # Soundness: page write-generations
//!
//! A cached block is reused only while every code page it was stitched
//! from still carries the write-generation seen at stitch time
//! ([`Block::is_fresh`]). The bus bumps a page's generation on any
//! mutation — a CPU store, self-modifying code, a DMA master, the DIALED
//! verifier's input injection, or a bulk image reload between proofs — so
//! stale blocks are re-stitched with no invalidation hooks to forget.
//!
//! # Layout: paged table
//!
//! Blocks are indexed by entry PC in [`PAGES`] lazily allocated pages of
//! [`PAGE_SLOTS`] word-aligned slots (1 KiB of address space per page).
//! Operations occupy a few KiB of code, so a cold verifier materialises a
//! handful of pages instead of a dense table over the whole address space.

use crate::isa::Insn;
use crate::mem::{Bus, GEN_PAGE_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum instruction length in words (opcode + src ext + dst ext).
pub(crate) const MAX_INSN_WORDS: usize = 3;

/// Word-aligned slots per page (1 KiB of address space).
const PAGE_SLOTS: usize = 512;
/// Pages covering the 64 KiB address space.
const PAGES: usize = 0x1_0000 / 2 / PAGE_SLOTS;

/// Maximum instructions stitched into one superblock. Long enough to cover
/// the straight-line body between log sites of instrumented operations,
/// short enough that a step-budget-bounded dispatch rarely splits a block.
pub(crate) const MAX_BLOCK_INSNS: usize = 64;

/// Maximum distinct write-generation pages a block's code may span: every
/// instruction *starts* inside the entry page, and at most the extension
/// words of a tail instruction straddle into the following page.
pub(crate) const MAX_BLOCK_PAGES: usize = 2;

/// Base address of the write-generation page containing `addr`.
#[inline]
pub(crate) fn page_base(addr: u16) -> u16 {
    addr & !(GEN_PAGE_BYTES as u16 - 1)
}

/// One predecoded instruction inside a superblock: the decoded form plus
/// its precomputed fall-through PC and cycle count, so dispatch never
/// recomputes lengths or timings.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockInsn {
    pub(crate) pc: u16,
    pub(crate) next_pc: u16,
    pub(crate) insn: Insn,
    pub(crate) cycles: u32,
}

/// A straight-line superblock: predecoded instructions from the entry PC up
/// to the first control-flow instruction, SR write, break (log-site)
/// address, page-boundary crossing, or the [`MAX_BLOCK_INSNS`] cap.
///
/// Reuse is validated by comparing the live write-generations of every code
/// page the block was stitched from ([`Block::is_fresh`]); any mismatch
/// forces a re-stitch. This keeps self-modifying code and bulk image
/// reloads sound without the block ever re-reading its encoding words.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) insns: Vec<BlockInsn>,
    bus_id: u64,
    /// (page base, generation at stitch time) per code page read.
    pages: [(u16, u64); MAX_BLOCK_PAGES],
    npages: u8,
}

impl Block {
    pub(crate) fn new(bus_id: u64, entry_page: u16, entry_gen: u64) -> Self {
        Self {
            insns: Vec::new(),
            bus_id,
            pages: [(entry_page, entry_gen); MAX_BLOCK_PAGES],
            npages: 1,
        }
    }

    /// Records an additional code page the block reads from (a tail
    /// instruction straddling past the entry page). Returns `false` when
    /// the page cannot be tracked (foreign bus identity or capacity).
    pub(crate) fn note_page(&mut self, bus_id: u64, base: u16, gen: u64) -> bool {
        if bus_id != self.bus_id {
            return false;
        }
        for &(b, g) in &self.pages[..usize::from(self.npages)] {
            if b == base {
                return g == gen;
            }
        }
        if usize::from(self.npages) == MAX_BLOCK_PAGES {
            return false;
        }
        self.pages[usize::from(self.npages)] = (base, gen);
        self.npages += 1;
        true
    }

    /// Do all code pages still carry the generations seen at stitch time?
    #[inline]
    pub(crate) fn is_fresh(&self, bus: &impl Bus) -> bool {
        self.pages[..usize::from(self.npages)]
            .iter()
            .all(|&(base, gen)| bus.page_generation(base) == Some((self.bus_id, gen)))
    }

    /// Does `addr` fall inside one of the block's code pages? Used to spot
    /// a store that may have patched an instruction later in this block.
    #[inline]
    pub(crate) fn covers(&self, addr: u16) -> bool {
        let base = page_base(addr);
        self.pages[..usize::from(self.npages)].iter().any(|&(b, _)| b == base)
    }
}

/// Superblock cache counters, exposed for tests and throughput benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SuperblockStats {
    /// Block dispatches served from the cache (every page generation matched).
    pub hits: u64,
    /// Cold stitches: no block existed at the entry PC.
    pub misses: u64,
    /// Re-stitches: a cached block's page generations no longer matched
    /// (self-modifying code, input injection, or an image reload).
    pub restitches: u64,
}

static PROC_HITS: AtomicU64 = AtomicU64::new(0);
static PROC_MISSES: AtomicU64 = AtomicU64::new(0);
static PROC_RESTITCHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide aggregate of every core's superblock counters.
///
/// Fleet workloads create short-lived per-worker cores whose local stats
/// die with them; this aggregate is what the fleet throughput harness
/// reports. Counters are bumped once per block *dispatch*, not per step,
/// so the relaxed atomics stay off the per-instruction path.
#[must_use]
pub fn process_superblock_stats() -> SuperblockStats {
    SuperblockStats {
        hits: PROC_HITS.load(Ordering::Relaxed),
        misses: PROC_MISSES.load(Ordering::Relaxed),
        restitches: PROC_RESTITCHES.load(Ordering::Relaxed),
    }
}

/// Addresses at which a superblock must end *before* the instruction, so
/// the address only ever executes as a block **entry**.
///
/// This is how the per-step log-site bitmap probe is folded into block
/// construction: the DIALED verifier marks its input-log sites here, then
/// only tests `is_input` at block entries — a marked PC can never hide in
/// the middle of a block. One bit per address, like the verifier's
/// `SiteIndex`.
#[derive(Clone, Debug)]
pub struct BlockBreaks {
    bits: Box<[u8; 0x2000]>,
}

impl BlockBreaks {
    /// An empty break set.
    #[must_use]
    pub fn new() -> Self {
        Self { bits: Box::new([0; 0x2000]) }
    }

    /// Marks `addr` as a mandatory block boundary.
    pub fn insert(&mut self, addr: u16) {
        self.bits[usize::from(addr >> 3)] |= 1 << (addr & 7);
    }

    /// Is `addr` a mandatory block boundary?
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: u16) -> bool {
        self.bits[usize::from(addr >> 3)] & (1 << (addr & 7)) != 0
    }
}

impl Default for BlockBreaks {
    fn default() -> Self {
        Self::new()
    }
}

type BlockPage = Box<[Option<Box<Block>>; PAGE_SLOTS]>;

/// Paged entry-PC-indexed table of superblocks (1 KiB of address space per
/// lazily allocated page).
#[derive(Debug)]
pub(crate) struct SuperCache {
    pages: [Option<BlockPage>; PAGES],
    stats: SuperblockStats,
    breaks: Option<Arc<BlockBreaks>>,
}

impl Default for SuperCache {
    fn default() -> Self {
        Self {
            pages: std::array::from_fn(|_| None),
            stats: SuperblockStats::default(),
            breaks: None,
        }
    }
}

/// The cache is a transparent accelerator: cloning yields a cold cache.
/// The break set is configuration, not cached state, and is carried over.
impl Clone for SuperCache {
    fn clone(&self) -> Self {
        Self {
            pages: std::array::from_fn(|_| None),
            stats: SuperblockStats::default(),
            breaks: self.breaks.clone(),
        }
    }
}

impl SuperCache {
    /// Removes and returns the block entered at `pc`, if cached. Dispatch
    /// takes ownership while executing (freeing the core for `&mut self`
    /// instruction execution) and puts the block back afterwards.
    #[inline]
    pub(crate) fn take(&mut self, pc: u16) -> Option<Box<Block>> {
        if pc & 1 != 0 {
            return None;
        }
        let slot = usize::from(pc) >> 1;
        let page = self.pages[slot / PAGE_SLOTS].as_mut()?;
        page[slot % PAGE_SLOTS].take()
    }

    /// Stores `block` as the superblock entered at `pc`.
    pub(crate) fn put(&mut self, pc: u16, block: Box<Block>) {
        if pc & 1 != 0 {
            return;
        }
        let slot = usize::from(pc) >> 1;
        let page = self.pages[slot / PAGE_SLOTS]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        page[slot % PAGE_SLOTS] = Some(block);
    }

    /// Drops every block (and returns the page allocations).
    pub(crate) fn flush(&mut self) {
        self.pages = std::array::from_fn(|_| None);
    }

    /// Is `pc` in the configured break set?
    #[inline]
    pub(crate) fn breaks_contain(&self, pc: u16) -> bool {
        self.breaks.as_ref().is_some_and(|b| b.contains(pc))
    }

    /// Installs (or clears) the break set. Blocks already stitched under a
    /// different set may span new break addresses, so any *change* —
    /// detected by `Arc` pointer identity, making the per-proof re-install
    /// from a shared set free — flushes the cache.
    pub(crate) fn set_breaks(&mut self, breaks: Option<Arc<BlockBreaks>>) {
        let same = match (&self.breaks, &breaks) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        if !same {
            self.flush();
            self.breaks = breaks;
        }
    }

    pub(crate) fn note_hit(&mut self) {
        self.stats.hits += 1;
        PROC_HITS.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
        PROC_MISSES.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_restitch(&mut self) {
        self.stats.restitches += 1;
        PROC_RESTITCHES.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> SuperblockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_breaks_bitmap_round_trips() {
        let mut b = BlockBreaks::new();
        for addr in [0x0000u16, 0xE001, 0xE002, 0xFFFF] {
            assert!(!b.contains(addr));
            b.insert(addr);
            assert!(b.contains(addr));
        }
        assert!(!b.contains(0xE000));
        assert!(!b.contains(0xE003));
    }

    #[test]
    fn block_page_tracking_caps_and_dedupes() {
        let mut blk = Block::new(7, 0xE000, 3);
        assert!(blk.covers(0xE3FF));
        assert!(!blk.covers(0xE400));
        // Re-noting the entry page with the same generation is a no-op...
        assert!(blk.note_page(7, 0xE000, 3));
        // ...but a different generation or bus is a refusal.
        assert!(!blk.note_page(7, 0xE000, 4));
        assert!(!blk.note_page(8, 0xE400, 3));
        // Second page fits; a third does not.
        assert!(blk.note_page(7, 0xE400, 9));
        assert!(blk.covers(0xE400));
        assert!(!blk.note_page(7, 0xE800, 1));
    }
}
