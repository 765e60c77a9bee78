//! Shared-memory designation — §4.1.2 "Parallel Environment".
//!
//! The paper identifies four ways the six machines decide *what is shared*:
//!
//! * **compile time** (HEP, Flex/32): shared declarations simply become
//!   shared COMMON; nothing else to do ([`CompileTimeSharing`]);
//! * **link time** (Sequent Balance): a generated startup routine per
//!   module reports its shared variables, the program is run twice, and
//!   the first run pipes linker commands to a shell
//!   ([`LinkTimeSharing`], backed by [`crate::linkreg::StartupRegistry`]);
//! * **run time, paged** (Encore Multimax): shared variables live in shared
//!   pages and the implementation pads the beginning and end of the shared
//!   area so private data never cohabits a shared page
//!   ([`RunTimePagedSharing`]);
//! * **run time, page-aligned** (Alliant FX/8): like Encore "except that
//!   all sharing must start at the beginning of a page"
//!   ([`PageAlignedSharing`]).
//!
//! A [`SharingModel`] lays out named COMMON blocks into one shared word
//! array; [`SharedRegion`] is that array (word-grained atomics, so any mix
//! of processes may read and write without UB — races, if a Force program
//! has them, show up as value races exactly as they did on the real
//! machines, never as memory unsafety).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::linkreg::StartupRegistry;
use crate::stats::StatsHandle;

/// Identifies one of the paper's sharing strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingModelId {
    /// Shared at compile time (HEP, Flex/32).
    CompileTime,
    /// Shared at link time via startup-routine registry (Sequent).
    LinkTime,
    /// Shared pages identified at run time, padded front and back (Encore).
    RunTimePaged,
    /// Run-time sharing, every block page-aligned (Alliant).
    PageAligned,
}

impl SharingModelId {
    /// The paper's description of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            SharingModelId::CompileTime => "compile-time shared COMMON",
            SharingModelId::LinkTime => "link-time (startup-routine registry)",
            SharingModelId::RunTimePaged => "run-time shared pages (padded)",
            SharingModelId::PageAligned => "run-time shared pages (page-aligned blocks)",
        }
    }
}

/// A request to place one named COMMON block of `words` 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRequest {
    /// COMMON block name.
    pub name: String,
    /// Size in 64-bit words.
    pub words: usize,
}

impl BlockRequest {
    /// A request for block `name` of `words` words.
    pub fn new(name: impl Into<String>, words: usize) -> Self {
        BlockRequest {
            name: name.into(),
            words,
        }
    }
}

/// The result of laying out blocks: offsets into one shared region.
#[derive(Debug, Clone)]
pub struct SharedLayout {
    /// block name -> (first word offset, length in words)
    offsets: HashMap<String, (usize, usize)>,
    /// Total region size in words, padding included.
    pub total_words: usize,
    /// Words spent on padding/alignment.
    pub padding_words: usize,
    /// Which model produced the layout.
    pub model: SharingModelId,
}

impl SharedLayout {
    /// Offset and length of a named block.
    pub fn block(&self, name: &str) -> Option<(usize, usize)> {
        self.offsets.get(name).copied()
    }
}

/// Errors produced while designating shared memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SharingError {
    /// The same block name was requested twice.
    DuplicateBlock(String),
    /// Link-time sharing used before the startup registry was finalized
    /// (the Sequent's "second run" had not happened yet).
    RegistryNotFinalized,
    /// A block was laid out that no startup routine ever registered.
    UnregisteredBlock(String),
    /// A block was registered with one size and laid out with another.
    SizeMismatch {
        /// Block name.
        block: String,
        /// Size the startup routine registered.
        registered: usize,
        /// Size the layout requested.
        requested: usize,
    },
}

impl std::fmt::Display for SharingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SharingError::DuplicateBlock(n) => write!(f, "duplicate shared block `{n}`"),
            SharingError::RegistryNotFinalized => write!(
                f,
                "link-time sharing requires the startup registry to be finalized (run the link pass first)"
            ),
            SharingError::UnregisteredBlock(n) => {
                write!(f, "shared block `{n}` was never registered by a startup routine")
            }
            SharingError::SizeMismatch {
                block,
                registered,
                requested,
            } => write!(
                f,
                "shared block `{block}` registered with {registered} words but laid out with {requested}"
            ),
        }
    }
}

impl std::error::Error for SharingError {}

/// Strategy interface: how a machine designates shared storage.
pub trait SharingModel: Send + Sync {
    /// Which strategy this is.
    fn id(&self) -> SharingModelId;

    /// Lay out the given blocks into one shared region.
    fn layout(&self, blocks: &[BlockRequest]) -> Result<SharedLayout, SharingError>;

    /// The startup registry this model lays out from: `Some` under
    /// link-time sharing only.
    fn link_registry(&self) -> Option<&StartupRegistry> {
        None
    }
}

fn check_duplicates(blocks: &[BlockRequest]) -> Result<(), SharingError> {
    let mut seen = HashMap::new();
    for b in blocks {
        if seen.insert(b.name.as_str(), ()).is_some() {
            return Err(SharingError::DuplicateBlock(b.name.clone()));
        }
    }
    Ok(())
}

/// HEP / Flex/32: declarations are shared by the compiler; blocks pack
/// back to back with no padding.
pub struct CompileTimeSharing;

impl SharingModel for CompileTimeSharing {
    fn id(&self) -> SharingModelId {
        SharingModelId::CompileTime
    }

    fn layout(&self, blocks: &[BlockRequest]) -> Result<SharedLayout, SharingError> {
        check_duplicates(blocks)?;
        let mut offsets = HashMap::new();
        let mut at = 0usize;
        for b in blocks {
            offsets.insert(b.name.clone(), (at, b.words));
            at += b.words;
        }
        Ok(SharedLayout {
            offsets,
            total_words: at,
            padding_words: 0,
            model: SharingModelId::CompileTime,
        })
    }
}

/// Sequent Balance: the linker must be told every shared name; the
/// registry collects them on the first "run" and the layout is only legal
/// after `finalize` (the second run).
///
/// Both belong to one *program*: the double-run protocol links one
/// program's shared names, so each program session gets a model (and a
/// registry) of its own ([`Machine::sharing_model`]).
///
/// [`Machine::sharing_model`]: crate::machine::Machine::sharing_model
#[derive(Default)]
pub struct LinkTimeSharing {
    registry: StartupRegistry,
}

impl SharingModel for LinkTimeSharing {
    fn id(&self) -> SharingModelId {
        SharingModelId::LinkTime
    }

    fn link_registry(&self) -> Option<&StartupRegistry> {
        Some(&self.registry)
    }

    fn layout(&self, blocks: &[BlockRequest]) -> Result<SharedLayout, SharingError> {
        check_duplicates(blocks)?;
        if !self.registry.is_finalized() {
            return Err(SharingError::RegistryNotFinalized);
        }
        let mut offsets = HashMap::new();
        let mut at = 0usize;
        for b in blocks {
            match self.registry.registered_size(&b.name) {
                None => return Err(SharingError::UnregisteredBlock(b.name.clone())),
                Some(sz) if sz != b.words => {
                    return Err(SharingError::SizeMismatch {
                        block: b.name.clone(),
                        registered: sz,
                        requested: b.words,
                    })
                }
                Some(_) => {}
            }
            offsets.insert(b.name.clone(), (at, b.words));
            at += b.words;
        }
        Ok(SharedLayout {
            offsets,
            total_words: at,
            padding_words: 0,
            model: SharingModelId::LinkTime,
        })
    }
}

fn round_up(x: usize, to: usize) -> usize {
    debug_assert!(to > 0);
    x.div_ceil(to) * to
}

/// Encore Multimax: shared variables live in shared pages; the Force pads
/// "the extra space at the beginning and the end of the shared area to
/// ensure separation of shared and private declarations" (§4.1.2).
pub struct RunTimePagedSharing {
    page_words: usize,
}

impl RunTimePagedSharing {
    /// # Panics
    /// Panics on a zero page size.
    pub fn new(page_words: usize) -> Self {
        assert!(page_words > 0, "page size must be positive");
        RunTimePagedSharing { page_words }
    }
}

impl SharingModel for RunTimePagedSharing {
    fn id(&self) -> SharingModelId {
        SharingModelId::RunTimePaged
    }

    fn layout(&self, blocks: &[BlockRequest]) -> Result<SharedLayout, SharingError> {
        check_duplicates(blocks)?;
        let mut offsets = HashMap::new();
        // A full leading pad page keeps preceding private data off the
        // first shared page.
        let mut at = self.page_words;
        let lead = at;
        for b in blocks {
            offsets.insert(b.name.clone(), (at, b.words));
            at += b.words;
        }
        // Round the end up to a page boundary and add a trailing pad page.
        let data_end = at;
        let rounded = round_up(data_end, self.page_words);
        let total = rounded + self.page_words;
        let padding = lead + (rounded - data_end) + self.page_words;
        Ok(SharedLayout {
            offsets,
            total_words: total,
            padding_words: padding,
            model: SharingModelId::RunTimePaged,
        })
    }
}

/// Alliant FX/8: "very similar to Encore except that all sharing must
/// start at the beginning of a page" — every block is page-aligned.
pub struct PageAlignedSharing {
    page_words: usize,
}

impl PageAlignedSharing {
    /// # Panics
    /// Panics on a zero page size.
    pub fn new(page_words: usize) -> Self {
        assert!(page_words > 0, "page size must be positive");
        PageAlignedSharing { page_words }
    }
}

impl SharingModel for PageAlignedSharing {
    fn id(&self) -> SharingModelId {
        SharingModelId::PageAligned
    }

    fn layout(&self, blocks: &[BlockRequest]) -> Result<SharedLayout, SharingError> {
        check_duplicates(blocks)?;
        let mut offsets = HashMap::new();
        let mut at = 0usize;
        let mut padding = 0usize;
        for b in blocks {
            let aligned = round_up(at, self.page_words);
            padding += aligned - at;
            offsets.insert(b.name.clone(), (aligned, b.words));
            at = aligned + b.words;
        }
        let total = round_up(at, self.page_words);
        padding += total - at;
        Ok(SharedLayout {
            offsets,
            total_words: total,
            padding_words: padding,
            model: SharingModelId::PageAligned,
        })
    }
}

/// The shared word array every process of the force sees.
///
/// Words are `AtomicU64` accessed with `Relaxed` loads/stores by default:
/// this models ordinary shared memory (no implicit synchronization — the
/// Force requires explicit locks/barriers for that, exactly like the
/// original machines) while keeping Rust's memory model intact.
pub struct SharedRegion {
    words: Box<[AtomicU64]>,
    layout: SharedLayout,
}

impl SharedRegion {
    /// Allocate a zero-initialized region for a layout.  The designation
    /// charge is context-preferred (see [`StatsHandle`]): a region
    /// allocated under a session's ambient binding bills that session's
    /// counter block, not just the machine total.
    pub fn allocate(layout: SharedLayout, stats: impl Into<StatsHandle>) -> Self {
        let stats = stats.into();
        stats.add(|s| &s.shared_words, layout.total_words as u64);
        stats.add(|s| &s.padding_words, layout.padding_words as u64);
        let words = (0..layout.total_words)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SharedRegion { words, layout }
    }

    /// The layout this region was allocated for.
    pub fn layout(&self) -> &SharedLayout {
        &self.layout
    }

    /// Zero every word in place, restoring the freshly-allocated state
    /// for a session's next run.  Unlike reallocating, this charges no
    /// `shared_words` designation cost — a resident session pays for
    /// shared-memory designation once, not per run.  Must only be called
    /// while no process is accessing the region.
    pub fn reset(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Region length in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Raw word load.
    #[inline]
    pub fn load_raw(&self, offset: usize) -> u64 {
        self.words[offset].load(Ordering::Relaxed)
    }

    /// Raw word store.
    #[inline]
    pub fn store_raw(&self, offset: usize, value: u64) {
        self.words[offset].store(value, Ordering::Relaxed)
    }

    /// Load a word with `Acquire` ordering (used right after a lock
    /// acquisition in the interpreter's synchronization idioms).
    #[inline]
    pub fn load_acquire(&self, offset: usize) -> u64 {
        self.words[offset].load(Ordering::Acquire)
    }

    /// Store a word with `Release` ordering.
    #[inline]
    pub fn store_release(&self, offset: usize, value: u64) {
        self.words[offset].store(value, Ordering::Release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpStats;
    use std::sync::Arc;

    fn blocks(specs: &[(&str, usize)]) -> Vec<BlockRequest> {
        specs
            .iter()
            .map(|(n, w)| BlockRequest::new(*n, *w))
            .collect()
    }

    #[test]
    fn compile_time_packs_tight() {
        let m = CompileTimeSharing;
        let l = m.layout(&blocks(&[("A", 10), ("B", 5)])).unwrap();
        assert_eq!(l.block("A"), Some((0, 10)));
        assert_eq!(l.block("B"), Some((10, 5)));
        assert_eq!(l.total_words, 15);
        assert_eq!(l.padding_words, 0);
    }

    #[test]
    fn duplicate_blocks_rejected() {
        let m = CompileTimeSharing;
        let err = m.layout(&blocks(&[("A", 1), ("A", 2)])).unwrap_err();
        assert_eq!(err, SharingError::DuplicateBlock("A".into()));
    }

    #[test]
    fn encore_pads_front_and_back() {
        let m = RunTimePagedSharing::new(8);
        let l = m.layout(&blocks(&[("A", 3)])).unwrap();
        // one lead pad page, data rounded to a page, one trailing pad page
        assert_eq!(l.block("A"), Some((8, 3)));
        assert_eq!(l.total_words, 8 + 8 + 8);
        assert_eq!(l.padding_words, 8 + 5 + 8);
    }

    #[test]
    fn encore_pad_is_exact_on_page_multiple() {
        let m = RunTimePagedSharing::new(4);
        let l = m.layout(&blocks(&[("A", 8)])).unwrap();
        assert_eq!(l.block("A"), Some((4, 8)));
        assert_eq!(l.total_words, 4 + 8 + 4);
        assert_eq!(l.padding_words, 8);
    }

    #[test]
    fn alliant_aligns_every_block() {
        let m = PageAlignedSharing::new(8);
        let l = m.layout(&blocks(&[("A", 3), ("B", 9)])).unwrap();
        assert_eq!(l.block("A"), Some((0, 3)));
        assert_eq!(l.block("B"), Some((8, 9))); // next page boundary
        assert_eq!(l.total_words, 24); // 8+9 rounded to page
        assert_eq!(l.padding_words, 5 + 7);
    }

    #[test]
    fn link_time_requires_finalized_registry() {
        let m = LinkTimeSharing::default();
        let reg = m.link_registry().expect("link-time sharing has one");
        let err = m.layout(&blocks(&[("A", 4)])).unwrap_err();
        assert_eq!(err, SharingError::RegistryNotFinalized);

        reg.register_module("MAIN", &[("A".into(), 4)]);
        reg.finalize();
        let l = m.layout(&blocks(&[("A", 4)])).unwrap();
        assert_eq!(l.block("A"), Some((0, 4)));
    }

    #[test]
    fn link_time_rejects_unregistered_and_mismatched() {
        let m = LinkTimeSharing::default();
        let reg = m.link_registry().expect("link-time sharing has one");
        reg.register_module("MAIN", &[("A".into(), 4)]);
        reg.finalize();
        assert_eq!(
            m.layout(&blocks(&[("B", 4)])).unwrap_err(),
            SharingError::UnregisteredBlock("B".into())
        );
        assert_eq!(
            m.layout(&blocks(&[("A", 5)])).unwrap_err(),
            SharingError::SizeMismatch {
                block: "A".into(),
                registered: 4,
                requested: 5
            }
        );
    }

    #[test]
    fn region_roundtrips_values() {
        let stats = Arc::new(OpStats::new());
        let m = CompileTimeSharing;
        let l = m.layout(&blocks(&[("A", 4)])).unwrap();
        let r = SharedRegion::allocate(l, &stats);
        r.store_raw(0, -7i64 as u64);
        assert_eq!(r.load_raw(0) as i64, -7);
        r.store_release(1, 2.5f64.to_bits());
        assert_eq!(f64::from_bits(r.load_acquire(1)), 2.5);
        assert_eq!(stats.snapshot().shared_words, 4);
    }

    #[test]
    fn region_is_visible_across_threads() {
        let stats = Arc::new(OpStats::new());
        let l = CompileTimeSharing.layout(&blocks(&[("A", 1)])).unwrap();
        let r = Arc::new(SharedRegion::allocate(l, &stats));
        let r2 = Arc::clone(&r);
        let t = std::thread::spawn(move || {
            r2.store_release(0, 99);
        });
        t.join().unwrap();
        assert_eq!(r.load_acquire(0), 99);
    }

    #[test]
    fn padding_counted_in_stats() {
        let stats = Arc::new(OpStats::new());
        let l = RunTimePagedSharing::new(8)
            .layout(&blocks(&[("A", 3)]))
            .unwrap();
        let pad = l.padding_words as u64;
        let _r = SharedRegion::allocate(l, &stats);
        assert_eq!(stats.snapshot().padding_words, pad);
    }
}
