//! A single set-associative cache level keyed by [`BlockName`].

use crate::{CacheConfig, LevelStats};
use hvc_types::{Asid, BlockName, LineAddr, Permissions, LINE_SHIFT, PAGE_SHIFT};

/// An evicted line returned to the caller for writeback handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// The unique name of the evicted block.
    pub name: BlockName,
    /// Whether the block was dirty (needs a writeback).
    pub dirty: bool,
}

/// Most cores a [`crate::Hierarchy`] supports: the LLC's directory keeps
/// one sharer bit per core in a 32-bit field of each line's metadata
/// word, and the directory-guided flushes rely on those bits being exact.
pub const MAX_CORES: usize = 32;

/// Per-line state other than the name, in unpacked form. In the slab it
/// is packed into one metadata word per way (see the `META_*` layout
/// constants); this struct is the working representation handed to
/// `retain_update` callbacks. `sharers` is used only by the LLC level of
/// a multi-core [`crate::Hierarchy`] to track which private caches hold
/// the block (MESI-style directory-in-LLC).
#[derive(Clone, Copy, Debug)]
struct Meta {
    dirty: bool,
    perm: Permissions,
    lru: u64,
    sharers: u32,
}

/// Packed-metadata word layout (one `u64` per way): bit 0 the dirty
/// flag, bits 1..4 the permission bits, bits 4..36 the sharer bitmap,
/// bits 36..64 the LRU stamp.
const META_DIRTY: u64 = 1;
const META_PERM_SHIFT: u32 = 1;
const META_SHARERS_SHIFT: u32 = 4;
const META_SHARERS_MASK: u64 = (u32::MAX as u64) << META_SHARERS_SHIFT;
const META_LRU_SHIFT: u32 = 36;
/// Largest LRU stamp a metadata word holds (28 bits). Before the tick
/// passes it, every set's stamps are renumbered by rank
/// (`Cache::renormalize_lru`).
const LRU_MAX: u64 = u64::MAX >> META_LRU_SHIFT;
const META_LRU_MASK: u64 = LRU_MAX << META_LRU_SHIFT;

#[inline]
fn pack_meta(m: Meta) -> u64 {
    debug_assert!(m.lru <= LRU_MAX, "LRU stamp {} overflows", m.lru);
    (m.dirty as u64)
        | ((m.perm.bits() as u64) << META_PERM_SHIFT)
        | ((m.sharers as u64) << META_SHARERS_SHIFT)
        | (m.lru << META_LRU_SHIFT)
}

#[inline]
fn unpack_meta(w: u64) -> Meta {
    Meta {
        dirty: (w & META_DIRTY) != 0,
        perm: meta_perm(w),
        lru: w >> META_LRU_SHIFT,
        sharers: (w >> META_SHARERS_SHIFT) as u32,
    }
}

#[inline]
fn meta_perm(w: u64) -> Permissions {
    Permissions::from_bits((w >> META_PERM_SHIFT) as u8)
}

/// The sharer-bitmap bit of `core` in a metadata word.
#[inline]
fn sharer_bit(core: usize) -> u64 {
    debug_assert!(core < MAX_CORES, "core {core} beyond the sharer bitmap");
    1 << (META_SHARERS_SHIFT as usize + core)
}

/// Width of a key's line field. Every line address is below 2^47: 52-bit
/// physical addresses give 46-bit lines, 48-bit virtual addresses 42-bit
/// ones, and the Enigma intermediate space marks its names with byte
/// address bit 46 (line bit 40).
const KEY_LINE_BITS: u32 = 47;
const KEY_LINE_MASK: u64 = (1 << KEY_LINE_BITS) - 1;

/// Key of an invalid slot. The 17-bit name tag above the line field is
/// `0` for a physical name and `asid + 1` (at most `1 << 16`) for a
/// virtual one, so no live key has every tag bit set. An invalid slot
/// therefore never compares equal to a probe key, and a way is live
/// exactly when its key is not this one: the row needs no occupancy
/// word.
const EMPTY_KEY: u64 = u64::MAX;

/// Lines per 4 KB page.
const LINES_PER_PAGE: u64 = 1 << (PAGE_SHIFT - LINE_SHIFT);

/// The block names of the 64 lines of virtual page `(asid, vpage)`.
pub(crate) fn virt_page_lines(asid: Asid, vpage: u64) -> impl Iterator<Item = BlockName> {
    let first = vpage * LINES_PER_PAGE;
    (first..first + LINES_PER_PAGE).map(move |l| BlockName::Virt(asid, LineAddr::new(l)))
}

/// The physical block names of the 64 lines of the frame holding byte
/// address `frame_base`.
pub(crate) fn phys_frame_lines(frame_base: u64) -> impl Iterator<Item = BlockName> {
    let first = (frame_base >> PAGE_SHIFT) * LINES_PER_PAGE;
    (first..first + LINES_PER_PAGE).map(|l| BlockName::Phys(LineAddr::new(l)))
}

/// A set-associative cache level keyed by the hybrid [`BlockName`].
///
/// Indexing uses the low line-address bits (as hardware does); the ASID
/// participates only in tag comparison, which is exactly the paper's tag
/// extension (Figure 2): `ASID | PA/VA tag | S | permission`.
///
/// Storage is one contiguous **set-interleaved** slab of `u64` words:
/// set `s` occupies the row `rows[s * stride .. (s + 1) * stride]`, laid
/// out as `[keys[ways] | meta[ways] | padding]` — the 8-byte keys a
/// probe scans (the 17-bit name tag over the line address above the
/// set-index bits; see `Cache::key_of`), then one packed metadata word
/// per way (LRU/dirty/permission/sharer state touched only on the way
/// that hit). That is 16 bytes per way. The stride is rounded up to a
/// whole number of 64-byte host cache lines, which for a power-of-two
/// way count needs no padding: a 16-way row is 256 bytes, four host
/// lines, all contiguous. Under the `simd` feature the key row is
/// compared in one vectorized sweep.
#[derive(Clone, Debug)]
#[cfg_attr(test, derive(PartialEq, Eq))]
pub struct Cache {
    config: CacheConfig,
    /// The set-interleaved slab (see the struct docs for the row layout).
    /// Invalid ways hold [`EMPTY_KEY`] and a zero metadata word; padding
    /// words are zero and never read.
    rows: Box<[u64]>,
    ways: usize,
    /// Row length in `u64` words: `2 * ways`, rounded up to a multiple
    /// of eight words (one 64-byte host line).
    stride: usize,
    set_mask: usize,
    /// `log2(sets)`: the line bits the set index supplies, left out of
    /// the key.
    set_shift: u32,
    tick: u64,
    stats: LevelStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 ways (a set's live ways
    /// are gathered into a `u64` bitmask).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = config.ways;
        assert!(ways <= 64, "at most 64 ways per set");
        let stride = (2 * ways + 7) & !7;
        let mut rows = vec![0u64; sets * stride].into_boxed_slice();
        for row in rows.chunks_exact_mut(stride) {
            row[..ways].fill(EMPTY_KEY);
        }
        Cache {
            rows,
            ways,
            stride,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            config,
            tick: 0,
            stats: LevelStats::default(),
        }
    }

    /// Returns the geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Returns accumulated statistics for this level.
    pub fn stats(&self) -> &LevelStats {
        &self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = LevelStats::default();
    }

    #[inline]
    fn set_index(&self, name: BlockName) -> usize {
        (name.line().as_u64() as usize) & self.set_mask
    }

    /// Packs `name` into its 8-byte key: the name tag (`0` physical,
    /// `asid + 1` virtual) above the line address with the set-index
    /// bits dropped. Within one set the packing is injective, so key
    /// equality is name equality and a set probe is a bare `u64` compare.
    #[inline]
    fn key_of(&self, name: BlockName) -> u64 {
        let (tag, line) = match name {
            BlockName::Phys(line) => (0, line.as_u64()),
            BlockName::Virt(asid, line) => (asid.as_u16() as u64 + 1, line.as_u64()),
        };
        debug_assert!(
            line >> KEY_LINE_BITS == 0,
            "line {line:#x} does not fit the key's line field"
        );
        (tag << KEY_LINE_BITS) | (line >> self.set_shift)
    }

    /// Inverse of [`Cache::key_of`] for a live slot of `set` (never
    /// called on [`EMPTY_KEY`]).
    #[inline]
    fn name_of(&self, set: usize, key: u64) -> BlockName {
        let line = LineAddr::new(((key & KEY_LINE_MASK) << self.set_shift) | set as u64);
        match key >> KEY_LINE_BITS {
            0 => BlockName::Phys(line),
            tag => BlockName::Virt(Asid::new((tag - 1) as u16), line),
        }
    }

    /// Slab index of `set`'s row (its first key).
    #[inline]
    fn row(&self, set: usize) -> usize {
        set * self.stride
    }

    /// `set`'s key slots.
    #[inline]
    fn keys(&self, set: usize) -> &[u64] {
        let row = self.row(set);
        &self.rows[row..row + self.ways]
    }

    /// Slab index of `way`'s packed metadata word within `set`.
    #[inline]
    fn meta_idx(&self, set: usize, way: usize) -> usize {
        set * self.stride + self.ways + way
    }

    /// Bitmask of `set`'s live ways: those whose key is not
    /// [`EMPTY_KEY`] (a branchless compare of the whole key row).
    #[inline]
    fn live_ways(&self, set: usize) -> u64 {
        let mut live = 0u64;
        for (w, &k) in self.keys(set).iter().enumerate() {
            live |= ((k != EMPTY_KEY) as u64) << w;
        }
        live
    }

    /// Advances the LRU clock and returns the new stamp. When the clock
    /// would outgrow the metadata word's stamp field, the stamps are
    /// renormalized first.
    #[inline]
    fn next_tick(&mut self) -> u64 {
        if self.tick == LRU_MAX {
            self.renormalize_lru();
        }
        self.tick += 1;
        self.tick
    }

    /// Renumbers every set's live stamps to their ranks `0..live`, oldest
    /// first, and restarts the clock above them. Stamps are unique among
    /// a set's live lines and only ever compared within one set, so every
    /// later victim choice is the one unbounded stamps would have made.
    #[cold]
    fn renormalize_lru(&mut self) {
        let mut order: Vec<(u64, usize)> = Vec::with_capacity(self.ways);
        for set in 0..=self.set_mask {
            let meta = self.meta_idx(set, 0);
            order.clear();
            order.extend(
                BitIter(self.live_ways(set)).map(|w| (self.rows[meta + w] >> META_LRU_SHIFT, w)),
            );
            order.sort_unstable();
            for (rank, &(_, w)) in order.iter().enumerate() {
                let m = &mut self.rows[meta + w];
                *m = (*m & !META_LRU_MASK) | ((rank as u64) << META_LRU_SHIFT);
            }
        }
        self.tick = self.ways as u64;
    }

    /// Finds the way holding `key` within `set`. Dispatches to the
    /// vector probe under the `simd` feature and the scalar walk
    /// otherwise; both paths are always compiled and equivalence-tested
    /// against each other (`tests/proptests.rs`).
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        #[cfg(feature = "simd")]
        {
            self.find_simd(set, key)
        }
        #[cfg(not(feature = "simd"))]
        {
            self.find_scalar(set, key)
        }
    }

    /// Portable probe: compare one 8-byte key at a time, stopping at the
    /// first match. Invalid slots hold [`EMPTY_KEY`], which matches no
    /// probe key, so no occupancy check is needed.
    #[inline]
    fn find_scalar(&self, set: usize, key: u64) -> Option<usize> {
        self.keys(set).iter().position(|&k| k == key)
    }

    /// Vector probe: compare the whole set's 8-byte keys against the
    /// probe key branchlessly (the compiler lowers the fixed-trip loop to
    /// SIMD compares — one `u64` lane per way) and collect the match
    /// bits. Single-name residency guarantees at most one match, so
    /// taking the lowest match bit is exact.
    #[inline]
    fn find_simd(&self, set: usize, key: u64) -> Option<usize> {
        let mut matches = 0u64;
        for (w, &k) in self.keys(set).iter().enumerate() {
            matches |= ((k == key) as u64) << w;
        }
        if matches != 0 {
            Some(matches.trailing_zeros() as usize)
        } else {
            None
        }
    }

    /// Scalar set probe of `name`, exposed (with [`Cache::probe_simd`])
    /// for the SIMD-vs-scalar equivalence proptests. Returns the hit
    /// way, if any.
    #[doc(hidden)]
    pub fn probe_scalar(&self, name: BlockName) -> Option<usize> {
        self.find_scalar(self.set_index(name), self.key_of(name))
    }

    /// Vector set probe of `name`; see [`Cache::probe_scalar`].
    #[doc(hidden)]
    pub fn probe_simd(&self, name: BlockName) -> Option<usize> {
        self.find_simd(self.set_index(name), self.key_of(name))
    }

    /// Touches the row `name` indexes into, pulling it toward the host
    /// caches ahead of the timing pass (the batched pipeline's software
    /// prefetch). Read-only: no LRU, statistics, or content effects, so
    /// issuing it never perturbs simulated state.
    #[inline]
    pub fn prefetch_set(&self, name: BlockName) {
        // Slabs smaller than this stay resident in the host's near
        // caches on their own; touching them would be pure overhead.
        const PREFETCH_MIN_BYTES: usize = 1 << 18;
        if self.rows.len() * std::mem::size_of::<u64>() < PREFETCH_MIN_BYTES {
            return;
        }
        // The row is contiguous — keys and metadata in one span — so one
        // touch per 64-byte host line covers all of it.
        let base = self.row(self.set_index(name));
        let mut i = 0;
        while i < self.stride {
            std::hint::black_box(self.rows[base + i]);
            i += 8;
        }
    }

    /// Looks up `name`; on a hit updates LRU and (for writes) the dirty
    /// bit, and returns `true`.
    #[inline]
    pub fn access(&mut self, name: BlockName, write: bool) -> bool {
        self.access_perm(name, write).is_some()
    }

    /// [`Cache::access`] returning the cached permissions on a hit — one
    /// way-scan where an `access` + [`Cache::permissions`] pair would do
    /// two.
    #[inline]
    pub fn access_perm(&mut self, name: BlockName, write: bool) -> Option<Permissions> {
        self.touch(name, write as u64)
    }

    /// [`Cache::access`] that additionally records `core` in the sharer
    /// set and returns the cached permissions — the LLC hit path in one
    /// way-scan instead of three (`access` + `permissions` +
    /// [`Cache::add_sharer`]).
    #[inline]
    pub fn access_sharing(
        &mut self,
        name: BlockName,
        write: bool,
        core: usize,
    ) -> Option<Permissions> {
        self.touch(name, write as u64 | sharer_bit(core))
    }

    /// The shared hit path: stamps the hit way, ORs `set_bits` (dirty
    /// and/or a sharer bit) into its metadata, and counts the hit or
    /// miss.
    #[inline]
    fn touch(&mut self, name: BlockName, set_bits: u64) -> Option<Permissions> {
        let tick = self.next_tick();
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            let m = &mut self.rows[i];
            *m = (*m & !META_LRU_MASK) | (tick << META_LRU_SHIFT) | set_bits;
            self.stats.hits += 1;
            Some(meta_perm(*m))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Probes for `name` without updating LRU or statistics.
    #[inline]
    pub fn contains(&self, name: BlockName) -> bool {
        self.find(self.set_index(name), self.key_of(name)).is_some()
    }

    /// Returns the permission bits cached with `name`, if present.
    #[inline]
    pub fn permissions(&self, name: BlockName) -> Option<Permissions> {
        let set = self.set_index(name);
        self.find(set, self.key_of(name))
            .map(|way| meta_perm(self.rows[self.meta_idx(set, way)]))
    }

    /// Inserts `name` (filling after a miss); returns the victim if the
    /// set was full. If the block is already present this refreshes its
    /// LRU/dirty state instead of duplicating it.
    pub fn fill(&mut self, name: BlockName, dirty: bool, perm: Permissions) -> Option<Victim> {
        self.refill(name, dirty, perm, 0)
    }

    /// Inserts `name` directly after a miss of the same name, skipping the
    /// residency probe [`Cache::fill`] performs: the caller guarantees the
    /// block is absent (it just missed this level and nothing filled it in
    /// between), so the hierarchy does one way-scan per miss instead of
    /// two.
    pub fn fill_after_miss(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
    ) -> Option<Victim> {
        self.fill_after_miss_tracked(name, dirty, perm, 0)
            .map(|(v, _)| v)
    }

    /// Merges a private-cache victim into its (inclusive-resident) LLC
    /// line and removes `core` from its sharer set — one way-scan for
    /// what would otherwise be a [`Cache::fill`] + [`Cache::remove_sharer`]
    /// pair. Falls back to a plain insert if the line is somehow absent,
    /// exactly as the unfused pair would.
    pub fn fill_unshare(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        core: usize,
    ) -> Option<Victim> {
        self.refill(name, dirty, perm, sharer_bit(core))
    }

    /// The shared [`Cache::fill`] path: a resident line keeps its dirty
    /// bit and its sharers minus `unshare`, takes `perm` and a fresh
    /// stamp; an absent one is inserted with no sharers.
    fn refill(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        unshare: u64,
    ) -> Option<Victim> {
        let tick = self.next_tick();
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            let m = &mut self.rows[i];
            *m = (*m & (META_SHARERS_MASK | META_DIRTY) & !unshare)
                | (dirty as u64)
                | ((perm.bits() as u64) << META_PERM_SHIFT)
                | (tick << META_LRU_SHIFT);
            return None;
        }
        self.insert_absent(set, name, dirty, perm, 0, tick)
            .map(|(v, _)| v)
    }

    /// [`Cache::fill_after_miss`] for the directory-holding LLC: seeds the
    /// new line's sharer set with `sharers` (saving the separate
    /// `add_sharer` scan) and reports the evicted line's sharer bitmap, so
    /// the hierarchy back-invalidates only private caches that actually
    /// hold the victim.
    pub fn fill_after_miss_tracked(
        &mut self,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        sharers: u32,
    ) -> Option<(Victim, u32)> {
        let tick = self.next_tick();
        let set = self.set_index(name);
        debug_assert!(
            self.find(set, self.key_of(name)).is_none(),
            "fill_after_miss of a resident line"
        );
        self.insert_absent(set, name, dirty, perm, sharers, tick)
    }

    /// Places `name` into `set` with LRU stamp `tick`, evicting the LRU
    /// way if the set is full. LRU stamps are unique among live lines
    /// (every residency-granting or refreshing operation stamps a fresh
    /// tick), so the minimum is unique and victim choice does not depend
    /// on slot order. Returns the victim together with its sharer bitmap.
    fn insert_absent(
        &mut self,
        set: usize,
        name: BlockName,
        dirty: bool,
        perm: Permissions,
        sharers: u32,
        tick: u64,
    ) -> Option<(Victim, u32)> {
        let row = self.row(set);
        let meta = self.meta_idx(set, 0);
        let live = self.live_ways(set);
        let mut victim = None;
        let way = if live.count_ones() as usize == self.ways {
            let mut best = 0usize;
            let mut best_lru = u64::MAX;
            for w in 0..self.ways {
                let lru = self.rows[meta + w] >> META_LRU_SHIFT;
                if lru < best_lru {
                    best_lru = lru;
                    best = w;
                }
            }
            let old = unpack_meta(self.rows[meta + best]);
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.writebacks += 1;
            }
            victim = Some((
                Victim {
                    name: self.name_of(set, self.rows[row + best]),
                    dirty: old.dirty,
                },
                old.sharers,
            ));
            best
        } else {
            (!live).trailing_zeros() as usize
        };
        self.rows[row + way] = self.key_of(name);
        self.rows[meta + way] = pack_meta(Meta {
            dirty,
            perm,
            lru: tick,
            sharers,
        });
        victim
    }

    /// Empties `way` of `set` and returns its old metadata word.
    #[inline]
    fn clear_way(&mut self, set: usize, way: usize) -> u64 {
        self.rows[self.row(set) + way] = EMPTY_KEY;
        std::mem::take(&mut self.rows[self.meta_idx(set, way)])
    }

    /// Removes `name` if present, returning its victim record (dirty state
    /// preserved so the caller can write it back).
    pub fn invalidate(&mut self, name: BlockName) -> Option<Victim> {
        let set = self.set_index(name);
        let way = self.find(set, self.key_of(name))?;
        let dirty = self.clear_way(set, way) & META_DIRTY != 0;
        self.stats.invalidations += 1;
        Some(Victim { name, dirty })
    }

    /// Removes `name` if present as one line of a page or frame flush and
    /// returns its dirty bit and sharer bitmap. Flush accounting counts
    /// only a dirty line as an invalidation (the one needing a
    /// writeback), where [`Cache::invalidate`] counts every line.
    #[inline]
    pub(crate) fn flush_line(&mut self, name: BlockName) -> Option<(bool, u32)> {
        let set = self.set_index(name);
        let way = self.find(set, self.key_of(name))?;
        let meta = self.clear_way(set, way);
        let dirty = meta & META_DIRTY != 0;
        self.stats.invalidations += dirty as u64;
        Some((dirty, (meta >> META_SHARERS_SHIFT) as u32))
    }

    /// Clears the write permission cached with `name`, if present, and
    /// returns its sharer bitmap.
    #[inline]
    pub(crate) fn downgrade_line(&mut self, name: BlockName) -> Option<u32> {
        let set = self.set_index(name);
        let way = self.find(set, self.key_of(name))?;
        let i = self.meta_idx(set, way);
        self.rows[i] &= !((Permissions::WRITE.bits() as u64) << META_PERM_SHIFT);
        Some((self.rows[i] >> META_SHARERS_SHIFT) as u32)
    }

    /// Marks `name` dirty if present, without touching LRU or statistics
    /// (coherence fold-in of a remote modified copy).
    pub fn mark_dirty(&mut self, name: BlockName) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            self.rows[i] |= META_DIRTY;
        }
    }

    /// Marks `name` clean (after a writeback) if present.
    pub fn clean(&mut self, name: BlockName) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            self.rows[i] &= !META_DIRTY;
        }
    }

    /// Downgrades the cached permissions of every line of the given
    /// virtual page to read-only (the paper's content-sharing transition).
    /// Probes only the page's 64 lines, each in its own set.
    pub fn downgrade_page_read_only(&mut self, asid: Asid, vpage: u64) {
        for name in virt_page_lines(asid, vpage) {
            self.downgrade_line(name);
        }
    }

    /// Invalidates every line belonging to the virtual page `(asid,
    /// vpage)`, appending dirty victims to `victims` (a reusable scratch
    /// buffer the caller clears between flushes). Probes only the page's
    /// 64 lines, each in its own set.
    pub fn flush_virt_page(&mut self, asid: Asid, vpage: u64, victims: &mut Vec<Victim>) {
        self.flush_lines(virt_page_lines(asid, vpage), victims);
    }

    /// Invalidates every physically-named line of the frame whose base
    /// byte address is `frame_base`, appending dirty victims to `victims`.
    /// The OS requests this when a freed synonym frame goes back to the
    /// allocator — physically-tagged lines survive every per-space flush.
    pub fn flush_phys_frame(&mut self, frame_base: u64, victims: &mut Vec<Victim>) {
        self.flush_lines(phys_frame_lines(frame_base), victims);
    }

    fn flush_lines(&mut self, lines: impl Iterator<Item = BlockName>, victims: &mut Vec<Victim>) {
        for name in lines {
            if let Some((true, _)) = self.flush_line(name) {
                victims.push(Victim { name, dirty: true });
            }
        }
    }

    /// Invalidates every line of an address space (process teardown),
    /// appending dirty victims to `victims`. Unlike the page and frame
    /// flushes this scans the whole cache: an address space's lines may
    /// sit in any set.
    pub fn flush_asid(&mut self, asid: Asid, victims: &mut Vec<Victim>) {
        self.retain_update(|name, meta| {
            if name.asid() == Some(asid) {
                if meta.dirty {
                    victims.push(Victim { name, dirty: true });
                }
                false
            } else {
                true
            }
        });
    }

    /// Number of resident lines (for tests and occupancy reporting).
    pub fn occupancy(&self) -> usize {
        (0..=self.set_mask)
            .map(|set| self.live_ways(set).count_ones() as usize)
            .sum()
    }

    /// Iterates over resident block names (used by inclusion checks in
    /// tests).
    pub fn resident_names(&self) -> impl Iterator<Item = BlockName> + '_ {
        (0..=self.set_mask).flat_map(move |set| {
            let keys = self.keys(set);
            BitIter(self.live_ways(set)).map(move |w| self.name_of(set, keys[w]))
        })
    }

    // --- LLC sharer tracking (MESI-style directory-in-LLC) ---

    /// Adds `core` to the sharer set of `name` (LLC use only).
    pub fn add_sharer(&mut self, name: BlockName, core: usize) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            self.rows[i] |= sharer_bit(core);
        }
    }

    /// Removes `core` from the sharer set of `name` (LLC use only).
    pub fn remove_sharer(&mut self, name: BlockName, core: usize) {
        let set = self.set_index(name);
        if let Some(way) = self.find(set, self.key_of(name)) {
            let i = self.meta_idx(set, way);
            self.rows[i] &= !sharer_bit(core);
        }
    }

    /// Returns the sharer bitmap of `name` (LLC use only).
    pub fn sharers(&self, name: BlockName) -> u32 {
        let set = self.set_index(name);
        self.find(set, self.key_of(name)).map_or(0, |way| {
            (self.rows[self.meta_idx(set, way)] >> META_SHARERS_SHIFT) as u32
        })
    }

    /// Visits every live line in slot order; lines for which `f` returns
    /// `false` are invalidated (their valid bit cleared).
    fn retain_update(&mut self, mut f: impl FnMut(BlockName, &mut Meta) -> bool) {
        for set in 0..=self.set_mask {
            for w in BitIter(self.live_ways(set)) {
                let mi = self.meta_idx(set, w);
                let mut meta = unpack_meta(self.rows[mi]);
                if f(self.name_of(set, self.rows[self.row(set) + w]), &mut meta) {
                    self.rows[mi] = pack_meta(meta);
                } else {
                    self.clear_way(set, w);
                }
            }
        }
    }
}

/// The whole-cache scans the directed page and frame operations replaced,
/// kept as the model the flush-equivalence proptests compare against.
#[cfg(test)]
impl Cache {
    pub(crate) fn downgrade_page_read_only_scan(&mut self, asid: Asid, vpage: u64) {
        self.retain_update(|name, meta| {
            if page_of(name) == Some((asid, vpage)) {
                meta.perm = meta.perm.downgraded_read_only();
            }
            true
        });
    }

    pub(crate) fn flush_virt_page_scan(
        &mut self,
        asid: Asid,
        vpage: u64,
        victims: &mut Vec<Victim>,
    ) {
        self.flush_matching_scan(|name| page_of(name) == Some((asid, vpage)), victims);
    }

    pub(crate) fn flush_phys_frame_scan(&mut self, frame_base: u64, victims: &mut Vec<Victim>) {
        self.flush_matching_scan(
            |name| {
                matches!(name, BlockName::Phys(line)
                    if line.base_raw() >> PAGE_SHIFT == frame_base >> PAGE_SHIFT)
            },
            victims,
        );
    }

    fn flush_matching_scan(&mut self, pred: impl Fn(BlockName) -> bool, victims: &mut Vec<Victim>) {
        let before = victims.len();
        self.retain_update(|name, meta| {
            if pred(name) {
                if meta.dirty {
                    victims.push(Victim { name, dirty: true });
                }
                false
            } else {
                true
            }
        });
        self.stats.invalidations += (victims.len() - before) as u64;
    }
}

/// Iterator over the set bit positions of a `u64` mask, low to high.
pub(crate) struct BitIter(pub(crate) u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }
}

/// Returns the `(asid, virtual page number)` of a virtually-named block.
#[cfg(test)]
fn page_of(name: BlockName) -> Option<(Asid, u64)> {
    match name {
        BlockName::Virt(asid, line) => Some((asid, line.as_u64() >> (PAGE_SHIFT - LINE_SHIFT))),
        BlockName::Phys(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvc_types::Cycles;

    fn tiny() -> Cache {
        // 4 lines, 2 ways, 2 sets.
        Cache::new(CacheConfig::new(256, 2, Cycles::new(1)))
    }

    fn v(asid: u16, line: u64) -> BlockName {
        BlockName::Virt(Asid::new(asid), LineAddr::new(line))
    }

    fn p(line: u64) -> BlockName {
        BlockName::Phys(LineAddr::new(line))
    }

    #[test]
    fn meta_word_roundtrips() {
        let m = Meta {
            dirty: true,
            perm: Permissions::RX,
            lru: LRU_MAX - 7,
            sharers: 0xdead_beef,
        };
        let back = unpack_meta(pack_meta(m));
        assert_eq!(back.dirty, m.dirty);
        assert_eq!(back.perm, m.perm);
        assert_eq!(back.lru, m.lru);
        assert_eq!(back.sharers, m.sharers);
    }

    #[test]
    fn row_stride_is_whole_host_lines() {
        for ways in [1usize, 2, 4, 7, 8, 16] {
            let c = Cache::new(CacheConfig::new(
                (8 * ways * 64) as u64,
                ways,
                Cycles::new(1),
            ));
            let row_bytes = c.stride * std::mem::size_of::<u64>();
            assert_eq!(row_bytes % 64, 0, "ways {ways}: whole host lines");
            assert!(c.stride >= 2 * ways, "ways {ways}: keys and meta fit");
            assert!(row_bytes < 16 * ways + 64, "ways {ways}: 16 B per way");
        }
        // The 16-way LLC row: 16 keys and 16 metadata words, four host
        // lines with no padding.
        let llc = Cache::new(CacheConfig::l3_8m());
        assert!(llc.stride * 8 <= 320);
        assert_eq!(llc.stride * 8, 256);
        assert_eq!(llc.rows.len() * 8, 8192 * 256, "8 MB LLC slab is 2 MB");
    }

    #[test]
    fn keys_roundtrip_at_the_extremes() {
        let largest_phys_line = (1u64 << (hvc_types::PHYS_ADDR_BITS - LINE_SHIFT)) - 1;
        let names = [
            v(0xFFFF, 0),
            v(0xFFFF, (1 << KEY_LINE_BITS) - 1),
            v(0, (1 << KEY_LINE_BITS) - 1),
            p(largest_phys_line),
            p((1 << KEY_LINE_BITS) - 1),
            // Enigma intermediate-space names: byte-address bit 46 under
            // the kernel ASID, and a line with bit 46 itself set.
            BlockName::Virt(
                Asid::KERNEL,
                LineAddr::new((1 << 46 | 0x1234_5000) >> LINE_SHIFT),
            ),
            v(0, 1 << 46 | 0x3f),
            p(1 << 46 | 0x3f),
        ];
        // One set (no index bits dropped), two sets, and an LLC's 8192.
        for config in [
            CacheConfig::new(4 * 64, 4, Cycles::new(1)),
            CacheConfig::new(2 * 64, 1, Cycles::new(1)),
            CacheConfig::l3_8m(),
        ] {
            let c = Cache::new(config);
            for name in names {
                let key = c.key_of(name);
                assert_ne!(key, EMPTY_KEY, "{name:?} collides with the empty key");
                assert_eq!(c.name_of(c.set_index(name), key), name);
            }
            // Physical and virtual names of the same line stay apart, as
            // do neighbouring ASIDs.
            assert_ne!(c.key_of(p(5)), c.key_of(v(0, 5)));
            assert_ne!(c.key_of(v(0xFFFE, 5)), c.key_of(v(0xFFFF, 5)));
        }
    }

    /// An LRU model with unbounded `u64` stamps: per-set `(name, stamp)`.
    struct WideLru {
        sets: Vec<Vec<(BlockName, u64)>>,
        ways: usize,
        tick: u64,
    }

    impl WideLru {
        fn access(&mut self, name: BlockName) -> bool {
            self.tick += 1;
            let n = self.sets.len();
            let set = &mut self.sets[name.line().as_u64() as usize % n];
            match set.iter_mut().find(|(n, _)| *n == name) {
                Some(line) => {
                    line.1 = self.tick;
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, name: BlockName) -> Option<BlockName> {
            self.tick += 1;
            let (ways, n) = (self.ways, self.sets.len());
            let set = &mut self.sets[name.line().as_u64() as usize % n];
            let victim = (set.len() == ways).then(|| {
                let at = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
                set.remove(at).0
            });
            set.push((name, self.tick));
            victim
        }
    }

    #[test]
    fn lru_stamp_wrap_keeps_victim_order() {
        let mut c = Cache::new(CacheConfig::new(4 * 4 * 64, 4, Cycles::new(1)));
        let start = LRU_MAX - 40;
        c.tick = start;
        let mut model = WideLru {
            sets: vec![Vec::new(); 4],
            ways: 4,
            tick: start,
        };
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut renormalized = false;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let name = v(1 + (x >> 60) as u16 % 2, (x >> 8) % 40);
            if c.access(name, false) {
                assert!(model.access(name), "hit on {name:?} the model missed");
            } else {
                assert!(!model.access(name), "miss on {name:?} the model hit");
                assert_eq!(
                    c.fill(name, false, Permissions::RW).map(|v| v.name),
                    model.fill(name)
                );
            }
            renormalized |= c.tick < start;
            assert!(c.tick <= LRU_MAX);
        }
        assert!(renormalized, "the stamp never wrapped");
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(v(1, 0), false));
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(c.access(v(1, 0), false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(v(1, 0), false, Permissions::RW);
        c.fill(v(1, 2), false, Permissions::RW);
        c.access(v(1, 0), false); // make line 0 most recent
        let victim = c.fill(v(1, 4), false, Permissions::RW).expect("eviction");
        assert_eq!(victim.name, v(1, 2));
    }

    #[test]
    fn dirty_victims_are_reported() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(1, 2), false, Permissions::RW);
        let victim = c.fill(v(1, 4), false, Permissions::RW).unwrap();
        assert_eq!(
            victim,
            Victim {
                name: v(1, 0),
                dirty: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_sets_dirty_bit() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        c.access(v(1, 0), true);
        let victim = c.invalidate(v(1, 0)).unwrap();
        assert!(victim.dirty);
    }

    #[test]
    fn clean_clears_dirty() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.clean(v(1, 0));
        assert!(!c.invalidate(v(1, 0)).unwrap().dirty);
    }

    #[test]
    fn refill_of_resident_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(c.fill(v(1, 0), true, Permissions::RW).is_none());
        assert_eq!(c.occupancy(), 1);
        // Dirty bit merged.
        assert!(c.invalidate(v(1, 0)).unwrap().dirty);
    }

    #[test]
    fn fill_after_miss_inserts_and_evicts_like_fill() {
        let mut c = tiny();
        assert!(!c.access(v(1, 0), false));
        assert!(c.fill_after_miss(v(1, 0), false, Permissions::RW).is_none());
        assert!(c.access(v(1, 0), false));
        assert!(!c.access(v(1, 2), false));
        c.fill_after_miss(v(1, 2), true, Permissions::RW);
        assert!(!c.access(v(1, 4), false));
        let victim = c.fill_after_miss(v(1, 4), false, Permissions::RW).unwrap();
        // Line 0's last touch predates line 2's fill, so 0 is the victim.
        assert_eq!(victim.name, v(1, 0));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn access_perm_reports_hit_permissions() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::READ);
        assert_eq!(c.access_perm(v(1, 0), false), Some(Permissions::READ));
        assert_eq!(c.access_perm(v(1, 2), false), None);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn access_sharing_records_core_and_returns_perm() {
        let mut c = tiny();
        c.fill(p(0), false, Permissions::RW);
        assert_eq!(c.access_sharing(p(0), true, 2), Some(Permissions::RW));
        assert_eq!(c.sharers(p(0)), 0b100);
        assert!(c.invalidate(p(0)).unwrap().dirty, "write set the dirty bit");
        assert_eq!(c.access_sharing(p(0), false, 0), None, "gone after inval");
    }

    #[test]
    fn tracked_fill_seeds_sharers_and_reports_victim_sharers() {
        let mut c = tiny();
        let (_, vs) = {
            c.fill_after_miss_tracked(v(1, 0), false, Permissions::RW, 0b01);
            c.fill_after_miss_tracked(v(1, 2), false, Permissions::RW, 0b10);
            c.fill_after_miss_tracked(v(1, 4), false, Permissions::RW, 0)
                .expect("set 0 full, LRU victim evicted")
        };
        assert_eq!(vs, 0b01, "victim v(1,0) carried its seeded sharer set");
        assert_eq!(c.sharers(v(1, 2)), 0b10);
    }

    #[test]
    fn asid_distinguishes_same_line() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(!c.access(v(2, 0), false), "homonym must not hit");
        assert!(c.contains(v(1, 0)));
        assert!(!c.contains(v(2, 0)));
    }

    #[test]
    fn phys_and_virt_names_are_disjoint() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        assert!(!c.access(p(0), false));
    }

    #[test]
    fn flush_phys_frame_removes_only_that_frame() {
        let mut c = Cache::new(CacheConfig::new(64 * 128, 2, Cycles::new(1)));
        // Lines 0 and 5 live in the frame at byte 0; line 64 is the
        // first line of the next frame; virtual names never match.
        c.fill(p(0), false, Permissions::RW);
        c.fill(p(5), true, Permissions::RW);
        c.fill(p(64), false, Permissions::RW);
        c.fill(v(1, 0), false, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_phys_frame(0, &mut victims);
        assert_eq!(victims.len(), 1, "one dirty line in the frame");
        assert_eq!(victims[0].name, p(5));
        assert!(!c.contains(p(0)) && !c.contains(p(5)));
        assert!(c.contains(p(64)), "next frame untouched");
        assert!(c.contains(v(1, 0)), "virtual names untouched");
    }

    #[test]
    fn flush_virt_page_removes_all_lines_of_page() {
        let mut c = Cache::new(CacheConfig::new(64 * 128, 2, Cycles::new(1)));
        // Page 0 of ASID 1: lines 0..64.
        for name in virt_page_lines(Asid::new(1), 0) {
            c.fill(name, false, Permissions::RW);
        }
        c.access(v(1, 5), true); // dirty one line
        let mut victims = Vec::new();
        c.flush_virt_page(Asid::new(1), 0, &mut victims);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].name, v(1, 5));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_asid_spares_other_spaces() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(2, 1), false, Permissions::RW);
        c.fill(p(3), false, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_asid(Asid::new(1), &mut victims);
        assert_eq!(victims.len(), 1);
        assert!(!c.contains(v(1, 0)));
        assert!(c.contains(v(2, 1)));
        assert!(c.contains(p(3)));
    }

    #[test]
    fn flush_scratch_buffer_appends_across_calls() {
        let mut c = tiny();
        c.fill(v(1, 0), true, Permissions::RW);
        c.fill(v(2, 1), true, Permissions::RW);
        let mut victims = Vec::new();
        c.flush_asid(Asid::new(1), &mut victims);
        c.flush_asid(Asid::new(2), &mut victims);
        assert_eq!(victims.len(), 2, "flushes append, callers clear");
    }

    #[test]
    fn downgrade_page_clears_write_permission() {
        let mut c = tiny();
        c.fill(v(1, 0), false, Permissions::RW);
        c.downgrade_page_read_only(Asid::new(1), 0);
        assert_eq!(c.permissions(v(1, 0)), Some(Permissions::READ));
    }

    #[test]
    fn sharer_tracking() {
        let mut c = tiny();
        c.fill(p(0), false, Permissions::RW);
        c.add_sharer(p(0), 0);
        c.add_sharer(p(0), 2);
        assert_eq!(c.sharers(p(0)), 0b101);
        c.remove_sharer(p(0), 0);
        assert_eq!(c.sharers(p(0)), 0b100);
        assert_eq!(c.sharers(p(99)), 0);
    }

    #[test]
    fn lines_of_page_enumerates_64_lines() {
        let names: Vec<_> = virt_page_lines(Asid::new(1), 2).collect();
        assert_eq!(names.len(), 64);
        assert_eq!(names[0], v(1, 128));
        assert_eq!(names[63], v(1, 191));
        let frame: Vec<_> = phys_frame_lines(2 << PAGE_SHIFT | 0x40).collect();
        assert_eq!((frame[0], frame[63]), (p(128), p(191)));
    }
}
