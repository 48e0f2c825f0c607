//! Directed page and frame operations against the whole-cache scans they
//! replaced. Random fill, access, write, invalidate and flush sequences
//! run on two copies of the same cache (or hierarchy): one takes the
//! directed path, the other the scan model. Both must end every flush
//! with the same resident lines and per-line metadata (the slabs compare
//! equal word for word), the same LRU clock and statistics, and the same
//! dirty victims. The hierarchy runs also check inclusion: every private
//! line is in the LLC with its core's sharer bit set, which is what makes
//! the directory-guided flush exact.

use crate::{Cache, CacheConfig, Hierarchy, HierarchyConfig, Victim};
use hvc_types::{AccessKind, Asid, BlockName, Cycles, LineAddr, Permissions, PAGE_SHIFT};
use proptest::prelude::*;

/// Lines per 4 KB page.
const PAGE_LINES: u64 = 64;

/// Where a run's names live: `regions` blocks of two pages, `stride`
/// lines apart. A stride of a whole cache makes the blocks collide in
/// every set, which forces evictions in large geometries.
#[derive(Clone, Copy, Debug)]
struct Space {
    stride: u64,
}

/// A name before placement: `(asid, region, line offset)`, ASID 0
/// standing for a physical name.
type RawName = (u16, u64, u64);

/// A page before placement: `(region, page within the region)`.
type RawPage = (u64, u64);

fn raw_name(regions: u64) -> impl Strategy<Value = RawName> {
    (0u16..3, 0..regions, 0..2 * PAGE_LINES)
}

fn raw_page(regions: u64) -> impl Strategy<Value = RawPage> {
    (0..regions, 0..2u64)
}

impl Space {
    fn name(self, (asid, region, off): RawName) -> BlockName {
        let line = LineAddr::new(region * self.stride + off);
        match asid {
            0 => BlockName::Phys(line),
            a => BlockName::Virt(Asid::new(a), line),
        }
    }

    fn page(self, (region, page): RawPage) -> u64 {
        region * self.stride / PAGE_LINES + page
    }
}

fn perm() -> impl Strategy<Value = Permissions> {
    prop_oneof![Just(Permissions::RW), Just(Permissions::READ)]
}

fn sorted(victims: &[Victim]) -> Vec<String> {
    let mut names: Vec<String> = victims.iter().map(|v| format!("{v:?}")).collect();
    names.sort();
    names
}

#[derive(Clone, Debug)]
enum CacheOp {
    Access(RawName, bool),
    Fill(RawName, bool, Permissions),
    Invalidate(RawName),
    AddSharer(RawName, usize),
    FlushPage(u16, RawPage),
    FlushFrame(RawPage),
    Downgrade(u16, RawPage),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let fill = || (raw_name(3), any::<bool>(), perm()).prop_map(|(n, d, p)| CacheOp::Fill(n, d, p));
    let access = || (raw_name(3), any::<bool>()).prop_map(|(n, w)| CacheOp::Access(n, w));
    prop_oneof![
        access(),
        access(),
        fill(),
        fill(),
        fill(),
        raw_name(3).prop_map(CacheOp::Invalidate),
        (raw_name(3), 0usize..32).prop_map(|(n, c)| CacheOp::AddSharer(n, c)),
        (1u16..3, raw_page(3)).prop_map(|(a, p)| CacheOp::FlushPage(a, p)),
        raw_page(3).prop_map(CacheOp::FlushFrame),
        (1u16..3, raw_page(3)).prop_map(|(a, p)| CacheOp::Downgrade(a, p)),
    ]
}

/// Single-level geometries as `(sets, ways)`: one set (a page's 64 lines
/// all share it), fewer sets than a page has lines, exactly 64, and more.
const CACHE_SHAPES: [(usize, usize); 5] = [(1, 4), (8, 2), (32, 4), (64, 1), (256, 16)];

proptest! {
    #[test]
    fn directed_cache_flushes_match_the_full_scan(
        shape in 0..CACHE_SHAPES.len(),
        ops in prop::collection::vec(cache_op(), 1..300),
    ) {
        let (sets, ways) = CACHE_SHAPES[shape];
        let space = Space { stride: (sets as u64).max(2 * PAGE_LINES) };
        let mut directed = Cache::new(CacheConfig::new((sets * ways * 64) as u64, ways, Cycles::new(1)));
        let mut scan = directed.clone();
        let (mut dv, mut sv) = (Vec::new(), Vec::new());
        for op in &ops {
            dv.clear();
            sv.clear();
            match *op {
                CacheOp::Access(n, w) => {
                    let n = space.name(n);
                    prop_assert_eq!(directed.access(n, w), scan.access(n, w));
                }
                CacheOp::Fill(n, d, p) => {
                    let n = space.name(n);
                    prop_assert_eq!(directed.fill(n, d, p), scan.fill(n, d, p));
                }
                CacheOp::Invalidate(n) => {
                    let n = space.name(n);
                    prop_assert_eq!(directed.invalidate(n), scan.invalidate(n));
                }
                CacheOp::AddSharer(n, c) => {
                    directed.add_sharer(space.name(n), c);
                    scan.add_sharer(space.name(n), c);
                }
                CacheOp::FlushPage(a, p) => {
                    directed.flush_virt_page(Asid::new(a), space.page(p), &mut dv);
                    scan.flush_virt_page_scan(Asid::new(a), space.page(p), &mut sv);
                }
                CacheOp::FlushFrame(p) => {
                    directed.flush_phys_frame(space.page(p) << PAGE_SHIFT, &mut dv);
                    scan.flush_phys_frame_scan(space.page(p) << PAGE_SHIFT, &mut sv);
                }
                CacheOp::Downgrade(a, p) => {
                    directed.downgrade_page_read_only(Asid::new(a), space.page(p));
                    scan.downgrade_page_read_only_scan(Asid::new(a), space.page(p));
                }
            }
            prop_assert_eq!(sorted(&dv), sorted(&sv), "victims of {:?}", op);
            prop_assert!(directed == scan, "{sets}x{ways} diverged after {op:?}");
        }
    }
}

#[derive(Clone, Debug)]
enum HierOp {
    /// `Hierarchy::access_with_perm` (auto-fill on a complete miss).
    Access(usize, RawName, AccessKind, Permissions),
    /// `lookup`, then `fill_miss` on a complete miss: the system
    /// simulator's path, where delayed translation supplies `perm`.
    LookupFill(usize, RawName, AccessKind, Permissions),
    FlushPage(u16, RawPage),
    FlushFrame(RawPage),
    Downgrade(u16, RawPage),
    FlushAsid(u16),
}

fn kind() -> impl Strategy<Value = AccessKind> {
    prop_oneof![
        Just(AccessKind::Read),
        Just(AccessKind::Read),
        Just(AccessKind::Write),
        Just(AccessKind::Write),
        Just(AccessKind::Fetch),
    ]
}

/// Hierarchy operations over `regions` blocks; the core index is taken
/// modulo the hierarchy's core count when applied.
fn hier_op(regions: u64) -> impl Strategy<Value = HierOp> {
    let access = move || {
        (0usize..32, raw_name(regions), kind(), perm())
            .prop_map(|(c, n, k, p)| HierOp::Access(c, n, k, p))
    };
    let lookup = move || {
        (0usize..32, raw_name(regions), kind(), perm())
            .prop_map(|(c, n, k, p)| HierOp::LookupFill(c, n, k, p))
    };
    prop_oneof![
        access(),
        access(),
        access(),
        lookup(),
        lookup(),
        lookup(),
        (1u16..3, raw_page(regions)).prop_map(|(a, p)| HierOp::FlushPage(a, p)),
        raw_page(regions).prop_map(HierOp::FlushFrame),
        (1u16..3, raw_page(regions)).prop_map(|(a, p)| HierOp::Downgrade(a, p)),
        (1u16..3).prop_map(HierOp::FlushAsid),
    ]
}

/// Applies `op` on the directed (`directed`) or scan path; returns the
/// writeback count of a flush.
fn apply(h: &mut Hierarchy, space: Space, op: &HierOp, directed: bool) -> Option<u64> {
    let cores = h.config().cores;
    match *op {
        HierOp::Access(c, n, k, p) => {
            h.access_with_perm(c % cores, space.name(n), k, p);
            None
        }
        HierOp::LookupFill(c, n, k, p) => {
            let name = space.name(n);
            if h.lookup(c % cores, name, k).llc_miss() {
                h.fill_miss(c % cores, k, name, k.is_write(), p);
            }
            None
        }
        HierOp::FlushPage(a, p) if directed => Some(h.flush_virt_page(Asid::new(a), space.page(p))),
        HierOp::FlushPage(a, p) => Some(h.flush_virt_page_scan(Asid::new(a), space.page(p))),
        HierOp::FlushFrame(p) if directed => Some(h.flush_phys_frame(space.page(p) << PAGE_SHIFT)),
        HierOp::FlushFrame(p) => Some(h.flush_phys_frame_scan(space.page(p) << PAGE_SHIFT)),
        HierOp::Downgrade(a, p) if directed => {
            h.downgrade_page_read_only(Asid::new(a), space.page(p));
            None
        }
        HierOp::Downgrade(a, p) => {
            h.downgrade_page_read_only_scan(Asid::new(a), space.page(p));
            None
        }
        HierOp::FlushAsid(a) => Some(h.flush_asid(Asid::new(a))),
    }
}

/// Every line a core's L1I, L1D or L2 holds is in the LLC with that
/// core's sharer bit set.
fn assert_inclusion(h: &Hierarchy) {
    for core in 0..h.config().cores {
        for level in h.private_levels(core) {
            for name in level.resident_names() {
                assert!(
                    h.llc().contains(name),
                    "core {core} holds {name:?} outside the LLC"
                );
                assert!(
                    h.llc().sharers(name) & (1 << core) != 0,
                    "core {core} holds {name:?} without its sharer bit"
                );
            }
        }
    }
}

fn assert_same(directed: &Hierarchy, scan: &Hierarchy, after: &str) {
    assert_eq!(directed.stats(), scan.stats(), "stats after {after}");
    assert_eq!(directed.may_hold_readonly(), scan.may_hold_readonly());
    for (d, s) in directed.levels().zip(scan.levels()) {
        assert!(d == s, "a level diverged after {after}");
    }
}

/// Runs `ops` on a directed and a scanning copy of `config`, comparing
/// flush results throughout, and whole state and inclusion after every
/// flush (or every operation) and at the end.
fn run_hierarchy(config: HierarchyConfig, space: Space, ops: &[HierOp], check_every_op: bool) {
    let mut directed = Hierarchy::new(config);
    let mut scan = directed.clone();
    for op in ops {
        let d = apply(&mut directed, space, op, true);
        let s = apply(&mut scan, space, op, false);
        assert_eq!(d, s, "writebacks of {op:?}");
        if d.is_some() || check_every_op {
            assert_same(&directed, &scan, &format!("{op:?}"));
            assert_inclusion(&directed);
        }
    }
    assert_same(&directed, &scan, "the last operation");
    assert_inclusion(&directed);
}

/// Small hierarchies: every level of `test_tiny` has fewer sets than a
/// page has lines; the third shape has an LLC with more (128 sets).
fn small_shapes() -> [HierarchyConfig; 3] {
    let tiny = HierarchyConfig::test_tiny();
    [
        tiny.clone(),
        HierarchyConfig { cores: 4, ..tiny },
        HierarchyConfig {
            cores: 2,
            l1i: CacheConfig::new(2 * 1024, 2, Cycles::new(1)),
            l1d: CacheConfig::new(2 * 1024, 2, Cycles::new(1)),
            l2: CacheConfig::new(8 * 1024, 4, Cycles::new(3)),
            llc: CacheConfig::new(32 * 1024, 4, Cycles::new(9)),
        },
    ]
}

proptest! {
    #[test]
    fn directed_hierarchy_flushes_match_the_full_scan(
        shape in 0usize..3,
        ops in prop::collection::vec(hier_op(3), 1..300),
    ) {
        let config = small_shapes()[shape].clone();
        let space = Space { stride: config.llc.sets() as u64 * 2 };
        run_hierarchy(config, space, &ops, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The 4-core `isca2016` shape the multi-core runs use. Names come
    /// from 20 two-page blocks one LLC apart, so 20 lines compete for a
    /// 16-way LLC set and back-invalidations happen.
    #[test]
    fn directed_flushes_match_the_full_scan_on_the_isca2016_4_core_shape(
        ops in prop::collection::vec(hier_op(20), 1..400),
    ) {
        run_hierarchy(HierarchyConfig::isca2016(4), Space { stride: 8192 }, &ops, false);
    }
}
