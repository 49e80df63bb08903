//! Persistent node layout and the entry-validity rules of FAST.
//!
//! A node is a `node_size`-byte, cache-line-aligned region in the pool:
//!
//! ```text
//! offset  field
//! ------  -----------------------------------------------------------
//!   0     leftmost_child  (internal: child for keys < key(0);
//!                          leaf: the constant LEAF_ANCHOR)
//!   8     sibling_ptr     (B-link right sibling, 0 = none)
//!  16     switch_counter  (even: last writer inserted → readers scan L→R;
//!                          odd:  last writer deleted  → readers scan R→L)
//!  24     level_flags     (low 32 bits: level, 0 = leaf; bit 32: deleted)
//!  32     count_hint      (writer-maintained entry count; advisory only —
//!                          correctness always re-derives from the
//!                          NULL-pointer terminator)
//!  40     lock_word       (volatile embedded RW spin lock; reset on open)
//!  48     fp_seal         (fingerprint trees only: 1 = the fingerprint
//!                          array is consistent with the records and
//!                          durable; 0 = under repair, probe linearly)
//!  56     reserved        (was the retired circular frame's head; trees
//!                          that used it carry strategy bit 2, which
//!                          `FastFairTree::open` rejects)
//!  64     fingerprints[]  (fingerprint trees only: one byte per record
//!                          slot, rounded up to whole cache lines)
//!  64+fp  records[0].key
//!  72+fp  records[0].ptr
//!  80+fp  records[1].key ...
//! ```
//!
//! The geometry knob lives in [`NodeGeom`]; the default layout (no
//! fingerprints) is byte-identical to earlier versions of this crate.
//!
//! Entry `i` is **valid** iff `ptr(i) != NULL && ptr(i) != INVALID_PTR`.
//! A NULL pointer terminates the array; [`INVALID_PTR`] (`u64::MAX`, one of
//! the two reserved values of the `pmindex` contract) marks the poisoned
//! slot a shift is currently rewriting or a crashed shift left behind.
//! A single 8-byte pointer store atomically invalidates (poison) or
//! validates (final pointer store) an entry, so readers never observe a
//! torn record.
//!
//! ## Deviation from the original C++ implementation (documented)
//!
//! The original detects in-flight and crashed shifts by *pointer
//! duplication*: entry `i` is garbage iff `ptr(i) == ptr(i-1)` (or the
//! leftmost child for `i == 0`). That rule is exact only because the
//! original stores unique record *pointers* as values. This reproduction
//! stores arbitrary `u64` values, where two adjacent keys may legitimately
//! carry the same value — under the duplication rule such entries read as
//! garbage and silently disappear (and a left-shift's transient states can
//! expose torn `(key, ptr)` pairs to equal-value neighbours). We therefore
//! poison a slot explicitly with the reserved [`INVALID_PTR`] sentinel
//! before rewriting it, at the cost of one extra 8-byte store per shifted
//! record. The crash story is unchanged: every intermediate state is a
//! complete record, a poisoned slot, or an exact duplicate of its left
//! neighbour (same key *and* value, left by a finished copy whose source
//! was not yet poisoned) — readers skip the first two and dedup the third,
//! and lazy recovery compacts all of them. The leaf anchor [`LEAF_ANCHOR`]
//! shares the sentinel's bit pattern, so invalidating entry 0 of a leaf is
//! the same store it always was. This is why values may not be 0 or
//! `u64::MAX`.

use pmem::{PmOffset, Pool, CACHE_LINE, NULL_OFFSET};

/// Size of the per-node header in bytes (one cache line).
pub const HEADER_SIZE: u64 = 64;

/// Size of one `(key, ptr)` record in bytes.
pub const RECORD_SIZE: u64 = 16;

/// Reserved non-NULL pointer that anchors the left edge of a leaf node.
pub const LEAF_ANCHOR: u64 = u64::MAX;

/// Reserved pointer that poisons a slot for the duration of a FAST shift
/// rewrite (and marks the garbage a crashed shift leaves behind). Shares
/// the bit pattern of [`LEAF_ANCHOR`] — both are the reserved `u64::MAX`
/// of the `pmindex` value contract, and both mean "skip this entry".
pub const INVALID_PTR: u64 = u64::MAX;

const LEFTMOST_OFF: u64 = 0;
const SIBLING_OFF: u64 = 8;
const SWITCH_OFF: u64 = 16;
const LEVEL_OFF: u64 = 24;
const COUNT_OFF: u64 = 32;
/// Offset of the volatile lock word within a node header.
pub const LOCK_OFF: u64 = 40;
const SEAL_OFF: u64 = 48;

const DELETED_BIT: u64 = 1 << 32;

/// Per-tree node-layout knobs. The default (`NodeGeom::default()`) is the
/// classic FAST+FAIR layout; the fingerprint flag is the microarchitecture
/// ablation lever.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeGeom {
    /// Reserve a 1-byte-per-slot fingerprint array between the header and
    /// the records, and probe it on leaf point lookups so key cache lines
    /// are touched only on fingerprint hits (FP-tree §3 technique grafted
    /// onto the FAST node). Costs a little capacity: the array is rounded
    /// up to whole cache lines.
    pub fingerprints: bool,
}

impl NodeGeom {
    /// Geometry with fingerprint probes enabled.
    pub fn fingerprinted() -> Self {
        NodeGeom { fingerprints: true }
    }
}

/// Cache lines reserved for the fingerprint array of a `node_size` node.
///
/// Chosen as the smallest number of whole lines that can hold one byte per
/// record slot: `lines * 64 >= (node_size - 64 - lines * 64) / 16`, i.e.
/// `lines = ceil((node_size - 64) / 1088)`.
pub fn fp_lines(node_size: u32) -> u64 {
    (u64::from(node_size) - HEADER_SIZE).div_ceil(17 * CACHE_LINE as u64)
}

/// Byte offset of record slot 0 within a node, for the given geometry.
pub fn records_base(node_size: u32, geom: NodeGeom) -> u64 {
    HEADER_SIZE
        + if geom.fingerprints {
            fp_lines(node_size) * CACHE_LINE as u64
        } else {
            0
        }
}

/// Number of record slots in a node of `node_size` bytes (default layout).
///
/// The last two slots are never counted as capacity: one is the permanent
/// NULL terminator and one is slack for the terminator pre-extension done by
/// the FAST shift (Algorithm 1 writes `records[cnt+1]` before shifting).
pub fn capacity(node_size: u32) -> u16 {
    capacity_with(node_size, NodeGeom::default())
}

/// Number of record slots for the given geometry (see [`capacity`]).
pub fn capacity_with(node_size: u32, geom: NodeGeom) -> u16 {
    let slots = (u64::from(node_size) - records_base(node_size, geom)) / RECORD_SIZE;
    assert!(slots >= 4, "node size {node_size} too small");
    (slots - 2) as u16
}

/// A node geometry resolved for one node size: everything a [`NodeRef`]
/// needs to address records, computed once per tree instead of per slot
/// access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeShape {
    node_size: u32,
    geom: NodeGeom,
    records_base: u32,
    cap: u16,
}

impl NodeShape {
    /// Resolves `geom` for `node_size`-byte nodes.
    ///
    /// # Panics
    ///
    /// Panics if the node holds fewer than four record slots.
    pub(crate) fn new(node_size: u32, geom: NodeGeom) -> Self {
        NodeShape {
            node_size,
            geom,
            records_base: records_base(node_size, geom) as u32,
            cap: capacity_with(node_size, geom),
        }
    }

    /// Usable record capacity.
    #[inline]
    pub(crate) fn capacity(&self) -> u16 {
        self.cap
    }
}

/// One-byte fingerprint of a key. Never 0 — 0 marks an empty slot.
#[inline]
pub fn fp_hash(key: u64) -> u8 {
    let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
    if h == 0 {
        1
    } else {
        h
    }
}

/// A borrowed view of one persistent node.
///
/// All accessors go through the pool's atomic load/store primitives; the
/// view itself holds no mutable state, so it is freely copyable and safe to
/// use from concurrent readers.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    pool: &'a Pool,
    off: PmOffset,
    shape: NodeShape,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("off", &self.off)
            .field("level", &self.level())
            .field("count_hint", &self.count_hint())
            .field("sibling", &self.sibling())
            .finish()
    }
}

impl<'a> NodeRef<'a> {
    /// Creates a view of the node at `off` with the default geometry.
    pub fn new(pool: &'a Pool, off: PmOffset, node_size: u32) -> Self {
        Self::with_geom(pool, off, node_size, NodeGeom::default())
    }

    /// Creates a view of the node at `off` with an explicit geometry.
    pub fn with_geom(pool: &'a Pool, off: PmOffset, node_size: u32, geom: NodeGeom) -> Self {
        Self::with_shape(pool, off, NodeShape::new(node_size, geom))
    }

    /// Creates a view of the node at `off` with an already resolved shape.
    #[inline]
    pub(crate) fn with_shape(pool: &'a Pool, off: PmOffset, shape: NodeShape) -> Self {
        debug_assert!(off != NULL_OFFSET && off.is_multiple_of(CACHE_LINE as u64));
        NodeRef { pool, off, shape }
    }

    /// The geometry this view maps records with.
    pub fn geom(&self) -> NodeGeom {
        self.shape.geom
    }

    /// The pool this node lives in.
    pub fn pool(&self) -> &'a Pool {
        self.pool
    }

    /// Pool offset of the node.
    pub fn offset(&self) -> PmOffset {
        self.off
    }

    /// Node size in bytes.
    pub fn node_size(&self) -> u32 {
        self.shape.node_size
    }

    /// Usable record capacity.
    #[inline]
    pub fn capacity(&self) -> u16 {
        self.shape.cap
    }

    /// Total physical record slots (capacity + terminator + shift slack).
    #[inline]
    pub fn slots(&self) -> u16 {
        self.capacity() + 2
    }

    // ---- header ----------------------------------------------------------

    /// Leftmost child pointer (internal) / leaf anchor (leaf).
    pub fn leftmost(&self) -> PmOffset {
        self.pool.load_u64(self.off + LEFTMOST_OFF)
    }

    /// Stores the leftmost child pointer.
    pub fn set_leftmost(&self, v: PmOffset) {
        self.pool.store_u64(self.off + LEFTMOST_OFF, v);
    }

    /// Right sibling pointer (0 = none).
    pub fn sibling(&self) -> PmOffset {
        self.pool.load_u64(self.off + SIBLING_OFF)
    }

    /// Stores the sibling pointer (does not flush).
    pub fn set_sibling(&self, v: PmOffset) {
        self.pool.store_u64(self.off + SIBLING_OFF, v);
    }

    /// Pool offset of the sibling pointer field (for targeted flushes).
    pub fn sibling_field_off(&self) -> PmOffset {
        self.off + SIBLING_OFF
    }

    /// Current switch counter (even = insert direction, odd = delete).
    pub fn switch_counter(&self) -> u64 {
        self.pool.load_u64(self.off + SWITCH_OFF)
    }

    /// Stores the switch counter.
    pub fn set_switch_counter(&self, v: u64) {
        self.pool.store_u64(self.off + SWITCH_OFF, v);
    }

    /// Tree level: 0 for leaves.
    pub fn level(&self) -> u32 {
        (self.pool.load_u64(self.off + LEVEL_OFF) & 0xffff_ffff) as u32
    }

    /// True if this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.level() == 0
    }

    /// True if the node has been logically deleted (unlinked).
    pub fn is_deleted(&self) -> bool {
        self.pool.load_u64(self.off + LEVEL_OFF) & DELETED_BIT != 0
    }

    /// Sets the level field, clearing flags.
    pub fn set_level(&self, level: u32) {
        self.pool.store_u64(self.off + LEVEL_OFF, u64::from(level));
    }

    /// Marks the node logically deleted.
    pub fn mark_deleted(&self) {
        let v = self.pool.load_u64(self.off + LEVEL_OFF);
        self.pool.store_u64(self.off + LEVEL_OFF, v | DELETED_BIT);
    }

    /// Writer-maintained count hint. Advisory: may be stale after a crash.
    pub fn count_hint(&self) -> u16 {
        let c = self.pool.load_u64(self.off + COUNT_OFF);
        (c.min(u64::from(self.capacity()))) as u16
    }

    /// Stores the count hint.
    pub fn set_count_hint(&self, v: u16) {
        self.pool.store_u64(self.off + COUNT_OFF, u64::from(v));
    }

    /// Pool offset of the embedded lock word.
    pub fn lock_word_off(&self) -> PmOffset {
        self.off + LOCK_OFF
    }

    // ---- fingerprints ----------------------------------------------------

    /// Loads the fingerprint seal word (1 = array consistent and durable).
    #[inline]
    pub fn fp_seal(&self) -> u64 {
        self.pool.load_u64(self.off + SEAL_OFF)
    }

    /// True when leaf fingerprint probes may be trusted right now.
    #[inline]
    pub fn fp_sealed(&self) -> bool {
        self.shape.geom.fingerprints && self.fp_seal() == 1
    }

    /// Breaks the fingerprint seal durably before mutating records, so no
    /// crash image can pair a durable seal with a half-updated array.
    /// No-op on non-fingerprint geometry, internal nodes, and already
    /// unsealed nodes (volatile 0 implies durable 0: the only writer of 0
    /// persists it, and recovery starts from the durable image).
    ///
    /// Returns whether the array *was* sealed — i.e. consistent with the
    /// records — which tells the writer whether incremental lockstep
    /// maintenance suffices or the array must be rebuilt before resealing
    /// (see [`fp_reseal_after`](NodeRef::fp_reseal_after)).
    pub fn fp_unseal(&self) -> bool {
        if self.shape.geom.fingerprints && self.is_leaf() && self.fp_seal() == 1 {
            self.pool.store_u64(self.off + SEAL_OFF, 0);
            self.pool.persist(self.off + SEAL_OFF, 8);
            return true;
        }
        false
    }

    /// Re-arms the seal after a mutation. With `was_sealed` (the array was
    /// consistent when [`fp_unseal`](NodeRef::fp_unseal) broke it) the
    /// writer's lockstep fingerprint stores kept it consistent and a plain
    /// reseal suffices; otherwise — a node inherited unsealed from a crash
    /// — the array is rebuilt from the records first.
    pub fn fp_reseal_after(&self, was_sealed: bool) {
        if !self.shape.geom.fingerprints || !self.is_leaf() {
            return;
        }
        if !was_sealed {
            self.rebuild_fps();
        }
        self.fp_reseal();
    }

    /// Flushes the fingerprint lines, fences, then re-arms the seal with a
    /// plain store. A crash image that includes the (unflushed) seal store
    /// necessarily includes the earlier-flushed fingerprint lines, so a
    /// durable seal always certifies a durable, consistent array.
    pub fn fp_reseal(&self) {
        if !self.shape.geom.fingerprints || !self.is_leaf() {
            return;
        }
        for l in 0..fp_lines(self.shape.node_size) {
            self.pool
                .flush_line(self.off + HEADER_SIZE + l * CACHE_LINE as u64);
        }
        self.pool.sfence();
        self.pool.store_u64(self.off + SEAL_OFF, 1);
    }

    /// Pool offset of slot `i`'s fingerprint byte.
    #[inline]
    pub fn fp_off(&self, i: u16) -> PmOffset {
        self.off + HEADER_SIZE + u64::from(i)
    }

    /// Loads slot `i`'s fingerprint byte (0 when the geometry has
    /// no fingerprint area).
    #[inline]
    pub fn fp(&self, i: u16) -> u8 {
        if !self.shape.geom.fingerprints {
            return 0;
        }
        self.pool.load_u8(self.fp_off(i))
    }

    /// Stores slot `i`'s fingerprint byte (not flushed; callers
    /// flush the whole array in [`fp_reseal`](NodeRef::fp_reseal)). No-op
    /// when the geometry has no fingerprint area, so shift loops can keep
    /// fingerprints in lockstep unconditionally.
    #[inline]
    pub fn set_fp(&self, i: u16, v: u8) {
        if self.shape.geom.fingerprints {
            self.pool.store_u8(self.fp_off(i), v);
        }
    }

    /// Rewrites the whole fingerprint array from the records: `fp_hash` of
    /// the key for every slot below the terminator, 0 above it (the
    /// invariant that lets probes skip terminator checks). Caller reseals.
    pub fn rebuild_fps(&self) {
        if !self.shape.geom.fingerprints {
            return;
        }
        let cnt = self.count_records();
        for i in 0..self.slots() {
            let v = if i < cnt { fp_hash(self.key(i)) } else { 0 };
            self.set_fp(i, v);
        }
    }

    // ---- records ---------------------------------------------------------

    /// Pool offset of record `i`'s key field.
    #[inline]
    pub fn key_off(&self, i: u16) -> PmOffset {
        self.off + u64::from(self.shape.records_base) + u64::from(i) * RECORD_SIZE
    }

    /// Cache-line index of record `i` — shift loops flush when consecutive
    /// slots land on different lines.
    #[inline]
    pub fn rec_line(&self, i: u16) -> u64 {
        self.key_off(i) / CACHE_LINE as u64
    }

    /// Pool offset of record `i`'s pointer field.
    #[inline]
    pub fn ptr_off(&self, i: u16) -> PmOffset {
        self.key_off(i) + 8
    }

    /// Loads record `i`'s key.
    #[inline]
    pub fn key(&self, i: u16) -> u64 {
        self.pool.load_u64(self.key_off(i))
    }

    /// Loads record `i`'s pointer.
    #[inline]
    pub fn ptr(&self, i: u16) -> u64 {
        self.pool.load_u64(self.ptr_off(i))
    }

    /// Stores record `i`'s key.
    #[inline]
    pub fn set_key(&self, i: u16, k: u64) {
        self.pool.store_u64(self.key_off(i), k);
    }

    /// Stores record `i`'s pointer.
    #[inline]
    pub fn set_ptr(&self, i: u16, p: u64) {
        self.pool.store_u64(self.ptr_off(i), p);
    }

    /// The pointer to the *left* of entry `i`: `ptr(i-1)`, or the leftmost
    /// child for `i == 0`. Used for routing (e.g. finding the left sibling
    /// of a merged-away child), not for validity.
    #[inline]
    pub fn left_ptr(&self, i: u16) -> u64 {
        if i == 0 {
            self.leftmost()
        } else {
            self.ptr(i - 1)
        }
    }

    /// FAST entry validity: a pointer that is neither the NULL terminator
    /// nor the [`INVALID_PTR`] poison sentinel.
    #[inline]
    pub fn entry_valid(&self, i: u16) -> bool {
        let p = self.ptr(i);
        p != NULL_OFFSET && p != INVALID_PTR
    }

    /// Exact number of records before the NULL terminator (counts invalid
    /// entries too, since they occupy slots). O(n) scan; used by writers
    /// that hold the node lock.
    pub fn count_records(&self) -> u16 {
        let cap = self.capacity();
        // Start from the hint and self-heal in either direction.
        let mut c = self.count_hint();
        if c > cap {
            c = cap;
        }
        // The terminator may be earlier than the hint…
        while c > 0 && self.ptr(c - 1) == NULL_OFFSET {
            c -= 1;
        }
        // …or later.
        while c < cap + 1 && self.ptr(c) != NULL_OFFSET {
            c += 1;
        }
        c
    }

    /// Collects the valid `(key, ptr)` entries in slot order, dropping the
    /// exact duplicate of its left neighbour that a finished copy step of
    /// an interrupted shift leaves behind (same key, same value — keys are
    /// unique within a node, so an adjacent repeat is always shift residue).
    pub fn valid_entries(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut i = 0u16;
        while i <= self.capacity() {
            let p = self.ptr(i);
            if p == NULL_OFFSET {
                break;
            }
            if p != INVALID_PTR {
                let k = self.key(i);
                if out.last().map(|&(lk, _)| lk) != Some(k) {
                    out.push((k, p));
                }
            }
            i += 1;
        }
        out
    }

    /// Key of the first *valid* entry, if any.
    ///
    /// Lock-free callers (sibling routing) race with concurrent shifts, so
    /// the scan is retried while the switch counter moves under it; retries
    /// are bounded to stay wait-free for writers that already hold the lock.
    pub fn first_key(&self) -> Option<u64> {
        let mut last = None;
        for _ in 0..8 {
            let sc = self.switch_counter();
            last = self.first_key_unvalidated();
            // In delete direction a pass can skip the record a running
            // left shift is moving: it reads the slot being filled while
            // poisoned, then the next slot after that was poisoned in
            // turn, and the counter bump came before the pass began. The
            // skipped record has settled by the time the pass ends, so a
            // second pass that agrees proves the first missed nothing.
            let settled = sc.is_multiple_of(2) || self.first_key_unvalidated() == last;
            if settled && self.switch_counter() == sc {
                return last;
            }
        }
        last
    }

    fn first_key_unvalidated(&self) -> Option<u64> {
        let mut i = 0u16;
        while i <= self.capacity() {
            let p = self.ptr(i);
            if p == NULL_OFFSET {
                return None;
            }
            if p != INVALID_PTR {
                // TOCTOU: the slot may be rewritten between the pointer
                // check and the key load; re-validate the pointer.
                let k = self.key(i);
                if self.ptr(i) == p {
                    return Some(k);
                }
            }
            i += 1;
        }
        None
    }

    /// Initializes a freshly allocated node (zeroing all record slots).
    ///
    /// Writes are plain stores; the caller persists the node when the
    /// algorithm requires it (e.g. FAIR flushes the whole sibling before
    /// linking it).
    pub fn init(&self, level: u32) {
        self.pool
            .zero_region(self.off, u64::from(self.shape.node_size));
        self.set_level(level);
        if level == 0 {
            self.set_leftmost(LEAF_ANCHOR);
            if self.shape.geom.fingerprints {
                // An all-zero fingerprint array is consistent with an
                // empty node, so a fresh leaf starts sealed.
                self.pool.store_u64(self.off + SEAL_OFF, 1);
            }
        }
    }

    /// Charges the read-latency cost of landing on this node (one serial
    /// miss for the header line).
    #[inline]
    pub fn charge_hop(&self) {
        self.pool.charge_serial_reads(1);
    }

    /// Charges a linear scan that touched records `[0, n)` of this node as
    /// prefetch-friendly adjacent lines.
    #[inline]
    pub fn charge_linear_scan(&self, n: u16) {
        if n == 0 {
            return;
        }
        let lines = (u64::from(n) * RECORD_SIZE).div_ceil(CACHE_LINE as u64) as u32;
        self.pool.charge_parallel_lines(lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;

    fn pool() -> Pool {
        Pool::new(PoolConfig::new().size(1 << 20)).unwrap()
    }

    fn fresh_node(pool: &Pool, size: u32, level: u32) -> NodeRef<'_> {
        fresh_geom_node(pool, size, level, NodeGeom::default())
    }

    fn fresh_geom_node(pool: &Pool, size: u32, level: u32, geom: NodeGeom) -> NodeRef<'_> {
        let off = pool.alloc(u64::from(size), 64).unwrap();
        let n = NodeRef::with_geom(pool, off, size, geom);
        n.init(level);
        n
    }

    #[test]
    fn capacity_matches_paper_geometry() {
        // 512-byte node: (512-64)/16 = 28 slots, 26 usable.
        assert_eq!(capacity(512), 26);
        assert_eq!(capacity(256), 10);
        assert_eq!(capacity(1024), 58);
        assert_eq!(capacity(4096), 250);
    }

    #[test]
    fn fingerprint_geometry_reserves_whole_lines() {
        // One fp line covers up to 64 slots; (512-64-64)/16 = 24 slots.
        assert_eq!(fp_lines(512), 1);
        assert_eq!(capacity_with(512, NodeGeom::fingerprinted()), 22);
        assert_eq!(capacity_with(1024, NodeGeom::fingerprinted()), 54);
        // 4096 needs 4 lines: 236 slots > 3*64 bytes, <= 4*64.
        assert_eq!(fp_lines(4096), 4);
        assert_eq!(capacity_with(4096, NodeGeom::fingerprinted()), 234);
        // Every geometry still holds one fp byte per physical slot.
        for ns in [256u32, 512, 1024, 2048, 4096] {
            let g = NodeGeom::fingerprinted();
            assert!(u64::from(capacity_with(ns, g)) + 2 <= fp_lines(ns) * 64);
        }
    }

    #[test]
    fn linear_frame_indexes_slots_directly() {
        let p = pool();
        for geom in [NodeGeom::default(), NodeGeom::fingerprinted()] {
            for size in [256u32, 512, 1024] {
                let n = fresh_geom_node(&p, size, 0, geom);
                let base = n.offset() + records_base(size, geom);
                for i in 0..n.slots() {
                    assert_eq!(n.key_off(i), base + u64::from(i) * RECORD_SIZE);
                    assert_eq!(n.ptr_off(i), n.key_off(i) + 8);
                    assert_eq!(n.rec_line(i), n.key_off(i) / CACHE_LINE as u64);
                }
                // Slot 0 starts on a fresh line past the header (and the
                // fp array); the last physical slot ends inside the node.
                assert_eq!(n.key_off(0) % CACHE_LINE as u64, 0);
                assert!(n.key_off(0) >= n.offset() + HEADER_SIZE);
                assert!(n.key_off(n.slots() - 1) + RECORD_SIZE <= n.offset() + u64::from(size));
                // Four 16-byte records per line: the line changes exactly
                // at every fourth slot.
                for i in 1..n.slots() {
                    assert_eq!(n.rec_line(i) != n.rec_line(i - 1), i % 4 == 0);
                }
            }
        }
    }

    #[test]
    fn records_roundtrip_up_to_capacity() {
        let p = pool();
        for geom in [NodeGeom::default(), NodeGeom::fingerprinted()] {
            let n = fresh_geom_node(&p, 256, 0, geom);
            let cap = n.capacity();
            let want: Vec<(u64, u64)> = (0..u64::from(cap))
                .map(|i| (i * 10 + 10, i + 100))
                .collect();
            for (i, &(k, v)) in want.iter().enumerate() {
                n.set_key(i as u16, k);
                n.set_ptr(i as u16, v);
            }
            assert_eq!(n.valid_entries(), want);
            assert_eq!(n.count_records(), cap);
            assert_eq!(n.first_key(), Some(10));
            // The terminator and slack slots stay NULL; the reserved header
            // word is never written by record traffic.
            assert_eq!(n.ptr(cap), NULL_OFFSET);
            assert_eq!(n.ptr(cap + 1), NULL_OFFSET);
            assert_eq!(p.load_u64(n.offset() + 56), 0);
        }
    }

    #[test]
    fn fingerprint_seal_dance() {
        let p = pool();
        let n = fresh_geom_node(&p, 512, 0, NodeGeom::fingerprinted());
        // Fresh leaf starts sealed (all-zero array matches empty node).
        assert!(n.fp_sealed());
        n.fp_unseal();
        assert!(!n.fp_sealed());
        n.set_key(0, 42);
        n.set_ptr(0, 7);
        n.set_fp(0, fp_hash(42));
        n.fp_reseal();
        assert!(n.fp_sealed());
        assert_eq!(n.fp(0), fp_hash(42));
        assert_eq!(n.fp(1), 0);
        // Rebuild derives the same array from the records.
        n.set_fp(0, 99);
        n.rebuild_fps();
        assert_eq!(n.fp(0), fp_hash(42));
        assert_eq!(n.fp(3), 0);
        // Internal nodes never participate in the dance.
        let m = fresh_geom_node(&p, 512, 1, NodeGeom::fingerprinted());
        assert!(!m.fp_sealed());
        m.fp_reseal();
        assert!(!m.fp_sealed());
    }

    #[test]
    fn fp_hash_never_zero() {
        for k in [0u64, 1, 42, u64::MAX, 0x123456789abcdef0] {
            assert_ne!(fp_hash(k), 0);
        }
    }

    #[test]
    fn header_roundtrip() {
        let p = pool();
        let n = fresh_node(&p, 512, 3);
        assert_eq!(n.level(), 3);
        assert!(!n.is_leaf());
        assert!(!n.is_deleted());
        n.set_sibling(4096);
        assert_eq!(n.sibling(), 4096);
        n.set_switch_counter(5);
        assert_eq!(n.switch_counter(), 5);
        n.set_count_hint(7);
        assert_eq!(n.count_hint(), 7);
        n.mark_deleted();
        assert!(n.is_deleted());
        assert_eq!(n.level(), 3);
    }

    #[test]
    fn leaf_gets_anchor() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        assert!(n.is_leaf());
        assert_eq!(n.leftmost(), LEAF_ANCHOR);
        assert_eq!(n.left_ptr(0), LEAF_ANCHOR);
    }

    #[test]
    fn validity_rules() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        // Empty: entry 0 has NULL ptr -> invalid.
        assert!(!n.entry_valid(0));
        n.set_key(0, 10);
        n.set_ptr(0, 100);
        assert!(n.entry_valid(0));
        // A duplicate *value* on a different key is perfectly valid: values
        // are arbitrary u64s, not unique pointers (see the module docs).
        n.set_key(1, 20);
        n.set_ptr(1, 100);
        assert!(n.entry_valid(1));
        n.set_ptr(1, 200);
        assert!(n.entry_valid(1));
        // The poison sentinel marks an entry invalid at any slot.
        n.set_ptr(1, INVALID_PTR);
        assert!(!n.entry_valid(1));
        n.set_ptr(1, 200);
        // Anchor in entry 0 marks it invalid (leaf pos-0 shift state): the
        // anchor shares the sentinel's bit pattern.
        n.set_ptr(0, LEAF_ANCHOR);
        assert!(!n.entry_valid(0));
        assert!(n.entry_valid(1));
    }

    #[test]
    fn count_records_self_heals_stale_hint() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        for i in 0..5u16 {
            n.set_key(i, u64::from(i) * 10 + 10);
            n.set_ptr(i, u64::from(i) + 100);
        }
        n.set_count_hint(0); // stale low
        assert_eq!(n.count_records(), 5);
        n.set_count_hint(20); // stale high
        assert_eq!(n.count_records(), 5);
    }

    #[test]
    fn valid_entries_skips_poison_and_shift_residue() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        n.set_key(0, 10);
        n.set_ptr(0, 100);
        n.set_key(1, 15);
        n.set_ptr(1, INVALID_PTR); // poisoned mid-shift slot -> garbage
        n.set_key(2, 20);
        n.set_ptr(2, 200);
        n.set_key(3, 20);
        n.set_ptr(3, 200); // exact adjacent duplicate -> shift residue
        n.set_key(4, 30);
        n.set_ptr(4, 200); // same value, different key -> valid
        assert_eq!(n.valid_entries(), vec![(10, 100), (20, 200), (30, 200)]);
        assert_eq!(n.first_key(), Some(10));
    }

    #[test]
    fn first_key_none_for_empty() {
        let p = pool();
        let n = fresh_node(&p, 512, 0);
        assert_eq!(n.first_key(), None);
    }

    #[test]
    fn init_clears_stale_records() {
        let p = pool();
        let off = p.alloc(512, 64).unwrap();
        let n = NodeRef::new(&p, off, 512);
        n.set_key(3, 333);
        n.set_ptr(3, 334);
        n.init(0);
        assert_eq!(n.key(3), 0);
        assert_eq!(n.ptr(3), 0);
        assert_eq!(n.count_records(), 0);
    }
}
