//! The FAST+FAIR B+-tree: structure, configuration and traversal.
//!
//! The tree is a B-link tree (every node, internal and leaf, carries a right
//! sibling pointer — §3.2) whose node mutations are performed with the FAST
//! and FAIR algorithms so that *every 8-byte store* leaves the tree either
//! consistent or transiently inconsistent in a way readers tolerate.
//!
//! Persistent superblock layout (64 bytes, one cache line):
//!
//! ```text
//!  0  magic
//!  8  root node offset           (updated by a single persisted store —
//!                                 the commit point of a root split)
//! 16  node size in bytes
//! 24  strategy tag               (bit 0: logging split; bit 1: leaf
//!                                 fingerprints; bit 2: retired (circular
//!                                 frame); `open` rejects it and every
//!                                 higher bit — 0 = plain FAIR, kept
//!                                 compatible with the old 0/1 encoding)
//! 32  log head                   (logging variant: node being split, 0 = idle)
//! 40  lock word                  (volatile; serializes root growth)
//! 48  log area offset            (logging variant's preallocated undo buffer)
//! 56  reserved
//! ```

use std::sync::Arc;

use epoch::EpochDomain;
use pmem::{stats, PmOffset, Pool, NULL_OFFSET};
use pmindex::{Cursor, IndexError, Key, PmIndex, Value};

use crate::layout::{capacity, NodeGeom, NodeRef, NodeShape};
use crate::lock::ReadGuard;
use crate::scan::TreeCursor;

pub(crate) const META_MAGIC: u64 = 0x4641_4952_5452_4545; // "FAIRTREE"
pub(crate) const META_ROOT: u64 = 8;
pub(crate) const META_NODE_SIZE: u64 = 16;
pub(crate) const META_STRATEGY: u64 = 24;
pub(crate) const META_LOG_HEAD: u64 = 32;
pub(crate) const META_LOCK: u64 = 40;
pub(crate) const META_LOG_AREA: u64 = 48;

/// How node splits are made failure-atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// FAIR: in-place rebalance through endurable transient inconsistency
    /// (the paper's contribution, Algorithm 2).
    #[default]
    Fair,
    /// Legacy undo-logging rebalance — the `FAST+Logging` baseline of
    /// Fig. 5(a)/(c), 7–18 % slower due to log flushes.
    Logging,
}

/// In-node search algorithm (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InNodeSearch {
    /// Linear scan — required for lock-free reads, faster below 4 KB nodes.
    #[default]
    Linear,
    /// Binary search — incompatible with lock-free reads (§4); available
    /// for the single-threaded Fig. 3 comparison only.
    Binary,
}

/// Construction options for a [`FastFairTree`].
#[derive(Debug, Clone, Copy)]
pub struct TreeOptions {
    /// Node size in bytes (power of two, 256–4096 in the paper's sweep).
    pub node_size: u32,
    /// Split strategy (FAIR vs. logging).
    pub split: SplitStrategy,
    /// In-node search algorithm.
    pub search: InNodeSearch,
    /// `FAST+FAIR+LeafLock` (§4.1): readers take leaf read locks, trading a
    /// little concurrency for serializable reads.
    pub leaf_locks: bool,
    /// Leaf fingerprint probes (see [`NodeGeom::fingerprints`]).
    pub fingerprints: bool,
}

impl TreeOptions {
    /// The paper's default configuration: 512-byte nodes, FAIR splits,
    /// linear search, lock-free reads.
    pub fn new() -> Self {
        TreeOptions {
            node_size: 512,
            split: SplitStrategy::Fair,
            search: InNodeSearch::Linear,
            leaf_locks: false,
            fingerprints: false,
        }
    }

    /// Sets the node size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the size is not a multiple of 64 or holds fewer than four
    /// records.
    pub fn node_size(mut self, bytes: u32) -> Self {
        assert!(
            bytes.is_multiple_of(64),
            "node size must be a multiple of 64"
        );
        let _ = capacity(bytes); // panics if too small
        self.node_size = bytes;
        self
    }

    /// Selects the split strategy.
    pub fn split(mut self, s: SplitStrategy) -> Self {
        self.split = s;
        self
    }

    /// Selects the in-node search algorithm.
    pub fn search(mut self, s: InNodeSearch) -> Self {
        self.search = s;
        self
    }

    /// Enables leaf read locks (serializable reads).
    pub fn leaf_locks(mut self, on: bool) -> Self {
        self.leaf_locks = on;
        self
    }

    /// Enables leaf fingerprint probes.
    pub fn fingerprints(mut self, on: bool) -> Self {
        self.fingerprints = on;
        self
    }

    /// The node geometry these options describe.
    pub fn geom(&self) -> NodeGeom {
        NodeGeom {
            fingerprints: self.fingerprints,
        }
    }
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions::new()
    }
}

/// A failure-atomic persistent B+-tree using FAST in-node shifts and FAIR
/// in-place rebalancing.
///
/// Writers take one node latch at a time; readers are non-blocking (or take
/// leaf read locks when [`TreeOptions::leaf_locks`] is set). All data lives
/// in a [`pmem::Pool`]; reopening the pool and calling
/// [`FastFairTree::open`] recovers the tree instantly, and
/// [`FastFairTree::recover`] eagerly repairs any transient inconsistency a
/// crash left behind.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmem::{Pool, PoolConfig};
/// use fastfair::{FastFairTree, TreeOptions};
/// use pmindex::PmIndex;
///
/// let pool = Arc::new(Pool::new(PoolConfig::default().size(1 << 20))?);
/// let tree = FastFairTree::create(Arc::clone(&pool), TreeOptions::new())?;
/// tree.insert(42, 4242)?;
/// assert_eq!(tree.get(42), Some(4242));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FastFairTree {
    pub(crate) pool: Arc<Pool>,
    pub(crate) meta: PmOffset,
    pub(crate) node_size: u32,
    /// The node geometry resolved once for `node_size`: every node view
    /// the tree hands out carries it, so slot addressing never recomputes
    /// the records base or the capacity.
    pub(crate) shape: NodeShape,
    pub(crate) opts: TreeOptions,
    /// Epoch-based reclamation domain. Lock-free readers may still be
    /// traversing a node a FAIR merge just unlinked, so the merge path
    /// *retires* the block into this domain's limbo lists; once two
    /// epochs have passed — every reader pinned at retirement time has
    /// left its critical section — the block returns to [`Pool::free`]
    /// **while traffic is live**. [`FastFairTree::recover`] and `Drop`
    /// (both quiescent by contract) flush whatever is still in limbo.
    /// Limbo is volatile by design: a crash empties it and the blocks
    /// leak, matching PM allocators without offline GC.
    pub(crate) epoch: Arc<EpochDomain>,
    name: &'static str,
}

impl std::fmt::Debug for FastFairTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastFairTree")
            .field("meta", &self.meta)
            .field("node_size", &self.node_size)
            .field("height", &self.height())
            .field("opts", &self.opts)
            .finish()
    }
}

impl FastFairTree {
    /// Creates a new empty tree in `pool` and returns its handle.
    ///
    /// The tree's superblock offset ([`meta_offset`](Self::meta_offset))
    /// identifies it inside the pool; applications managing several trees
    /// (e.g. the TPC-C tables) store those offsets in their own directory
    /// object.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool cannot fit the superblock and root node.
    pub fn create(pool: Arc<Pool>, opts: TreeOptions) -> Result<Self, IndexError> {
        let node_size = opts.node_size;
        let meta = pool.alloc(64, 64)?;
        pool.zero_region(meta, 64);
        let root = pool.alloc(u64::from(node_size), 64)?;
        NodeRef::with_geom(&pool, root, node_size, opts.geom()).init(0);
        pool.persist(root, u64::from(node_size));
        pool.store_u64(meta, META_MAGIC);
        pool.store_u64(meta + META_NODE_SIZE, u64::from(node_size));
        let mut strategy = match opts.split {
            SplitStrategy::Fair => 0,
            SplitStrategy::Logging => 1,
        };
        if opts.fingerprints {
            strategy |= 2;
        }
        pool.store_u64(meta + META_STRATEGY, strategy);
        if opts.split == SplitStrategy::Logging {
            // Undo buffer: 8-byte target tag + a full node image.
            let area = pool.alloc(8 + u64::from(node_size), 64)?;
            pool.store_u64(meta + META_LOG_AREA, area);
        }
        pool.store_u64(meta + META_ROOT, root);
        pool.persist(meta, 64);
        Ok(Self::with_meta(pool, meta, node_size, opts))
    }

    /// Opens the tree whose superblock is at `meta` (instant recovery).
    ///
    /// If the tree uses the logging split strategy and a crash interrupted a
    /// split, the undo log is rolled back here. FAIR trees need no undo:
    /// readers tolerate the crash state, and [`recover`](Self::recover) (or
    /// ordinary writer traffic) repairs it lazily.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::PoolExhausted`] wrapping a description if the
    /// superblock magic does not match, and [`IndexError::Unsupported`]
    /// naming the bit if the strategy tag sets any bit other than 0
    /// (logging split) and 1 (fingerprints).
    pub fn open(pool: Arc<Pool>, meta: PmOffset, opts: TreeOptions) -> Result<Self, IndexError> {
        if pool.load_u64(meta) != META_MAGIC {
            return Err(IndexError::PoolExhausted(format!(
                "no tree superblock at offset {meta:#x}"
            )));
        }
        let node_size = pool.load_u64(meta + META_NODE_SIZE) as u32;
        let mut opts = opts;
        opts.node_size = node_size;
        let strategy = pool.load_u64(meta + META_STRATEGY);
        // Bit 2 marked nodes rotated by the retired circular frame's head,
        // which this code no longer reads; higher bits come from a format
        // it does not know. Either would silently misread records.
        let unknown = strategy & !3;
        if unknown != 0 {
            return Err(IndexError::Unsupported(format!(
                "tree at {meta:#x} sets strategy bit {} (bit 2 is the retired circular frame)",
                unknown.trailing_zeros()
            )));
        }
        opts.split = if strategy & 1 == 1 {
            SplitStrategy::Logging
        } else {
            SplitStrategy::Fair
        };
        opts.fingerprints = strategy & 2 != 0;
        let tree = Self::with_meta(pool, meta, node_size, opts);
        tree.undo_log_rollback();
        Ok(tree)
    }

    fn with_meta(pool: Arc<Pool>, meta: PmOffset, node_size: u32, opts: TreeOptions) -> Self {
        let name = match (opts.split, opts.leaf_locks, opts.search) {
            (SplitStrategy::Logging, _, _) => "FAST+Logging",
            (SplitStrategy::Fair, true, _) => "FAST+FAIR+LeafLock",
            (SplitStrategy::Fair, false, InNodeSearch::Binary) => "FAST+FAIR(binary)",
            (SplitStrategy::Fair, false, InNodeSearch::Linear) if opts.fingerprints => {
                "FAST+FAIR+FP"
            }
            (SplitStrategy::Fair, false, InNodeSearch::Linear) => "FAST+FAIR",
        };
        FastFairTree {
            pool,
            meta,
            node_size,
            shape: NodeShape::new(node_size, opts.geom()),
            opts,
            epoch: EpochDomain::new(),
            name,
        }
    }

    /// The tree's epoch-based reclamation domain — exposed so tests,
    /// tooling and reclamation policies can observe or drive the clock
    /// (e.g. force a deterministic advance/collect between phases).
    pub fn epoch(&self) -> &Arc<EpochDomain> {
        &self.epoch
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Offset of the persistent superblock identifying this tree.
    pub fn meta_offset(&self) -> PmOffset {
        self.meta
    }

    /// Node size in bytes.
    pub fn node_size(&self) -> u32 {
        self.node_size
    }

    /// Records per node.
    pub fn node_capacity(&self) -> u16 {
        self.shape.capacity()
    }

    /// The configuration this handle was opened with.
    pub fn options(&self) -> &TreeOptions {
        &self.opts
    }

    /// Current root node offset.
    pub(crate) fn root(&self) -> PmOffset {
        self.pool.load_u64(self.meta + META_ROOT)
    }

    /// Tree height: the root's level (0 = the tree is a single leaf).
    pub fn height(&self) -> u32 {
        self.node(self.root()).level()
    }

    /// Borrowed view of the node at `off`, framed by the tree's geometry.
    #[inline]
    pub(crate) fn node(&self, off: PmOffset) -> NodeRef<'_> {
        NodeRef::with_shape(&self.pool, off, self.shape)
    }

    /// Descends from the root to the leaf whose key range contains `key`,
    /// lock-free.
    ///
    /// Read-latency charging models the paper's testbed: the few upper
    /// levels of a B+-tree stay resident in the CPU's last-level cache
    /// (Quartz stalls only real LLC misses), so only the two lowest levels
    /// — the large, cold ones — are charged as PM misses.
    pub(crate) fn find_leaf(&self, key: Key) -> PmOffset {
        let mut off = self.root();
        let mut node = self.node(off);
        if node.level() <= 1 {
            node.charge_hop();
        }
        while !node.is_leaf() {
            off = self.route(node, key);
            node = self.node(off);
            if node.level() <= 1 {
                node.charge_hop();
            }
        }
        off
    }

    /// Chooses the next node when standing on internal node `node` looking
    /// for `key`: either the correct child, or the right sibling when the
    /// key lies beyond this node's range (B-link move-right).
    pub(crate) fn route(&self, node: NodeRef<'_>, key: Key) -> PmOffset {
        // Move right first: the node may have split under us.
        if let Some(sib) = self.covering_sibling(node, key) {
            return sib;
        }
        match self.opts.search {
            InNodeSearch::Linear => self.route_linear(node, key),
            InNodeSearch::Binary => self.route_binary(node, key),
        }
    }

    /// If `key` lies beyond this node's key range, returns the right
    /// sibling to move to (B-link move-right).
    ///
    /// The bound is the first key of the nearest *non-empty* right
    /// sibling: empty pass-through nodes (mid-merge, or a merge bail-out)
    /// hold no keys and never receive new ones, so they are skipped, not
    /// entered — stopping at one would block the rightward walk and make
    /// every live key beyond it unreachable (a reader would miss it, a
    /// writer would insert left of it and break the chain order).
    pub(crate) fn covering_sibling(&self, node: NodeRef<'_>, key: Key) -> Option<PmOffset> {
        let mut sib = node.sibling();
        while sib != NULL_OFFSET {
            let s = self.node(sib);
            match s.first_key() {
                Some(fk) => return (fk <= key).then_some(sib),
                None => sib = s.sibling(),
            }
        }
        None
    }

    /// Direction-aware lock-free child routing (the internal-node analogue
    /// of Algorithm 3).
    fn route_linear(&self, node: NodeRef<'_>, key: Key) -> PmOffset {
        let cap = self.shape.capacity();
        loop {
            let sc = node.switch_counter();
            let mut child = node.leftmost();
            let mut scanned: u16 = 0;
            if sc.is_multiple_of(2) {
                // Insert direction: scan left to right.
                let mut i: u16 = 0;
                while i <= cap {
                    let p = node.ptr(i);
                    if p == NULL_OFFSET {
                        break;
                    }
                    scanned = i + 1;
                    if p != crate::layout::INVALID_PTR {
                        // Re-read the pointer after reading the key (TOCTOU
                        // guard, as in the original implementation).
                        let k = node.key(i);
                        if p == node.ptr(i) {
                            if key < k {
                                break;
                            }
                            child = p;
                        }
                    }
                    i += 1;
                }
            } else {
                // Delete direction: scan right to left.
                let hint = node.count_hint().min(cap);
                let mut found = false;
                let mut i = cap.min(hint.saturating_add(2));
                loop {
                    let p = node.ptr(i);
                    if p != NULL_OFFSET && p != crate::layout::INVALID_PTR {
                        let k = node.key(i);
                        if p == node.ptr(i) && k <= key {
                            child = p;
                            found = true;
                            break;
                        }
                    }
                    if i == 0 {
                        break;
                    }
                    i -= 1;
                }
                scanned = if found { i + 1 } else { hint };
                if !found {
                    child = node.leftmost();
                }
            }
            // Internal-node lines are LLC-resident on the modelled testbed;
            // no scan charge here (the leaf scan is charged in `search`).
            let _ = scanned;
            if node.switch_counter() == sc {
                if child == NULL_OFFSET {
                    // Transient empty view; retry.
                    std::hint::spin_loop();
                    continue;
                }
                return child;
            }
        }
    }

    /// Binary-search routing (single-threaded benchmarking only; see
    /// [`InNodeSearch::Binary`]).
    fn route_binary(&self, node: NodeRef<'_>, key: Key) -> PmOffset {
        let cnt = node.count_records();
        if cnt == 0 {
            return node.leftmost();
        }
        // Dependent probes are charged only on the cold (low) levels.
        if node.level() <= 1 {
            let probes = (u32::from(cnt) * 16 / 64).max(1).ilog2() + 1;
            self.pool.charge_serial_reads(probes);
        }
        let (mut lo, mut hi) = (0u16, cnt);
        // Find the first index with key(i) > key.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if node.key(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            node.leftmost()
        } else {
            node.ptr(lo - 1)
        }
    }

    /// Offset of the leftmost leaf.
    pub(crate) fn leftmost_leaf(&self) -> PmOffset {
        let mut node = self.node(self.root());
        while !node.is_leaf() {
            node = self.node(node.leftmost());
        }
        node.offset()
    }

    /// Visits every live `(key, value)` pair in ascending key order.
    ///
    /// Duplicates from an in-flight or crashed split (the "virtual single
    /// node" state of Fig. 2) are suppressed by the cursor's monotonicity
    /// filter.
    pub fn for_each(&self, mut f: impl FnMut(Key, Value)) {
        let mut c = TreeCursor::new(self);
        while let Some((k, v)) = Cursor::next(&mut c) {
            f(k, v);
        }
    }

    /// Retires an unlinked node into the epoch domain: the block returns
    /// to [`Pool::free`] once two epochs have passed, while traffic is
    /// live (see the `epoch` field docs).
    pub(crate) fn retire_node(&self, off: PmOffset) {
        self.epoch
            .retire_pm(&self.pool, off, u64::from(self.node_size));
    }

    /// Returns every limbo-held node to the pool's free list immediately;
    /// the caller must guarantee no concurrent reader can still hold a
    /// reference (recovery and drop both do).
    pub(crate) fn reclaim_retired(&self) -> usize {
        self.epoch.flush()
    }

    fn get_impl(&self, key: Key) -> Option<Value> {
        let mut off = self.find_leaf(key);
        loop {
            let leaf = self.node(off);
            let _guard = self
                .opts
                .leaf_locks
                .then(|| ReadGuard::lock(&self.pool, leaf.lock_word_off()));
            if let Some(v) = match self.opts.search {
                InNodeSearch::Linear => crate::search::leaf_search_linear(self, leaf, key),
                InNodeSearch::Binary => crate::search::leaf_search_binary(self, leaf, key),
            } {
                return Some(v);
            }
            drop(_guard);
            match self.covering_sibling(leaf, key) {
                Some(sib) => {
                    self.node(sib).charge_hop();
                    off = sib;
                }
                None => return None,
            }
        }
    }
}

/// Router-facing persistence contract: `create_in`/`open_in` use the
/// default [`TreeOptions`] (`open` re-reads node size and split strategy
/// from the superblock regardless, so a tree created with custom options
/// re-opens faithfully).
impl pmindex::PersistentIndex for FastFairTree {
    fn create_in(pool: Arc<Pool>) -> Result<Self, IndexError> {
        FastFairTree::create(pool, TreeOptions::new())
    }
    fn open_in(pool: Arc<Pool>, meta: PmOffset) -> Result<Self, IndexError> {
        FastFairTree::open(pool, meta, TreeOptions::new())
    }
    fn superblock(&self) -> PmOffset {
        self.meta_offset()
    }

    /// Walks every level chain and returns the whole tree — nodes,
    /// limbo-held retirees, superblock and (for the logging strategy) the
    /// undo buffer — to the pool's free list. Caller guarantees exclusive
    /// access; the shard router defers this call through its epoch domain
    /// so it runs only after every reader of the evacuated index is gone.
    fn reclaim_storage(&self) -> usize {
        // Limbo first: merge-retired nodes are no longer on any chain.
        let mut freed = self.epoch.flush();
        let mut seen = std::collections::BTreeSet::new();
        for level in (0..=self.height()).rev() {
            for off in self.level_chain(level) {
                if seen.insert(off) {
                    self.pool.free(off, u64::from(self.node_size));
                    freed += 1;
                }
            }
        }
        if self.opts.split == SplitStrategy::Logging {
            let area = self.pool.load_u64(self.meta + META_LOG_AREA);
            if area != NULL_OFFSET {
                self.pool.free(area, 8 + u64::from(self.node_size));
                freed += 1;
            }
        }
        self.pool.free(self.meta, 64);
        freed + 1
    }
}

impl Drop for FastFairTree {
    fn drop(&mut self) {
        // The handle is going away, so no reader of *this* handle can still
        // hold references into limbo-held nodes; give any blocks online
        // reclamation has not yet collected back to the pool for the next
        // tree (or table) sharing it.
        self.reclaim_retired();
    }
}

impl PmIndex for FastFairTree {
    fn insert(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        pmindex::check_value(value)?;
        let _pin = self.epoch.pin();
        crate::insert::tree_insert(self, key, value)
    }

    fn update(&self, key: Key, value: Value) -> Result<Option<Value>, IndexError> {
        pmindex::check_value(value)?;
        let _pin = self.epoch.pin();
        crate::insert::tree_update(self, key, value)
    }

    fn get(&self, key: Key) -> Option<Value> {
        let _pin = self.epoch.pin();
        stats::timed(stats::Phase::Search, || self.get_impl(key))
    }

    fn remove(&self, key: Key) -> bool {
        let _pin = self.epoch.pin();
        crate::delete::tree_remove(self, key)
    }

    fn cursor(&self) -> Box<dyn Cursor + '_> {
        Box::new(TreeCursor::new(self))
    }

    fn len(&self) -> usize {
        let mut n = 0;
        self.for_each(|_, _| n += 1);
        n
    }

    fn is_empty(&self) -> bool {
        let mut c = TreeCursor::new(self);
        Cursor::next(&mut c).is_none()
    }

    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) {
        crate::scan::tree_range(self, lo, hi, out);
    }

    fn bulk_load(
        &self,
        items: &mut dyn Iterator<Item = (Key, Value)>,
    ) -> Result<usize, IndexError> {
        let _pin = self.epoch.pin();
        self.bulk_load_sorted(items)
    }

    fn name(&self) -> &'static str {
        self.name
    }
}
