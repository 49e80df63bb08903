//! FAIR — Failure-Atomic In-place Rebalance (Algorithm 2) — plus the legacy
//! logging split used by the `FAST+Logging` baseline, root growth and the
//! lazy parent-update repair.
//!
//! A FAIR split never logs and never copies-on-write. Its persist points
//! are ordered so every crash state is readable:
//!
//! 1. build the sibling off-line and flush it (invisible until linked);
//! 2. link it: `node.sibling_ptr = sibling` — one persisted 8-byte store.
//!    Node and sibling now form a "virtual single node" whose upper half
//!    appears twice; readers tolerate the duplication (Fig. 2 state (2));
//! 3. truncate: `node.records[median].ptr = NULL` — one persisted 8-byte
//!    store moves the upper half to the sibling atomically;
//! 4. insert the separator into the parent with FAST, re-traversing from
//!    the root. A crash before step 4 leaves a *dangling sibling* that any
//!    later writer repairs (§4.2).

use pmem::{PmOffset, NULL_OFFSET};
use pmindex::{IndexError, Key, Value};

use crate::insert::{fast_insert_locked, insert_entry};
use crate::layout::NodeRef;
use crate::lock::{lock_write, unlock_write, WriteGuard};
use crate::tree::{FastFairTree, META_LOCK, META_LOG_AREA, META_LOG_HEAD, META_ROOT};

/// Builds and links the right sibling of a full, locked, repaired `node`;
/// returns `(sibling offset, separator key)`.
///
/// Shared by the FAIR and logging strategies — they differ only in how the
/// steps are made failure-atomic (`ordered_persists` toggles the per-step
/// flushes).
fn build_and_link_sibling(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    ordered_persists: bool,
) -> Result<(PmOffset, Key), IndexError> {
    let pool = &tree.pool;
    let cnt = node.count_records();
    debug_assert_eq!(cnt, tree.shape.capacity());
    let median = cnt / 2;
    let level = node.level();
    let split_key = node.key(median);

    let sib_off = pool.alloc(u64::from(tree.node_size), 64)?;
    let sib = tree.node(sib_off);
    sib.init(level);
    if level == 0 {
        let mut j = 0u16;
        for i in median..cnt {
            sib.set_key(j, node.key(i));
            sib.set_ptr(j, node.ptr(i));
            // The sibling is born sealed (init) and invisible until linked,
            // so its fingerprints are just written in place.
            sib.set_fp(j, crate::layout::fp_hash(node.key(i)));
            j += 1;
        }
        sib.set_count_hint(j);
    } else {
        // The median key is pushed up; its child becomes the sibling's
        // leftmost child.
        sib.set_leftmost(node.ptr(median));
        let mut j = 0u16;
        for i in median + 1..cnt {
            sib.set_key(j, node.key(i));
            sib.set_ptr(j, node.ptr(i));
            j += 1;
        }
        sib.set_count_hint(j);
    }
    sib.set_sibling(node.sibling());
    if ordered_persists {
        // Sibling must be durable before it becomes reachable.
        pool.persist(sib_off, u64::from(tree.node_size));
    }

    // Step 2: visibility point.
    node.set_sibling(sib_off);
    if ordered_persists {
        pool.persist(node.sibling_field_off(), 8);
    }

    // The truncation is about to strand the moved-out upper half above the
    // left node's new terminator, where only right-to-left (delete
    // direction) readers look. Put a node left in delete direction back
    // into insert direction first, so no reader scans the stale copies;
    // one that started before the flip fails its counter re-check.
    // (`enter_delete_direction` nulls the stale slots before a later
    // delete flips it back.)
    let sc = node.switch_counter();
    if sc % 2 == 1 {
        node.set_switch_counter(sc + 1);
    }

    // Break the fingerprint seal before the truncation too, so no
    // reader (or crash image) trusts fingerprints that still cover the
    // moved-out records.
    // Probes that race the window below fail their seal recheck and fall
    // back to the linear scan, whose move-right handling covers the
    // "virtual single node" state either way.
    let was_sealed = node.fp_unseal();

    // Step 3: truncation — one atomic store moves the upper half out.
    node.set_ptr(median, NULL_OFFSET);
    if ordered_persists {
        pool.persist(node.ptr_off(median), 8);
    }
    node.set_count_hint(median);
    // Restore the above-terminator-zero fingerprint invariant, then
    // reseal (misses for moved-out keys now route through the sibling).
    for i in median..cnt {
        node.set_fp(i, 0);
    }
    node.fp_reseal_after(was_sealed);
    Ok((sib_off, split_key))
}

/// Inserts the pending record into the correct half and releases the node.
fn insert_pending_and_unlock(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    sib_off: PmOffset,
    split_key: Key,
    key: Key,
    value: Value,
) {
    if key < split_key {
        fast_insert_locked(tree, node, key, value, node.count_records());
    } else {
        // The sibling is invisible to other writers until this node's lock
        // is released (they all pass through `node`), so no sibling lock is
        // needed — mirroring the original implementation.
        let sib = tree.node(sib_off);
        fast_insert_locked(tree, sib, key, value, sib.count_records());
    }
    guard.unlock();
}

/// FAIR split (Algorithm 2): splits the locked full `node` and inserts
/// `(key, value)`, then updates the parent by re-traversing from the root.
pub(crate) fn fair_split_insert(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    key: Key,
    value: Value,
) -> Result<(), IndexError> {
    let level = node.level();
    let node_off = node.offset();
    let (sib_off, split_key) = build_and_link_sibling(tree, node, true)?;
    insert_pending_and_unlock(tree, node, guard, sib_off, split_key, key, value);
    parent_update(tree, level + 1, split_key, sib_off, node_off)
}

/// Legacy logging split — the `FAST+Logging` baseline of Fig. 5(a)/(c).
///
/// Before modifying the node it writes an undo image (node-size bytes plus
/// a target tag) to the tree's log area and persists a log-valid marker;
/// the split itself then needs no careful store ordering. The extra
/// `node_size/64 + 2` flushes are the 7–18 % overhead the paper measures.
pub(crate) fn logging_split_insert(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    guard: WriteGuard<'_>,
    key: Key,
    value: Value,
) -> Result<(), IndexError> {
    let pool = &tree.pool;
    let level = node.level();
    let node_off = node.offset();

    // One log buffer per tree, serialized by the superblock lock word.
    lock_write(pool, tree.meta + META_LOCK);
    let area = pool.load_u64(tree.meta + META_LOG_AREA);
    debug_assert_ne!(area, NULL_OFFSET);
    pool.store_u64(area, node_off);
    let words = u64::from(tree.node_size) / 8;
    for w in 0..words {
        pool.store_u64(area + 8 + w * 8, pool.load_u64(node_off + w * 8));
    }
    pool.persist(area, 8 + u64::from(tree.node_size));
    pool.store_u64(tree.meta + META_LOG_HEAD, node_off);
    pool.persist(tree.meta + META_LOG_HEAD, 8);

    // Guarded by the undo log, the split needs no ordered persists.
    // (On allocation failure the log head must be rolled back and the
    // superblock lock released before the error propagates.)
    let (sib_off, split_key) = match build_and_link_sibling(tree, node, false) {
        Ok(pair) => pair,
        Err(e) => {
            pool.store_u64(tree.meta + META_LOG_HEAD, 0);
            pool.persist(tree.meta + META_LOG_HEAD, 8);
            unlock_write(pool, tree.meta + META_LOCK);
            return Err(e);
        }
    };
    pool.persist(sib_off, u64::from(tree.node_size));
    pool.persist(node_off, u64::from(tree.node_size));

    pool.store_u64(tree.meta + META_LOG_HEAD, 0);
    pool.persist(tree.meta + META_LOG_HEAD, 8);
    unlock_write(pool, tree.meta + META_LOCK);

    insert_pending_and_unlock(tree, node, guard, sib_off, split_key, key, value);
    parent_update(tree, level + 1, split_key, sib_off, node_off)
}

/// Inserts the separator into the parent level, growing the tree if the
/// split node was the root.
fn parent_update(
    tree: &FastFairTree,
    parent_level: u32,
    split_key: Key,
    sib_off: PmOffset,
    _left_off: PmOffset,
) -> Result<(), IndexError> {
    insert_entry(tree, parent_level, split_key, sib_off)
}

/// Creates a new root at `new_level` with the current root as leftmost
/// child and `(key, right)` as its single record. Racing growers are
/// serialized by the superblock lock; the loser re-routes through the
/// normal insert path.
pub(crate) fn grow_root(
    tree: &FastFairTree,
    new_level: u32,
    key: Key,
    right: PmOffset,
) -> Result<(), IndexError> {
    let pool = &tree.pool;
    lock_write(pool, tree.meta + META_LOCK);
    let root_off = tree.root();
    let root = tree.node(root_off);
    if root.level() >= new_level {
        // Another thread grew the tree first; take the ordinary path.
        unlock_write(pool, tree.meta + META_LOCK);
        return insert_entry(tree, new_level, key, right);
    }
    debug_assert_eq!(root.level() + 1, new_level);
    let nr_off = match pool.alloc(u64::from(tree.node_size), 64) {
        Ok(off) => off,
        Err(e) => {
            // Don't leak the superblock lock on pool exhaustion.
            unlock_write(pool, tree.meta + META_LOCK);
            return Err(e.into());
        }
    };
    let nr = tree.node(nr_off);
    nr.init(new_level);
    nr.set_leftmost(root_off);
    nr.set_key(0, key);
    nr.set_ptr(0, right);
    nr.set_count_hint(1);
    pool.persist(nr_off, u64::from(tree.node_size));
    // Commit: one persisted 8-byte store of the root pointer.
    pool.store_u64(tree.meta + META_ROOT, nr_off);
    pool.persist(tree.meta + META_ROOT, 8);
    unlock_write(pool, tree.meta + META_LOCK);
    Ok(())
}

/// Lazy dangling-sibling repair (§4.2): called when a writer reached
/// `node_off` through a sibling pointer. Ensures the parent level has an
/// entry routing to this node; no-op when it already does (only one of the
/// racing writers succeeds, "the rest find that the parent has already
/// been updated").
pub(crate) fn ensure_parent_entry(
    tree: &FastFairTree,
    node_off: PmOffset,
    parent_level: u32,
) -> Result<(), IndexError> {
    let node = tree.node(node_off);
    // The separator is the smallest key in this node's subtree.
    let mut n = node;
    let sep = loop {
        match n.first_key() {
            None if n.is_leaf() => return Ok(()), // empty: nothing to route
            None => return Ok(()),                // empty internal: skip
            Some(k) if n.is_leaf() => break k,
            Some(_) => {
                n = tree.node(n.leftmost());
            }
        }
    };
    let root = tree.node(tree.root());
    if root.level() < parent_level {
        if tree.root() == node_off {
            return Ok(()); // the root itself has no parent
        }
        return grow_root(tree, parent_level, sep, node_off);
    }
    insert_entry(tree, parent_level, sep, node_off)
}

impl FastFairTree {
    /// Rolls back a half-finished logging split on open. FAIR trees keep
    /// the log head at zero, so this is a no-op for them.
    pub(crate) fn undo_log_rollback(&self) {
        let pool = &self.pool;
        let head = pool.load_u64(self.meta + META_LOG_HEAD);
        if head == NULL_OFFSET {
            return;
        }
        let area = pool.load_u64(self.meta + META_LOG_AREA);
        let target = pool.load_u64(area);
        debug_assert_eq!(target, head);
        let words = u64::from(self.node_size) / 8;
        for w in 0..words {
            pool.store_u64(target + w * 8, pool.load_u64(area + 8 + w * 8));
        }
        // The lock word inside the restored image is volatile state.
        pool.store_u64_volatile(target + crate::layout::LOCK_OFF, 0);
        pool.persist(target, u64::from(self.node_size));
        pool.store_u64(self.meta + META_LOG_HEAD, 0);
        pool.persist(self.meta + META_LOG_HEAD, 8);
    }
}
