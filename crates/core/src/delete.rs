//! FAST deletion (left shift) and the lazy in-node repair used by all
//! writers.
//!
//! Deleting entry `d` is committed by a *single* 8-byte store: overwriting
//! `ptr(d)` with the [`INVALID_PTR`] poison makes the entry invalid to
//! every reader. The subsequent left-shift compaction only reclaims the
//! slot; if it is lost in a crash, the node merely contains one garbage
//! entry that the next writer removes (§4.2 "lazy recovery").
//!
//! Because a left shift moves entries toward lower slots, concurrent
//! lock-free readers must scan **right to left** while a delete is in
//! flight; the writer flips the node's switch counter to odd before
//! shifting (§4).

use pmem::{stats, NULL_OFFSET};
use pmindex::Key;

use crate::layout::{NodeRef, INVALID_PTR};
use crate::lock::WriteGuard;
use crate::tree::FastFairTree;

/// Flips a node into delete (right-to-left) scan direction.
///
/// A FAIR truncation leaves stale record copies *above* the NULL
/// terminator (the moved-out upper half). Left-to-right readers stop at
/// the terminator and never see them, but a right-to-left reader starts
/// above them — so before the switch counter goes odd, any stale pointers
/// above the terminator are nulled and **persisted**; only then is the
/// direction flipped. The flush ordering guarantees that a crash can
/// never persist an odd switch counter without the nulled slots.
///
/// (The original implementation trusts its `last_index` hint here and can
/// read a truncated node's stale slots after a delete; this is the second
/// documented deviation from §3.1, listed in ARCHITECTURE.md.)
pub(crate) fn enter_delete_direction(tree: &FastFairTree, node: NodeRef<'_>, cnt: u16) {
    let sc = node.switch_counter();
    if sc % 2 == 1 {
        // Already in delete direction: still bump the counter so readers
        // that overlap this shift see a changed value at their re-check —
        // consecutive same-direction shifts must not be invisible to the
        // retry protocol.
        node.set_switch_counter(sc + 2);
        return;
    }
    let pool = node.pool();
    let last_slot = tree.shape.capacity() + 1; // slots are 0..=cap+1
    let mut dirty = false;
    let mut i = cnt + 1;
    while i <= last_slot {
        if node.ptr(i) != NULL_OFFSET {
            node.set_ptr(i, NULL_OFFSET);
            dirty = true;
        }
        i += 1;
    }
    if dirty {
        pool.persist(
            node.key_off(cnt + 1),
            u64::from(last_slot - cnt) * crate::layout::RECORD_SIZE,
        );
    }
    node.set_switch_counter(sc + 1);
}

/// Public delete path: removes `key` from its leaf. Returns whether the key
/// was present.
pub(crate) fn tree_remove(tree: &FastFairTree, key: Key) -> bool {
    'retry: loop {
        let off = stats::timed(stats::Phase::Search, || tree.find_leaf(key));
        let mut guard = WriteGuard::lock(&tree.pool, tree.node(off).lock_word_off());
        let mut node = tree.node(off);
        loop {
            if node.is_deleted() {
                guard.unlock();
                continue 'retry;
            }
            repair_node_locked(tree, node);
            match tree.covering_sibling(node, key) {
                Some(sib) => {
                    let next = WriteGuard::lock(&tree.pool, tree.node(sib).lock_word_off());
                    guard.unlock();
                    guard = next;
                    node = tree.node(sib);
                }
                None => break,
            }
        }
        let mut emptied = false;
        let removed = match crate::insert::find_valid_slot(node, key) {
            None => false,
            Some(d) => {
                stats::timed(stats::Phase::Update, || {
                    let cnt = node.count_records();
                    // The records are about to move: break the fingerprint
                    // seal durably first, reseal after.
                    let was_sealed = node.fp_unseal();
                    // Readers must scan right-to-left from now on.
                    enter_delete_direction(tree, node, cnt);
                    // Commit: one atomic poison store invalidates the entry.
                    node.set_ptr(d, INVALID_PTR);
                    tree.pool.fence_if_not_tso();
                    // Reclaim the slot; a crash here leaves one garbage
                    // entry for lazy recovery.
                    shift_left_from(tree, node, d, cnt);
                    node.set_count_hint(cnt - 1);
                    node.fp_reseal_after(was_sealed);
                    emptied = cnt == 1;
                });
                true
            }
        };
        let node_off = node.offset();
        guard.unlock();
        if emptied {
            // FAIR merge (§4.2): try to unlink the now-empty leaf. Best
            // effort — any bail-out leaves a harmless pass-through node.
            tree.try_unlink_empty_leaf(node_off, key);
        }
        return removed;
    }
}

/// Left-shift compaction: removes the record at slot `d` by copying each
/// higher record one slot down — poisoning the destination, then key, then
/// pointer — flushing lines in shift order. `cnt` is the index of the
/// terminator. Works whether slot `d` was already poisoned (the delete
/// commit) or still holds a complete record (repair compacting an exact
/// shift-residue duplicate): the poison store invalidates it either way.
pub(crate) fn shift_left_from(_tree: &FastFairTree, node: NodeRef<'_>, d: u16, cnt: u16) {
    debug_assert!(d < cnt);
    let pool = node.pool();
    for j in d..cnt {
        node.set_ptr(j, INVALID_PTR);
        pool.fence_if_not_tso();
        node.set_key(j, node.key(j + 1));
        pool.fence_if_not_tso();
        node.set_ptr(j, node.ptr(j + 1));
        // Fingerprints ride along; the terminator slot's 0 propagates down
        // with it, keeping the above-terminator-zero invariant.
        node.set_fp(j, node.fp(j + 1));
        pool.fence_if_not_tso();
        if node.rec_line(j + 1) != node.rec_line(j) {
            // Record j completed its cache line: flush before moving on.
            pool.persist(node.key_off(j), 8);
        }
    }
    // Flush the line holding the last copied record (which now carries the
    // new NULL terminator).
    pool.persist(node.key_off(cnt.saturating_sub(1).max(d)), 16);
    stats::count_shift(u64::from(cnt - d).saturating_sub(1));
}

/// Lazy recovery, run by every writer right after locking a node (§4.2):
///
/// 1. completes a half-finished FAIR split — if the right sibling's first
///    key falls inside this node's key range (Fig. 2 state (2)), the
///    truncation store is re-issued;
/// 2. removes garbage entries — poisoned slots ([`INVALID_PTR`]) and exact
///    duplicates of their left neighbour (same key and pointer) — the
///    residue of a crashed FAST shift or delete compaction.
///
/// Idempotent and cheap on clean nodes (one linear scan).
pub(crate) fn repair_node_locked(tree: &FastFairTree, node: NodeRef<'_>) {
    let pool = node.pool();
    let mut repaired = false;

    // Step 1: complete a crashed split's truncation.
    let sib_off = node.sibling();
    if sib_off != NULL_OFFSET {
        let sib = tree.node(sib_off);
        if let Some(sfk) = sib.first_key() {
            let cnt = node.count_records();
            // Find the first slot whose key is >= the sibling's first key;
            // in a clean node no such slot exists.
            let mut s: Option<u16> = None;
            for i in 0..cnt {
                if node.entry_valid(i) && node.key(i) >= sfk {
                    s = Some(i);
                    break;
                }
            }
            if let Some(s) = s {
                node.fp_unseal();
                node.set_ptr(s, NULL_OFFSET);
                pool.persist(node.ptr_off(s), 8);
                node.set_count_hint(s);
                repaired = true;
            }
        }
    }

    // Step 2: compact away shift garbage — poisoned slots and exact
    // adjacent duplicates (keys are unique within a node, so an adjacent
    // repeat is always the residue of an interrupted shift copy).
    loop {
        let cnt = node.count_records();
        let mut fixed = false;
        for i in 0..cnt {
            let p = node.ptr(i);
            let residue =
                p == INVALID_PTR || (p != NULL_OFFSET && i > 0 && node.key(i) == node.key(i - 1));
            if residue {
                node.fp_unseal();
                enter_delete_direction(tree, node, cnt);
                shift_left_from(tree, node, i, cnt);
                node.set_count_hint(cnt - 1);
                repaired = true;
                fixed = true;
                break;
            }
        }
        if !fixed {
            break;
        }
    }

    // Anything the node inherited from a crash (including a crash image
    // that lost fingerprint stores but kept its seal broken) is gone now;
    // rebuild the array from the records and re-arm the seal. Clean nodes
    // skip this entirely, so the common write path pays nothing here.
    if repaired && node.is_leaf() {
        node.rebuild_fps();
        node.fp_reseal();
    }
}
