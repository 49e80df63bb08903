//! Lock-free leaf search (Algorithm 3) and leaf-entry reads.
//!
//! Readers never latch a node. Instead they:
//!
//! 1. read the node's `switch_counter` and scan **left to right** if it is
//!    even (the last writer was inserting, shifting entries right) or
//!    **right to left** if odd (the last writer was deleting, shifting
//!    left) — scanning in the same direction as the writer guarantees no
//!    entry is missed, though one may be seen twice;
//! 2. skip *invalid* entries — those whose pointer is the
//!    [`INVALID_PTR`] poison a shift stores before rewriting a slot
//!    (§3.1; see the deviation note in `layout` for why poison replaces
//!    the paper's pointer-duplication test);
//! 3. re-read the switch counter, retrying if a writer shifted this node
//!    during the scan (every shift bumps the counter).
//!
//! A reader that falls off the right edge of a node consults the sibling
//! pointer (B-link), which also covers the "virtual single node" state of a
//! half-finished FAIR split.

use pmem::NULL_OFFSET;
use pmindex::{Key, Value};

use crate::layout::{fp_hash, fp_lines, NodeRef, INVALID_PTR};
use crate::tree::FastFairTree;

/// Lock-free exact-match search within one leaf (Algorithm 3).
///
/// Returns the value for `key` or `None` if it is not in this node (the
/// caller then consults the sibling pointer).
///
/// When the leaf's fingerprint array is sealed, the scan probes the packed
/// fingerprint lines first and touches a record's cache line only on a
/// fingerprint hit; a mutating writer breaks the seal *and* bumps the
/// switch counter, so the ordinary recheck-and-retry protocol also covers
/// probes against a concurrently unsealed array.
pub(crate) fn leaf_search_linear(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    key: Key,
) -> Option<Value> {
    let cap = tree.shape.capacity();
    loop {
        let sc = node.switch_counter();
        if node.fp_sealed() {
            let ret = fp_probe(tree, &node, key);
            if node.switch_counter() == sc && node.fp_sealed() {
                return ret;
            }
            std::hint::spin_loop();
            continue;
        }
        let mut ret: Option<Value> = None;
        let mut scanned: u16 = 0;
        if sc.is_multiple_of(2) {
            // Scan left to right, following the insert shift direction.
            let mut i: u16 = 0;
            while i <= cap {
                let p = node.ptr(i);
                if p == NULL_OFFSET {
                    break;
                }
                scanned = i + 1;
                if p != INVALID_PTR && node.key(i) == key {
                    // Re-read the pointer: the slot may have been poisoned
                    // and rewritten for a different key since `p` was read,
                    // in which case the key match above was against the new
                    // occupant and `p` is stale.
                    if node.ptr(i) == p {
                        ret = Some(p);
                        break;
                    }
                }
                i += 1;
            }
        } else {
            // Scan right to left, following the delete shift direction.
            let mut i = cap.min(node.count_hint().saturating_add(2)).min(cap);
            scanned = i + 1;
            loop {
                let p = node.ptr(i);
                if p != NULL_OFFSET && p != INVALID_PTR && node.key(i) == key {
                    // Re-read the pointer (same staleness guard as the
                    // forward scan above).
                    if node.ptr(i) == p {
                        ret = Some(p);
                        break;
                    }
                }
                if i == 0 {
                    break;
                }
                i -= 1;
            }
        }
        node.charge_linear_scan(scanned);
        if node.switch_counter() == sc {
            return ret;
        }
        // A writer changed shift direction mid-scan: retry (Algorithm 3,
        // the `until prev_switch = node.switch` loop).
        std::hint::spin_loop();
    }
}

/// One fingerprint-guided probe pass over a sealed leaf. Only called while
/// the seal is (volatively) intact; the caller revalidates the switch
/// counter and seal afterwards and falls back to the linear scan on
/// any movement.
///
/// A sealed array is exact: every valid record's slot carries `fp_hash` of
/// its key and every slot above the terminator carries 0, so a miss proves
/// absence and a hit only needs one record line to verify. Stale poison
/// slots below the terminator may carry a nonzero fingerprint; the pointer
/// validity check rejects them.
fn fp_probe(tree: &FastFairTree, node: &NodeRef<'_>, key: Key) -> Option<Value> {
    let h = fp_hash(key);
    let mut ret = None;
    for i in 0..node.slots() {
        if node.fp(i) != h {
            continue;
        }
        // Candidate: touch the record line and verify.
        tree.pool.charge_serial_reads(1);
        let p = node.ptr(i);
        if p != NULL_OFFSET && p != INVALID_PTR && node.key(i) == key && node.ptr(i) == p {
            ret = Some(p);
            break;
        }
    }
    // The fingerprint lines themselves stream as adjacent parallel reads.
    tree.pool
        .charge_parallel_lines(fp_lines(node.node_size()) as u32);
    ret
}

/// Binary exact-match search within one leaf.
///
/// Only sound when no writer is concurrently shifting this node — the
/// reason the paper's lock-free design is restricted to linear search (§4).
/// Exposed for the single-threaded Fig. 3 comparison.
pub(crate) fn leaf_search_binary(
    tree: &FastFairTree,
    node: NodeRef<'_>,
    key: Key,
) -> Option<Value> {
    let cnt = node.count_records();
    if cnt == 0 {
        return None;
    }
    // Each probe is a dependent (serial) cache miss: binary search defeats
    // the prefetcher, which is why it loses below 4 KB nodes (§5.2).
    let probes = (u32::from(cnt) * 16 / 64).max(1).ilog2() + 1;
    tree.pool.charge_serial_reads(probes);
    let (mut lo, mut hi) = (0u16, cnt);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if node.key(mid) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < cnt && node.key(lo) == key && node.entry_valid(lo) {
        Some(node.ptr(lo))
    } else {
        None
    }
}

/// Reads the valid `(key, value)` entries of a leaf with the lock-free
/// retry protocol; used by range scans and the full-tree iterator.
///
/// Like [`leaf_search_linear`], the scan follows the direction the switch
/// counter names. The re-check only catches a shift that *starts* during
/// the scan (every shift bumps the counter first), so a scan that begins
/// inside an already-running shift must move the way the shift does: a
/// left-to-right scan of a left shift can read a slot while it is poisoned
/// and the next slot after it was poisoned in turn, missing the record
/// that moved between them.
///
/// Entries are returned in slot order. During a shift the same key can
/// transiently occupy two adjacent slots as an exact duplicate (same
/// value); the key dedup below keeps one of them.
pub(crate) fn read_leaf_entries(tree: &FastFairTree, node: NodeRef<'_>) -> Vec<(Key, Value)> {
    let cap = tree.shape.capacity();
    // Slot `i`'s pointer, and its entry when valid and not torn.
    let read = |i: u16| {
        let p = node.ptr(i);
        if p == NULL_OFFSET || p == INVALID_PTR {
            return (p, None);
        }
        let k = node.key(i);
        (p, (node.ptr(i) == p).then_some((k, p)))
    };
    loop {
        let sc = node.switch_counter();
        let mut out = Vec::new();
        let scanned = if sc.is_multiple_of(2) {
            // Insert direction: left to right, up to the terminator.
            let mut i: u16 = 0;
            while i <= cap {
                let (p, e) = read(i);
                if p == NULL_OFFSET {
                    break;
                }
                out.extend(e);
                i += 1;
            }
            i
        } else {
            // Delete direction: right to left from past the count hint,
            // then back into slot order. A NULL is a terminator: whatever
            // was read above it is either a stale copy a FAIR truncation
            // left behind or a record this scan meets again lower down
            // (left shifts move records the way the scan goes), so drop it.
            let top = cap.min(node.count_hint().saturating_add(2));
            for i in (0..=top).rev() {
                match read(i) {
                    (NULL_OFFSET, _) => out.clear(),
                    (_, e) => out.extend(e),
                }
            }
            out.reverse();
            top + 1
        };
        node.charge_linear_scan(scanned);
        if node.switch_counter() == sc {
            // A crashed shift can leave an entry twice at adjacent slots
            // (an exact duplicate — same key, same value); keep one
            // occurrence of each key.
            out.dedup_by(|b, a| a.0 == b.0);
            return out;
        }
        std::hint::spin_loop();
    }
}
