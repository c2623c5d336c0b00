//! Reusable node-set scratch for level-synchronous graph expansion.
//!
//! Frontier-based algorithms (BFS over a CSR snapshot, the PMR per-source
//! expansion, the PMR reachability stop) repeatedly need a "have I seen
//! this node during the current source's expansion?" set that is cleared once
//! per source. Allocating a `HashSet<NodeId>` per source dominates the cost
//! on small per-source workloads, and `vec![false; n]` per source is an O(n)
//! clear. [`Frontier`] is a word-level bitset (u64 blocks, one bit per node):
//! membership is a single bit read, insertion a bit write, and the backing
//! words are 64× smaller than the epoch-stamp array this replaces — at 10⁶
//! nodes the visited set is ~125 KiB instead of 8 MiB, which is the
//! difference between living in L2 and thrashing LLC.
//!
//! Two further tricks keep construction and clearing off the profile:
//!
//! * **Lazy pooled allocation.** `Frontier::new` is O(1); the word block is
//!   only acquired on first insert, from a process-wide pool keyed by block
//!   size. Short-lived PMR constructions over million-node graphs no longer
//!   pay an O(n) zero-fill each (nor do semantics that never touch their
//!   visited set, like bounded walks).
//! * **Sparse/dense reset switch.** Clearing follows the fill factor, à la
//!   direction-optimizing BFS: a sparsely used set clears only the words its
//!   members touched (O(members)), a densely used one does a single memset
//!   of the block (O(capacity/64)). The crossover is
//!   [`DENSE_RESET_FILL_DIVISOR`].
//!
//! The members inserted since the last reset are additionally kept in a dense
//! list (in insertion order), so callers can iterate exactly the nodes they
//! touched without scanning the bit block.

use crate::ids::NodeId;
use std::collections::HashMap;
use std::sync::Mutex;

/// Reset strategy crossover: the reset is dense (full memset) when
/// `members * DENSE_RESET_FILL_DIVISOR >= capacity`, i.e. at a fill factor of
/// 1/64 — on average one member per 64-bit word, the point where per-member
/// word clears stop being cheaper than one linear wipe of the block.
pub const DENSE_RESET_FILL_DIVISOR: usize = 64;

/// How a [`Frontier::reset`] would clear the bit block at the current fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResetStrategy {
    /// Clear only the words touched by members (low fill factor).
    Sparse,
    /// Memset the whole block (fill factor at or above the crossover).
    Dense,
}

/// Process-wide pool of zeroed word blocks, keyed by block length. Frontiers
/// over the same graph size recycle each other's allocations instead of
/// re-zeroing fresh memory; at 10⁶ nodes that turns every PMR construction
/// after the first into a pointer swap.
static WORD_POOL: Mutex<Option<HashMap<usize, Vec<Vec<u64>>>>> = Mutex::new(None);

/// Upper bound on pooled blocks retained per size class, to bound memory.
const POOL_PER_SIZE: usize = 8;

/// Acquires a zeroed block of `words` u64s, recycling a pooled one if
/// available. Returns `(block, was_pooled)`.
fn acquire_words(words: usize) -> (Vec<u64>, bool) {
    if words == 0 {
        return (Vec::new(), false);
    }
    if let Ok(mut pool) = WORD_POOL.lock() {
        if let Some(map) = pool.as_mut() {
            if let Some(block) = map.get_mut(&words).and_then(Vec::pop) {
                return (block, true);
            }
        }
    }
    (vec![0; words], false)
}

/// Returns an already-zeroed block to the pool for its size class.
fn release_words(block: Vec<u64>) {
    if block.is_empty() {
        return;
    }
    if let Ok(mut pool) = WORD_POOL.lock() {
        let map = pool.get_or_insert_with(HashMap::new);
        let slot = map.entry(block.len()).or_default();
        if slot.len() < POOL_PER_SIZE {
            slot.push(block);
        }
    }
}

/// A bitset of nodes with O(1) insert/contains and fill-adaptive reset.
#[derive(Debug)]
pub struct Frontier {
    /// Bit `n % 64` of `words[n / 64]` ⇔ node `n` is in the set. Empty until
    /// the first insert (lazy pooled acquisition).
    words: Vec<u64>,
    /// Node slots covered (`capacity`, not `words.len() * 64`).
    capacity: usize,
    /// Nodes inserted since the last reset, in insertion order.
    members: Vec<NodeId>,
    /// Times this frontier reused an allocation instead of making one:
    /// pool hits at acquisition plus resets that kept the block.
    reuses: u64,
}

impl Frontier {
    /// Creates a frontier able to hold nodes `0..capacity`. O(1): the bit
    /// block is acquired lazily on first insert.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: Vec::new(),
            capacity,
            members: Vec::new(),
            reuses: 0,
        }
    }

    /// Number of node slots the frontier covers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `node`; returns `true` if it was not yet in the set.
    /// Out-of-range nodes are reported as never-inserted and ignored.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let index = node.index();
        if index >= self.capacity {
            return false;
        }
        if self.words.is_empty() {
            let (block, pooled) = acquire_words(self.capacity.div_ceil(64));
            self.words = block;
            if pooled {
                self.reuses += 1;
            }
        }
        let mask = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.members.push(node);
        true
    }

    /// True if `node` was inserted since the last reset.
    pub fn contains(&self, node: NodeId) -> bool {
        let index = node.index();
        index < self.capacity
            && self
                .words
                .get(index / 64)
                .is_some_and(|word| word & (1u64 << (index % 64)) != 0)
    }

    /// The nodes inserted since the last reset, in insertion order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The set bits in ascending node order, decoded word-by-word via
    /// `trailing_zeros`. Unlike [`Frontier::members`] this scans the bit
    /// block, so it is the right shape for dense fills.
    pub fn iter_bits(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| NodeId((w * 64 + bits.trailing_zeros() as usize) as u32))
        })
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The clearing strategy [`Frontier::reset`] would use right now, given
    /// the current fill factor.
    pub fn reset_strategy(&self) -> ResetStrategy {
        if self.members.len() * DENSE_RESET_FILL_DIVISOR >= self.capacity {
            ResetStrategy::Dense
        } else {
            ResetStrategy::Sparse
        }
    }

    /// Empties the set, keeping the allocation for reuse. Sparse fills clear
    /// only the words their members touched; dense fills memset the block
    /// (see [`DENSE_RESET_FILL_DIVISOR`]).
    pub fn reset(&mut self) {
        if !self.words.is_empty() {
            match self.reset_strategy() {
                ResetStrategy::Sparse => {
                    for member in &self.members {
                        self.words[member.index() / 64] = 0;
                    }
                }
                ResetStrategy::Dense => self.words.fill(0),
            }
            if !self.members.is_empty() {
                self.reuses += 1;
            }
        }
        self.members.clear();
    }

    /// Times this frontier reused an existing allocation (pool hits plus
    /// block-retaining resets) instead of allocating.
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }
}

impl Clone for Frontier {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            capacity: self.capacity,
            members: self.members.clone(),
            reuses: 0,
        }
    }
}

impl Drop for Frontier {
    /// Returns the (re-zeroed) bit block to the process-wide pool.
    fn drop(&mut self) {
        if self.words.is_empty() {
            return;
        }
        self.reset();
        release_words(std::mem::take(&mut self.words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_members_track_the_set() {
        let mut f = Frontier::new(8);
        assert!(f.is_empty());
        assert!(f.insert(NodeId(3)));
        assert!(!f.insert(NodeId(3)), "duplicate insert is rejected");
        assert!(f.insert(NodeId(1)));
        assert!(f.contains(NodeId(3)));
        assert!(!f.contains(NodeId(0)));
        assert_eq!(f.members(), &[NodeId(3), NodeId(1)]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn reset_clears_and_allows_reinsertion() {
        let mut f = Frontier::new(4);
        for i in 0..4 {
            f.insert(NodeId(i));
        }
        f.reset();
        assert!(f.is_empty());
        assert!(!f.contains(NodeId(2)));
        assert!(
            f.insert(NodeId(2)),
            "nodes are insertable again after reset"
        );
        assert_eq!(f.members(), &[NodeId(2)]);
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let mut f = Frontier::new(2);
        assert!(!f.insert(NodeId(5)));
        assert!(!f.contains(NodeId(5)));
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 2);
    }

    #[test]
    fn many_reset_cycles_never_collide() {
        let mut f = Frontier::new(1);
        for _ in 0..10_000 {
            assert!(f.insert(NodeId(0)));
            f.reset();
        }
        assert!(!f.contains(NodeId(0)));
    }

    #[test]
    fn iter_bits_yields_ascending_node_order() {
        let mut f = Frontier::new(200);
        for id in [130, 0, 64, 63, 199, 65] {
            f.insert(NodeId(id));
        }
        let nodes: Vec<u32> = f.iter_bits().map(|n| n.0).collect();
        assert_eq!(nodes, vec![0, 63, 64, 65, 130, 199]);
    }

    #[test]
    fn reset_strategy_switches_exactly_at_the_fill_threshold() {
        // capacity 128 ⇒ crossover at 128 / 64 = 2 members: one below the
        // threshold is sparse, exactly at it is dense.
        let mut f = Frontier::new(128);
        f.insert(NodeId(5));
        assert_eq!(f.reset_strategy(), ResetStrategy::Sparse);
        f.insert(NodeId(70));
        assert_eq!(
            f.reset_strategy(),
            ResetStrategy::Dense,
            "fill factor exactly at threshold resets densely"
        );
        // Both strategies leave the set correct and reusable.
        f.reset();
        assert!(f.is_empty());
        for id in [5, 70, 127] {
            assert!(!f.contains(NodeId(id)));
            assert!(f.insert(NodeId(id)));
        }
        f.reset();
        f.insert(NodeId(127));
        assert_eq!(f.reset_strategy(), ResetStrategy::Sparse);
        f.reset();
        assert!(!f.contains(NodeId(127)));
    }

    #[test]
    fn pooled_blocks_are_recycled_and_counted() {
        // Use a size class private to this test so other tests can't race.
        const CAP: usize = 64 * 1013;
        let mut a = Frontier::new(CAP);
        a.insert(NodeId(9));
        drop(a);
        let mut b = Frontier::new(CAP);
        assert_eq!(
            b.reuse_count(),
            0,
            "construction is lazy: nothing acquired yet"
        );
        b.insert(NodeId(400));
        assert!(
            b.reuse_count() >= 1,
            "second frontier recycles the dropped block"
        );
        assert!(!b.contains(NodeId(9)), "recycled blocks come back zeroed");
    }
}
