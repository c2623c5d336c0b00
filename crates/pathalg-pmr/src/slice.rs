//! The slice collector: a recognised γ/τ/π pipeline
//! ([`pathalg_core::slice`]) evaluated over a canonical stream of paths
//! without building one. Each kept path is a handle and a length — an arena
//! step going forward, a sorted row of a backward search — and when a
//! source ends the collector hands its kept handles back in group order, for
//! the caller to reconstruct and visit.
//!
//! The canonical order is source-major, so under γS, γST and γSTL every
//! group is complete when its source ends, and the first-occurrence order of
//! the whole stream is the per-source orders concatenated. The collector
//! therefore keys groups by target *within the current source*, in a dense
//! per-target slot array that is reset sparsely, and holds one source's
//! answer at a time. γ∅'s one group spans the stream; its paths are handed
//! back in stream order, a source at a time.

use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::slice::SliceSpec;
use pathalg_graph::ids::NodeId;

/// Whether a slice can still keep paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SliceState {
    /// Further paths may still be kept.
    Open,
    /// The kept set is complete; no later path in canonical order can be
    /// kept, so enumeration may stop.
    Complete,
}

/// The incremental kept set of a [`SliceSpec`], fed paths in canonical
/// order: groups them by the partition key in first-occurrence order, caps
/// each group at `per_group` paths or `max_groups` lengths, ignores
/// partitions beyond `max_partitions`, and reports when the kept set cannot
/// grow any more.
pub(crate) struct SliceCollector {
    spec: SliceSpec,
    /// Partitions opened so far, over every source.
    partitions: usize,
    /// Opened groups still below the `per_group` cap, over every source, so
    /// the completion check is O(1) per offered path.
    unfilled: usize,
    /// Paths kept so far, over every source.
    kept_total: usize,
    /// The current source's groups in first-occurrence order (under γ∅ the
    /// one group, over every source).
    groups: Vec<Group>,
    /// Under γST and γSTL, per target node: 1 + the index of its group in
    /// `groups`, 0 for none. Zero-initialised on the first path kept, so a
    /// slice that keeps nothing allocates nothing.
    slots: Vec<u32>,
    /// The node universe `slots` covers.
    node_count: usize,
    /// The current source's kept paths: group, handle and length.
    kept: Vec<(u32, u32, u32)>,
    /// Scratch of the group-order pass: handles and lengths.
    order: Vec<(u32, u32)>,
}

/// One group of the current source.
#[derive(Clone, Copy)]
struct Group {
    target: NodeId,
    /// Paths kept.
    paths: u32,
    /// Distinct lengths kept, the last of them `last_len`.
    lengths: u32,
    last_len: u32,
}

impl SliceCollector {
    /// An empty collector for `spec` over paths whose nodes are below
    /// `node_count`.
    pub fn new(spec: &SliceSpec, node_count: usize) -> Self {
        Self {
            spec: *spec,
            partitions: 0,
            unfilled: 0,
            kept_total: 0,
            groups: Vec::new(),
            slots: Vec::new(),
            node_count,
            kept: Vec::new(),
            order: Vec::new(),
        }
    }

    fn by_target(&self) -> bool {
        self.spec.group_key.partitions_by_target()
    }

    /// The index of the current source's group of paths ending at `target`.
    fn group(&self, target: NodeId) -> Option<usize> {
        if self.by_target() {
            let slot = *self.slots.get(target.index())?;
            (slot > 0).then(|| slot as usize - 1)
        } else {
            (!self.groups.is_empty()).then_some(0)
        }
    }

    /// Offers the next path of the stream, from the current source to
    /// `target` with `len` edges: keeps `handle` if the slice keeps the path
    /// and reports whether the kept set is now complete, or returns `None`
    /// when the path is provably not kept.
    pub fn offer(&mut self, target: NodeId, len: u32, handle: u32) -> Option<SliceState> {
        let gi = match self.group(target) {
            Some(gi) => {
                let g = self.groups[gi];
                let full = self.spec.per_group.is_some_and(|k| g.paths as usize >= k)
                    || self
                        .spec
                        .max_groups
                        .is_some_and(|k| g.lengths as usize >= k && g.last_len != len);
                if full {
                    return None;
                }
                gi
            }
            None => {
                if !self.accepts_new_partition() {
                    return None;
                }
                self.partitions += 1;
                self.unfilled += usize::from(self.spec.per_group.is_some());
                if self.by_target() {
                    if self.slots.is_empty() {
                        self.slots = vec![0; self.node_count];
                    }
                    self.slots[target.index()] = self.groups.len() as u32 + 1;
                }
                self.groups.push(Group {
                    target,
                    paths: 0,
                    lengths: 0,
                    last_len: 0,
                });
                self.groups.len() - 1
            }
        };
        let g = &mut self.groups[gi];
        if g.paths == 0 || g.last_len != len {
            g.lengths += 1;
            g.last_len = len;
        }
        g.paths += 1;
        if self.spec.per_group == Some(g.paths as usize) {
            self.unfilled -= 1;
        }
        self.kept.push((gi as u32, handle, len));
        self.kept_total += 1;
        Some(self.state())
    }

    /// Complete once every opened group is full and no new partition may
    /// be opened: γ∅ has only one, the others stop at the partition limit.
    fn state(&self) -> SliceState {
        let closed = match self.spec.group_key {
            GroupKey::Empty => self.partitions > 0,
            _ => !self.accepts_new_partition(),
        };
        if self.spec.per_group.is_some() && self.unfilled == 0 && closed {
            SliceState::Complete
        } else {
            SliceState::Open
        }
    }

    /// True if the current source's group of paths ending at `target` (the
    /// source's one group under γS) holds `per_group` paths; always false
    /// without a per-group cap.
    pub fn is_full(&self, target: NodeId) -> bool {
        self.spec.per_group.is_some_and(|k| {
            self.group(target)
                .is_some_and(|gi| self.groups[gi].paths as usize >= k)
        })
    }

    /// True if a path could still open a partition.
    pub fn accepts_new_partition(&self) -> bool {
        self.spec
            .max_partitions
            .is_none_or(|kp| self.partitions < kp)
    }

    /// Partitions opened so far.
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// Paths kept so far.
    pub fn kept(&self) -> usize {
        self.kept_total
    }

    /// Ends the current source: visits its kept paths' handles and lengths
    /// in the order of Algorithm 1 — groups by first occurrence, each
    /// group's paths in stream order — and forgets its groups (γ∅'s one
    /// group spans the stream and stays).
    pub fn end_source(&mut self, mut visit: impl FnMut(u32, u32)) {
        if self.groups.len() <= 1 {
            for &(_, handle, len) in &self.kept {
                visit(handle, len);
            }
        } else {
            // A counting sort by group: each group's `paths` turns into the
            // next free position of its run in `order`.
            let mut at = 0;
            for g in &mut self.groups {
                (g.paths, at) = (at, at + g.paths);
            }
            self.order.clear();
            self.order.resize(self.kept.len(), (0, 0));
            for &(gi, handle, len) in &self.kept {
                let g = &mut self.groups[gi as usize];
                self.order[g.paths as usize] = (handle, len);
                g.paths += 1;
            }
            for &(handle, len) in &self.order {
                visit(handle, len);
            }
        }
        self.kept.clear();
        if self.spec.group_key != GroupKey::Empty {
            for g in self.groups.drain(..) {
                if let Some(slot) = self.slots.get_mut(g.target.index()) {
                    *slot = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(group_key: GroupKey, per_group: Option<usize>) -> SliceSpec {
        SliceSpec {
            group_key,
            per_group,
            max_partitions: None,
            max_groups: None,
            ordered_by_length: false,
        }
    }

    fn drained(c: &mut SliceCollector) -> Vec<u32> {
        let mut out = Vec::new();
        c.end_source(|handle, _| out.push(handle));
        out
    }

    #[test]
    fn collector_completes_as_soon_as_the_kept_set_is_full() {
        // γ∅, first 2 paths: the second offer completes the kept set, so a
        // canonical-order producer can stop pulling right there.
        let mut c = SliceCollector::new(&spec(GroupKey::Empty, Some(2)), 4);
        assert_eq!(c.offer(NodeId(1), 1, 10), Some(SliceState::Open));
        assert_eq!(c.offer(NodeId(2), 1, 11), Some(SliceState::Complete));
        assert_eq!(c.offer(NodeId(3), 2, 12), None);
        assert_eq!(drained(&mut c), [10, 11]);
        assert_eq!((c.partition_count(), c.kept()), (1, 2));
    }

    #[test]
    fn a_source_ends_in_group_order_and_resets_its_slots() {
        let mut c = SliceCollector::new(&spec(GroupKey::SourceTarget, None), 4);
        for (target, len, handle) in [(2, 1, 0), (1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 2, 4)] {
            assert_eq!(c.offer(NodeId(target), len, handle), Some(SliceState::Open));
        }
        assert_eq!(drained(&mut c), [0, 2, 1, 3, 4]);
        // The next source opens fresh groups for the same targets.
        c.offer(NodeId(1), 1, 5);
        c.offer(NodeId(2), 1, 6);
        c.offer(NodeId(1), 3, 7);
        assert_eq!(drained(&mut c), [5, 7, 6]);
        assert_eq!(c.partition_count(), 5);
    }

    #[test]
    fn length_groups_keep_the_first_k_lengths_with_their_ties() {
        let mut c = SliceCollector::new(
            &SliceSpec {
                max_groups: Some(2),
                ..spec(GroupKey::SourceTargetLength, None)
            },
            3,
        );
        let kept: Vec<bool> = [(1, 1), (1, 2), (1, 2), (1, 3), (2, 3)]
            .into_iter()
            .enumerate()
            .map(|(h, (t, len))| c.offer(NodeId(t), len, h as u32).is_some())
            .collect();
        assert_eq!(kept, [true, true, true, false, true]);
        assert_eq!(drained(&mut c), [0, 1, 2, 4]);
    }

    #[test]
    fn nothing_kept_allocates_no_slots() {
        let mut c = SliceCollector::new(&spec(GroupKey::SourceTarget, Some(1)), 1 << 20);
        c.end_source(|_, _| unreachable!());
        assert!(c.slots.is_empty());
    }
}
