//! Edge updates and update batches.
//!
//! A *batch* is the unit of work of the streaming MPC model: at the
//! start of a phase a batch of up to `Õ(n^φ)` insertions and deletions
//! arrives, and the algorithm must process it in `O(1/φ)` rounds
//! (paper Section 1.2). Following the paper, a mixed batch is
//! processed as its insertions first, then its deletions.

use crate::ids::{Edge, WeightedEdge};

/// A single unweighted edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Update {
    /// Insert a (currently absent) edge.
    Insert(Edge),
    /// Delete a (currently present) edge.
    Delete(Edge),
}

impl Update {
    /// The edge this update concerns.
    #[inline]
    pub fn edge(self) -> Edge {
        match self {
            Update::Insert(e) | Update::Delete(e) => e,
        }
    }

    /// Whether this is an insertion.
    #[inline]
    pub fn is_insert(self) -> bool {
        matches!(self, Update::Insert(_))
    }

    /// The update as a signed coordinate change of the edge vector:
    /// `(e, 1)` for an insertion, `(e, -1)` for a deletion — the form
    /// a linear sketch ingests.
    #[inline]
    pub fn signed(self) -> (Edge, i64) {
        match self {
            Update::Insert(e) => (e, 1),
            Update::Delete(e) => (e, -1),
        }
    }
}

impl std::fmt::Display for Update {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Update::Insert(e) => write!(f, "+{e}"),
            Update::Delete(e) => write!(f, "-{e}"),
        }
    }
}

/// A single weighted edge update (for minimum-spanning-forest
/// workloads, paper Section 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightedUpdate {
    /// Insert a weighted edge.
    Insert(WeightedEdge),
    /// Delete a weighted edge (the weight must match the live edge).
    Delete(WeightedEdge),
}

impl WeightedUpdate {
    /// The weighted edge this update concerns.
    #[inline]
    pub fn weighted_edge(self) -> WeightedEdge {
        match self {
            WeightedUpdate::Insert(e) | WeightedUpdate::Delete(e) => e,
        }
    }

    /// Whether this is an insertion.
    #[inline]
    pub fn is_insert(self) -> bool {
        matches!(self, WeightedUpdate::Insert(_))
    }

    /// Drops the weight.
    #[inline]
    pub fn unweighted(self) -> Update {
        match self {
            WeightedUpdate::Insert(e) => Update::Insert(e.edge),
            WeightedUpdate::Delete(e) => Update::Delete(e.edge),
        }
    }
}

/// An ordered batch of unweighted updates.
///
/// # Examples
///
/// ```
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::{Batch, Update};
///
/// let batch = Batch::from_updates(vec![
///     Update::Insert(Edge::new(0, 1)),
///     Update::Delete(Edge::new(2, 3)),
/// ]);
/// assert_eq!(batch.insertions().count(), 1);
/// assert_eq!(batch.deletions().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    updates: Vec<Update>,
}

impl Batch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Batch::default()
    }

    /// Wraps an update list as a batch.
    pub fn from_updates(updates: Vec<Update>) -> Self {
        Batch { updates }
    }

    /// A pure-insertion batch over the given edges.
    pub fn inserting<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        Batch {
            updates: edges.into_iter().map(Update::Insert).collect(),
        }
    }

    /// A pure-deletion batch over the given edges.
    pub fn deleting<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        Batch {
            updates: edges.into_iter().map(Update::Delete).collect(),
        }
    }

    /// Appends an update.
    pub fn push(&mut self, u: Update) {
        self.updates.push(u);
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates over the updates in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = Update> + '_ {
        self.updates.iter().copied()
    }

    /// The inserted edges, in arrival order.
    pub fn insertions(&self) -> impl Iterator<Item = Edge> + '_ {
        self.updates.iter().filter_map(|u| match u {
            Update::Insert(e) => Some(*e),
            _ => None,
        })
    }

    /// The deleted edges, in arrival order.
    pub fn deletions(&self) -> impl Iterator<Item = Edge> + '_ {
        self.updates.iter().filter_map(|u| match u {
            Update::Delete(e) => Some(*e),
            _ => None,
        })
    }
}

impl FromIterator<Update> for Batch {
    fn from_iter<T: IntoIterator<Item = Update>>(iter: T) -> Self {
        Batch {
            updates: iter.into_iter().collect(),
        }
    }
}

impl Extend<Update> for Batch {
    fn extend<T: IntoIterator<Item = Update>>(&mut self, iter: T) {
        self.updates.extend(iter);
    }
}

impl IntoIterator for Batch {
    type Item = Update;
    type IntoIter = std::vec::IntoIter<Update>;
    fn into_iter(self) -> Self::IntoIter {
        self.updates.into_iter()
    }
}

/// An ordered batch of weighted updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightedBatch {
    updates: Vec<WeightedUpdate>,
}

impl WeightedBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WeightedBatch::default()
    }

    /// Wraps an update list as a batch.
    pub fn from_updates(updates: Vec<WeightedUpdate>) -> Self {
        WeightedBatch { updates }
    }

    /// A pure-insertion batch over the given weighted edges.
    pub fn inserting<I: IntoIterator<Item = WeightedEdge>>(edges: I) -> Self {
        WeightedBatch {
            updates: edges.into_iter().map(WeightedUpdate::Insert).collect(),
        }
    }

    /// Appends an update.
    pub fn push(&mut self, u: WeightedUpdate) {
        self.updates.push(u);
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Iterates over the updates in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = WeightedUpdate> + '_ {
        self.updates.iter().copied()
    }

    /// The inserted weighted edges, in arrival order.
    pub fn insertions(&self) -> impl Iterator<Item = WeightedEdge> + '_ {
        self.updates.iter().filter_map(|u| match u {
            WeightedUpdate::Insert(e) => Some(*e),
            _ => None,
        })
    }

    /// The deleted weighted edges, in arrival order.
    pub fn deletions(&self) -> impl Iterator<Item = WeightedEdge> + '_ {
        self.updates.iter().filter_map(|u| match u {
            WeightedUpdate::Delete(e) => Some(*e),
            _ => None,
        })
    }

    /// Drops the weights, producing an unweighted batch.
    pub fn unweighted(&self) -> Batch {
        Batch::from_updates(self.updates.iter().map(|u| u.unweighted()).collect())
    }
}

impl FromIterator<WeightedUpdate> for WeightedBatch {
    fn from_iter<T: IntoIterator<Item = WeightedUpdate>>(iter: T) -> Self {
        WeightedBatch {
            updates: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn batch_partitions_updates() {
        let b = Batch::from_updates(vec![
            Update::Insert(e(0, 1)),
            Update::Insert(e(1, 2)),
            Update::Delete(e(0, 1)),
        ]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.insertions().collect::<Vec<_>>(), vec![e(0, 1), e(1, 2)]);
        assert_eq!(b.deletions().collect::<Vec<_>>(), vec![e(0, 1)]);
    }

    #[test]
    fn batch_collects_and_extends() {
        let mut b: Batch = vec![Update::Insert(e(0, 1))].into_iter().collect();
        b.extend([Update::Delete(e(0, 1))]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.into_iter().count(), 2);
    }

    #[test]
    fn weighted_batch_unweighted_projection() {
        let wb = WeightedBatch::from_updates(vec![
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Delete(WeightedEdge::new(1, 2, 9)),
        ]);
        let b = wb.unweighted();
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![Update::Insert(e(0, 1)), Update::Delete(e(1, 2))]
        );
        assert_eq!(wb.insertions().count(), 1);
        assert_eq!(wb.deletions().count(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Update::Insert(e(0, 1))), "+{0,1}");
        assert_eq!(format!("{}", Update::Delete(e(0, 1))), "-{0,1}");
    }

    #[test]
    fn constructors() {
        let ins = Batch::inserting([e(0, 1), e(2, 3)]);
        assert!(ins.iter().all(|u| u.is_insert()));
        let del = Batch::deleting([e(0, 1)]);
        assert!(del.iter().all(|u| !u.is_insert()));
        let wins = WeightedBatch::inserting([WeightedEdge::new(0, 1, 2)]);
        assert!(wins.iter().all(|u| u.is_insert()));
        assert_eq!(
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 2)).weighted_edge(),
            WeightedEdge::new(0, 1, 2)
        );
    }
}
