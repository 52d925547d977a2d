//! Incremental construction of immutable [`Graph`]s.

use crate::{Edge, Graph, GraphError, NodeId};

/// Builder that accumulates edges and produces an immutable [`Graph`].
///
/// The node count is fixed up front; nodes are the dense ids
/// `0..node_count`. Self-loops and out-of-range endpoints are rejected
/// on insert; duplicate edges (in either orientation) are accepted and
/// merged by [`build`](Self::build), which puts the edges in canonical
/// order with a counting sort — `O(n + m)`, no hashing.
///
/// # Examples
///
/// ```
/// use osn_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId::new(0), NodeId::new(1))?;
/// b.add_edge(NodeId::new(1), NodeId::new(2))?;
/// // duplicates are fine; `build` merges them:
/// b.add_edge(NodeId::new(2), NodeId::new(1))?;
/// let g = b.build();
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 2);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    node_count: usize,
    /// Every accepted edge in insertion order, duplicates included.
    edges: Vec<Edge>,
    /// First edge rejected by [`Extend::extend`], deferred so bulk
    /// insertion stays panic-free; surfaced by [`try_build`](Self::try_build).
    deferred: Option<GraphError>,
    /// How many edges [`Extend::extend`] rejected in total.
    rejected: usize,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
            deferred: None,
            rejected: 0,
        }
    }

    /// Creates a builder pre-sized for roughly `edge_hint` edges.
    pub fn with_edge_capacity(node_count: usize, edge_hint: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::with_capacity(edge_hint),
            deferred: None,
            rejected: 0,
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far, duplicates included (`build`
    /// merges them).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `(a, b)`. Adding an edge that is
    /// already present is not an error; [`build`](Self::build) keeps one
    /// copy.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `a == b` and
    /// [`GraphError::NodeOutOfRange`] if either endpoint is `>=
    /// node_count`.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        for v in [a, b] {
            if v.index() >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: self.node_count,
                });
            }
        }
        self.edges.push(Edge::new(a, b));
        Ok(())
    }

    /// Fallible bulk insertion: adds edges until the first invalid one
    /// and returns its [`GraphError`]. Edges added before the failure
    /// stay in the builder. Use this instead of [`Extend::extend`] when
    /// the input is untrusted and should be rejected, not degraded.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`] from [`add_edge`](Self::add_edge).
    pub fn try_extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) -> Result<(), GraphError> {
        for e in iter {
            self.add_edge(e.lo(), e.hi())?;
        }
        Ok(())
    }

    /// The first error [`Extend::extend`] deferred, if any.
    pub fn deferred_error(&self) -> Option<&GraphError> {
        self.deferred.as_ref()
    }

    /// How many edges [`Extend::extend`] rejected so far.
    pub fn rejected_edges(&self) -> usize {
        self.rejected
    }

    /// Builds the immutable CSR-backed [`Graph`].
    ///
    /// Edges are put into canonical `(lo, hi)` order — which assigns the
    /// [`EdgeId`](crate::EdgeId)s — and deduplicated, so the same edge
    /// set always produces the same graph regardless of insertion order
    /// or repetition. Runs in `O(node_count + edges added)`.
    ///
    /// Edges rejected by [`Extend::extend`] are *dropped by policy*:
    /// `build` returns the graph over the valid edges. Call
    /// [`try_build`](Self::try_build) to treat any rejected edge as an
    /// error instead.
    pub fn build(self) -> Graph {
        let edges = canonical_order(self.node_count, self.edges);
        Graph::from_sorted_dedup_edges(self.node_count, edges)
    }

    /// Like [`build`](Self::build), but surfaces the error deferred by a
    /// panic-free [`Extend::extend`] over invalid edges.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] recorded by `extend` if any edge
    /// was rejected since the builder was created.
    ///
    /// # Examples
    ///
    /// ```
    /// use osn_graph::{Edge, GraphBuilder, GraphError, NodeId};
    ///
    /// let mut b = GraphBuilder::new(2);
    /// b.extend([Edge::new(NodeId::new(0), NodeId::new(5))]); // no panic
    /// assert_eq!(b.rejected_edges(), 1);
    /// assert!(matches!(
    ///     b.try_build(),
    ///     Err(GraphError::NodeOutOfRange { .. })
    /// ));
    /// ```
    pub fn try_build(mut self) -> Result<Graph, GraphError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        Ok(self.build())
    }

    /// Convenience: builds a graph directly from an edge iterator.
    ///
    /// # Errors
    ///
    /// Propagates the first [`GraphError`] from [`add_edge`](Self::add_edge).
    ///
    /// # Examples
    ///
    /// ```
    /// use osn_graph::{Graph, GraphBuilder};
    ///
    /// let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)])?;
    /// assert_eq!(g.edge_count(), 2);
    /// # Ok::<(), osn_graph::GraphError>(())
    /// ```
    pub fn from_edges<I, E>(node_count: usize, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = E>,
        E: Into<Edge>,
    {
        let mut b = GraphBuilder::new(node_count);
        for e in edges {
            let e = e.into();
            b.add_edge(e.lo(), e.hi())?;
        }
        Ok(b.build())
    }
}

/// Sorts `edges` into canonical `(lo, hi)` order and drops duplicates:
/// a counting sort by `hi`, then a stable counting sort by `lo` (LSD
/// radix order over the two endpoints), then one dedup pass over the
/// now-adjacent copies. `O(node_count + edges.len())`.
fn canonical_order(node_count: usize, mut edges: Vec<Edge>) -> Vec<Edge> {
    let Some(&fill) = edges.first() else {
        return edges;
    };
    let mut by_hi = vec![fill; edges.len()];
    let mut slots = vec![0usize; node_count + 1];
    counting_sort(&edges, &mut by_hi, &mut slots, |e| e.hi().index());
    counting_sort(&by_hi, &mut edges, &mut slots, |e| e.lo().index());
    edges.dedup();
    edges
}

/// Stable counting sort of `src` into `dst` by `key`, which must be
/// `< slots.len()`. `slots` is scratch and is overwritten.
fn counting_sort(src: &[Edge], dst: &mut [Edge], slots: &mut [usize], key: impl Fn(Edge) -> usize) {
    slots.fill(0);
    for &e in src {
        slots[key(e)] += 1;
    }
    let mut start = 0;
    for slot in slots.iter_mut() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    for &e in src {
        let k = key(e);
        dst[slots[k]] = e;
        slots[k] += 1;
    }
}

impl Extend<Edge> for GraphBuilder {
    /// Extends with edges, never panicking: invalid edges are skipped
    /// and the first rejection is deferred, to be surfaced by
    /// [`try_build`](GraphBuilder::try_build) (or inspected via
    /// [`deferred_error`](GraphBuilder::deferred_error) /
    /// [`rejected_edges`](GraphBuilder::rejected_edges)).
    /// [`build`](GraphBuilder::build) drops the rejected edges by policy.
    ///
    /// Use [`try_extend`](GraphBuilder::try_extend) to fail fast on
    /// untrusted input instead.
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for e in iter {
            if let Err(err) = self.add_edge(e.lo(), e.hi()) {
                if self.deferred.is_none() {
                    self.deferred = Some(err);
                }
                self.rejected += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(3);
        let err = b.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        let err = b.add_edge(NodeId::new(0), NodeId::new(3)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: NodeId::new(3),
                node_count: 3
            }
        );
    }

    #[test]
    fn dedups_edges_in_either_order() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        b.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        assert_eq!(b.edge_count(), 2);
        let g = b.build();
        assert_eq!(g.edges(), [Edge::new(NodeId::new(0), NodeId::new(2))]);
    }

    #[test]
    fn build_is_insertion_order_independent() {
        let g1 = GraphBuilder::from_edges(4, [(0u32, 1u32), (1, 2), (2, 3)]).unwrap();
        let g2 = GraphBuilder::from_edges(4, [(2u32, 3u32), (1, 0), (2, 1)]).unwrap();
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn extend_accepts_valid_edges() {
        let mut b = GraphBuilder::new(3);
        b.extend([Edge::new(NodeId::new(0), NodeId::new(1))]);
        assert_eq!(b.edge_count(), 1);
        assert!(b.deferred_error().is_none());
        assert_eq!(b.rejected_edges(), 0);
        assert!(b.try_build().is_ok());
    }

    #[test]
    fn extend_defers_errors_instead_of_panicking() {
        let mut b = GraphBuilder::new(3);
        b.extend([
            Edge::new(NodeId::new(0), NodeId::new(1)),
            Edge::new(NodeId::new(0), NodeId::new(9)), // out of range: deferred
            Edge::new(NodeId::new(2), NodeId::new(2)), // self-loop: counted too
            Edge::new(NodeId::new(1), NodeId::new(2)),
        ]);
        assert_eq!(b.edge_count(), 2);
        assert_eq!(b.rejected_edges(), 2);
        // The first rejection is the one surfaced.
        assert!(matches!(
            b.deferred_error(),
            Some(GraphError::NodeOutOfRange { .. })
        ));
        // `build` drops rejected edges by policy...
        let g = b.clone().build();
        assert_eq!(g.edge_count(), 2);
        // ...while `try_build` treats them as an error.
        assert!(matches!(
            b.try_build(),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn try_extend_fails_fast_on_first_invalid_edge() {
        let mut b = GraphBuilder::new(3);
        let err = b
            .try_extend([
                Edge::new(NodeId::new(0), NodeId::new(1)),
                Edge::new(NodeId::new(1), NodeId::new(1)),
                Edge::new(NodeId::new(1), NodeId::new(2)),
            ])
            .unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { .. }));
        // Edges before the failure stay; the one after was never visited.
        assert_eq!(b.edge_count(), 1);
        // try_extend does not defer: build-by-policy is untainted.
        assert!(b.deferred_error().is_none());
        assert!(b.try_build().is_ok());
    }
}
