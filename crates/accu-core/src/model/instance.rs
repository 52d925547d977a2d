//! The ACCU problem instance (paper §II).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use osn_graph::{EdgeId, Graph, NodeId};

use crate::{AccuError, BenefitSchedule, UserClass};

/// Source of process-unique instance identities (see
/// [`AccuInstance::instance_id`]). Starts at 1 so 0 can serve as a
/// "no instance" sentinel in caches.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// One threshold-gated neighbor in the [`CautiousIndex`]: the neighbor,
/// the connecting edge, and its cached threshold `θ` and benefit gap
/// `B_f − B_fof` — everything ABM's indirect-potential term needs,
/// laid out flat so the per-rescore scan touches no graph or class
/// storage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CautiousNeighbor {
    /// The threshold-gated (cautious or hesitant) neighbor.
    pub(crate) node: NodeId,
    /// The edge connecting it to the row's owner.
    pub(crate) edge: EdgeId,
    /// The neighbor's mutual-friend threshold `θ`.
    pub(crate) theta: u32,
    /// The neighbor's benefit gap `B_f(v) − B_fof(v)`.
    pub(crate) gap: f64,
}

/// CSR rows of threshold-gated neighbors, one row per node, entries in
/// sorted adjacency order. Precomputed once per instance so the ABM
/// potential's indirect term is a flat slice scan instead of a full
/// neighbor walk that re-derives class and benefit data per entry.
#[derive(Debug, Clone)]
pub(crate) struct CautiousIndex {
    row_start: Vec<usize>,
    entries: Vec<CautiousNeighbor>,
}

impl CautiousIndex {
    /// Scatters from the threshold-gated nodes (a few per network)
    /// rather than scanning every adjacency row: visiting them in
    /// ascending id order appends each to its neighbors' rows in sorted
    /// adjacency order. `O(n + Σ gated degrees)`.
    fn build(graph: &Graph, classes: &[UserClass], benefits: &BenefitSchedule) -> Self {
        let gated: Vec<(NodeId, u32)> = classes
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.threshold().map(|theta| (NodeId::from(i), theta)))
            .collect();
        let mut row_start = vec![0usize; graph.node_count() + 1];
        for &(v, _) in &gated {
            for &u in graph.neighbors(v) {
                row_start[u.index() + 1] += 1;
            }
        }
        for i in 1..row_start.len() {
            row_start[i] += row_start[i - 1];
        }
        let mut next = row_start.clone();
        let placeholder = CautiousNeighbor {
            node: NodeId::default(),
            edge: EdgeId::default(),
            theta: 0,
            gap: 0.0,
        };
        let mut entries = vec![placeholder; *row_start.last().expect("n + 1 offsets")];
        for &(v, theta) in &gated {
            let gap = benefits.gap(v);
            for (u, edge) in graph.neighbor_entries(v) {
                entries[next[u.index()]] = CautiousNeighbor {
                    node: v,
                    edge,
                    theta,
                    gap,
                };
                next[u.index()] += 1;
            }
        }
        CautiousIndex { row_start, entries }
    }

    #[inline]
    fn row(&self, u: NodeId) -> &[CautiousNeighbor] {
        &self.entries[self.row_start[u.index()]..self.row_start[u.index() + 1]]
    }
}

/// CSR of per-node acceptance-curve cut points: for each user, the
/// distinct acceptance probabilities strictly inside `(0, 1)` reachable
/// over mutual-friend counts `0..=degree`, sorted ascending.
/// Precomputed once per instance so realization probability math never
/// re-derives (or allocates) them.
#[derive(Debug, Clone)]
pub(crate) struct AcceptanceCuts {
    row_start: Vec<usize>,
    values: Vec<f64>,
}

impl AcceptanceCuts {
    fn build(graph: &Graph, classes: &[UserClass]) -> Self {
        let n = graph.node_count();
        let mut row_start = Vec::with_capacity(n + 1);
        row_start.push(0);
        let mut values = Vec::with_capacity(classes.len());
        let mut scratch: Vec<f64> = Vec::new();
        let interior = |q: f64| q > 0.0 && q < 1.0;
        for (i, &class) in classes.iter().enumerate() {
            match class {
                // A constant curve: its one value, if interior.
                UserClass::Reckless { acceptance } => {
                    if interior(acceptance) {
                        values.push(acceptance);
                    }
                }
                // A 0/1 step: no interior values.
                UserClass::Cautious { .. } => {}
                _ => {
                    let degree = graph.degree(NodeId::from(i)) as u32;
                    scratch.clear();
                    scratch.extend(
                        (0..=degree)
                            .map(|m| class.acceptance_probability_at(m))
                            .filter(|&q| interior(q)),
                    );
                    scratch.sort_by(f64::total_cmp);
                    scratch.dedup();
                    values.extend_from_slice(&scratch);
                }
            }
            row_start.push(values.len());
        }
        AcceptanceCuts { row_start, values }
    }

    #[inline]
    fn row(&self, u: NodeId) -> &[f64] {
        &self.values[self.row_start[u.index()]..self.row_start[u.index() + 1]]
    }
}

/// A complete instance of the Adaptive Crawling with Cautious Users
/// problem: the social graph, per-edge link-existence probabilities
/// `p: E → [0,1]`, per-user behavioral classes (reckless `q_u` / cautious
/// `θ_v`), and the benefit schedule.
///
/// The attacker `s` is modeled as an external actor with no initial
/// connections (equivalent to the paper's isolated node `s ∈ V`); its
/// growing friend set lives in the simulation state, not in the graph.
///
/// Construct instances with [`AccuInstanceBuilder`]. All model parameters
/// are considered public knowledge to the attacker, as in the paper's
/// experiments; only edge existence and reckless acceptance outcomes are
/// stochastic.
///
/// # Examples
///
/// ```
/// use accu_core::{AccuInstanceBuilder, UserClass};
/// use osn_graph::{GraphBuilder, NodeId};
///
/// // Fig. 1 of the paper: cautious v0 (θ=1), reckless v1 (q=1).
/// let g = GraphBuilder::from_edges(2, [(0u32, 1u32)])?;
/// let inst = AccuInstanceBuilder::new(g)
///     .uniform_edge_probability(1.0)
///     .user_class(NodeId::new(0), UserClass::cautious(1))
///     .user_class(NodeId::new(1), UserClass::reckless(1.0))
///     .uniform_benefits(2.0, 1.0)
///     .build()?;
/// assert!(inst.is_cautious(NodeId::new(0)));
/// assert_eq!(inst.cautious_users().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct AccuInstance {
    pub(crate) graph: Graph,
    pub(crate) edge_prob: Vec<f64>,
    pub(crate) classes: Vec<UserClass>,
    pub(crate) benefits: BenefitSchedule,
    pub(crate) cautious: Vec<NodeId>,
    cautious_index: CautiousIndex,
    cuts: AcceptanceCuts,
    instance_id: u64,
}

impl AccuInstance {
    /// Assembles an instance from already-validated parts, computing
    /// the derived read-only indexes (cautious-neighbor CSR,
    /// acceptance-cut CSR) shared by every episode run on the instance.
    pub(crate) fn from_parts(
        graph: Graph,
        edge_prob: Vec<f64>,
        classes: Vec<UserClass>,
        benefits: BenefitSchedule,
        cautious: Vec<NodeId>,
    ) -> Self {
        let cautious_index = CautiousIndex::build(&graph, &classes, &benefits);
        let cuts = AcceptanceCuts::build(&graph, &classes);
        AccuInstance {
            graph,
            edge_prob,
            classes,
            benefits,
            cautious,
            cautious_index,
            cuts,
            instance_id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this instance's parameter set,
    /// assigned at construction and shared by clones. Caches of
    /// instance-derived state key on it: equal ids guarantee equal
    /// parameters (clones of one build), while every fresh build gets
    /// an id never used before, so stale entries can never collide.
    #[inline]
    pub(crate) fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The precomputed threshold-gated-neighbor row of `u`: every
    /// neighbor with a mutual-friend threshold, in sorted adjacency
    /// order, with its connecting edge, cached `θ`, and benefit gap.
    #[inline]
    pub(crate) fn cautious_row(&self, u: NodeId) -> &[CautiousNeighbor] {
        self.cautious_index.row(u)
    }

    /// The distinct interior cut points of `u`'s acceptance curve over
    /// mutual-friend counts `0..=degree(u)`: every acceptance
    /// probability strictly inside `(0, 1)`, sorted ascending.
    /// Precomputed at build time; cautious users have no cuts (their
    /// curve is a 0/1 step), reckless users at most one.
    #[inline]
    pub fn acceptance_cuts(&self, u: NodeId) -> &[f64] {
        self.cuts.row(u)
    }
    /// The social graph topology.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of users.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Link-existence probability of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge_probability(&self, e: EdgeId) -> f64 {
        self.edge_prob[e.index()]
    }

    /// Behavioral class of user `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn user_class(&self, u: NodeId) -> UserClass {
        self.classes[u.index()]
    }

    /// Returns `true` if `u` is cautious.
    #[inline]
    pub fn is_cautious(&self, u: NodeId) -> bool {
        self.classes[u.index()].is_cautious()
    }

    /// Mutual-friend threshold of `u` (cautious users only).
    #[inline]
    pub fn threshold(&self, u: NodeId) -> Option<u32> {
        self.classes[u.index()].threshold()
    }

    /// Acceptance probability of `u` (reckless users only).
    #[inline]
    pub fn acceptance_probability(&self, u: NodeId) -> Option<f64> {
        self.classes[u.index()].acceptance_probability()
    }

    /// The benefit schedule.
    #[inline]
    pub fn benefits(&self) -> &BenefitSchedule {
        &self.benefits
    }

    /// All cautious users, sorted by id.
    #[inline]
    pub fn cautious_users(&self) -> &[NodeId] {
        &self.cautious
    }

    /// Number of binary random variables of the instance: one per
    /// uncertain edge (existence) plus `ceil(log2(bands))` per user,
    /// where a user's bands are the behavioral equivalence classes of
    /// its acceptance draw (1 for cautious, up to 2 for reckless, up to
    /// 3 for hesitant, up to `degree + 2` for linear users). Governs the
    /// cost of exhaustive enumeration.
    pub fn random_bits(&self) -> usize {
        let uncertain_edges = self
            .edge_prob
            .iter()
            .filter(|&&p| p > 0.0 && p < 1.0)
            .count();
        let user_bits: usize = (0..self.node_count())
            .map(|i| {
                let bands = self.acceptance_cuts(NodeId::from(i)).len() + 1;
                bands.next_power_of_two().trailing_zeros() as usize
            })
            .sum();
        uncertain_edges + user_bits
    }

    /// Checks the paper's working assumptions that are *not* hard
    /// invariants, returning a description of each violation:
    ///
    /// 1. cautious users are pairwise non-adjacent (`N(v) ∩ V_C = ∅`);
    /// 2. every cautious user has at least `θ_v` reckless neighbors
    ///    (otherwise it can never be befriended);
    /// 3. the strict benefit gap `B_f(u) − B_fof(u) > 0` required by
    ///    Theorem 1.
    ///
    /// Instances violating these still simulate fine; only the
    /// theoretical guarantees (and Lemma 2's order-independence) rely on
    /// them.
    pub fn check_paper_assumptions(&self) -> Vec<AssumptionViolation> {
        let mut out = Vec::new();
        for &v in &self.cautious {
            let mut reckless_neighbors = 0usize;
            for &w in self.graph.neighbors(v) {
                if self.is_cautious(w) {
                    out.push(AssumptionViolation::AdjacentCautiousUsers { a: v, b: w });
                } else {
                    reckless_neighbors += 1;
                }
            }
            let theta = self.threshold(v).unwrap_or(0) as usize;
            if reckless_neighbors < theta {
                out.push(AssumptionViolation::UnreachableCautiousUser {
                    node: v,
                    reckless_neighbors,
                    threshold: theta,
                });
            }
        }
        // Adjacent pairs are reported from both sides; keep one per pair.
        out.retain(|v| match v {
            AssumptionViolation::AdjacentCautiousUsers { a, b } => a < b,
            _ => true,
        });
        if !self.benefits.has_strict_gap() {
            out.push(AssumptionViolation::NoStrictBenefitGap);
        }
        out
    }
}

impl fmt::Debug for AccuInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccuInstance")
            .field("nodes", &self.node_count())
            .field("edges", &self.graph.edge_count())
            .field("cautious", &self.cautious.len())
            .finish()
    }
}

/// A violated working assumption reported by
/// [`AccuInstance::check_paper_assumptions`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AssumptionViolation {
    /// Two cautious users are adjacent (`a < b`).
    AdjacentCautiousUsers {
        /// First cautious endpoint.
        a: NodeId,
        /// Second cautious endpoint.
        b: NodeId,
    },
    /// A cautious user has fewer reckless neighbors than its threshold.
    UnreachableCautiousUser {
        /// The unreachable cautious user.
        node: NodeId,
        /// How many reckless neighbors it has.
        reckless_neighbors: usize,
        /// Its threshold `θ`.
        threshold: usize,
    },
    /// Some user has `B_f(u) = B_fof(u)`, voiding Theorem 1's bound.
    NoStrictBenefitGap,
}

impl fmt::Display for AssumptionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssumptionViolation::AdjacentCautiousUsers { a, b } => {
                write!(f, "cautious users {a} and {b} are adjacent")
            }
            AssumptionViolation::UnreachableCautiousUser {
                node,
                reckless_neighbors,
                threshold,
            } => {
                write!(
                    f,
                    "cautious user {node} has {reckless_neighbors} reckless neighbors, below θ={threshold}"
                )
            }
            AssumptionViolation::NoStrictBenefitGap => {
                write!(
                    f,
                    "some user has B_f = B_fof; Theorem 1 requires a strict gap"
                )
            }
        }
    }
}

/// Builder for [`AccuInstance`].
///
/// Defaults: every edge probability `1.0`, every user
/// `Reckless {{ acceptance: 1.0 }}`, benefits `B_f = 2`, `B_fof = 1`
/// (the paper's reckless-user defaults).
#[derive(Debug, Clone)]
pub struct AccuInstanceBuilder {
    pub(crate) graph: Graph,
    pub(crate) edge_prob: Vec<f64>,
    pub(crate) classes: Vec<UserClass>,
    pub(crate) friend_benefit: Vec<f64>,
    pub(crate) fof_benefit: Vec<f64>,
}

impl AccuInstanceBuilder {
    /// Starts building an instance over `graph`.
    pub fn new(graph: Graph) -> Self {
        let n = graph.node_count();
        let m = graph.edge_count();
        AccuInstanceBuilder {
            graph,
            edge_prob: vec![1.0; m],
            classes: vec![UserClass::reckless(1.0); n],
            friend_benefit: vec![2.0; n],
            fof_benefit: vec![1.0; n],
        }
    }

    /// Sets every edge's existence probability to `p`.
    pub fn uniform_edge_probability(mut self, p: f64) -> Self {
        self.edge_prob.fill(p);
        self
    }

    /// Sets the existence probability of one edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range. Value validity is checked at
    /// [`build`](Self::build).
    pub fn edge_probability(mut self, e: EdgeId, p: f64) -> Self {
        self.edge_prob[e.index()] = p;
        self
    }

    /// Replaces the full edge-probability vector (indexed by [`EdgeId`]).
    pub fn edge_probabilities(mut self, probs: Vec<f64>) -> Self {
        self.edge_prob = probs;
        self
    }

    /// Sets the class of one user.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user_class(mut self, u: NodeId, class: UserClass) -> Self {
        self.classes[u.index()] = class;
        self
    }

    /// Replaces the full user-class vector (indexed by node).
    pub fn user_classes(mut self, classes: Vec<UserClass>) -> Self {
        self.classes = classes;
        self
    }

    /// Sets uniform benefits for all users.
    pub fn uniform_benefits(mut self, bf: f64, bfof: f64) -> Self {
        self.friend_benefit.fill(bf);
        self.fof_benefit.fill(bfof);
        self
    }

    /// Sets the benefits of one user.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn benefits(mut self, u: NodeId, bf: f64, bfof: f64) -> Self {
        self.friend_benefit[u.index()] = bf;
        self.fof_benefit[u.index()] = bfof;
        self
    }

    /// Validates and builds the instance.
    ///
    /// # Errors
    ///
    /// * [`AccuError::LengthMismatch`] if a replaced attribute vector has
    ///   the wrong length;
    /// * [`AccuError::InvalidProbability`] if any edge or acceptance
    ///   probability is outside `[0, 1]`;
    /// * [`AccuError::ZeroThreshold`] if a cautious user has `θ = 0`;
    /// * [`AccuError::InvalidBenefit`] if any user violates
    ///   `B_f ≥ B_fof ≥ 0`.
    pub fn build(self) -> Result<AccuInstance, AccuError> {
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        if self.edge_prob.len() != m {
            return Err(AccuError::LengthMismatch {
                what: "edge probabilities",
                expected: m,
                actual: self.edge_prob.len(),
            });
        }
        if self.classes.len() != n {
            return Err(AccuError::LengthMismatch {
                what: "user classes",
                expected: n,
                actual: self.classes.len(),
            });
        }
        for &p in &self.edge_prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(AccuError::InvalidProbability {
                    what: "edge existence",
                    value: p,
                });
            }
        }
        for (i, c) in self.classes.iter().enumerate() {
            match c {
                UserClass::Reckless { acceptance } => {
                    if !(0.0..=1.0).contains(acceptance) {
                        return Err(AccuError::InvalidProbability {
                            what: "friend request acceptance",
                            value: *acceptance,
                        });
                    }
                }
                UserClass::Cautious { threshold } => {
                    if *threshold == 0 {
                        return Err(AccuError::ZeroThreshold {
                            node: NodeId::from(i),
                        });
                    }
                }
                UserClass::Hesitant {
                    below,
                    at_or_above,
                    threshold,
                } => {
                    if *threshold == 0 {
                        return Err(AccuError::ZeroThreshold {
                            node: NodeId::from(i),
                        });
                    }
                    for &q in [below, at_or_above] {
                        if !(0.0..=1.0).contains(&q) {
                            return Err(AccuError::InvalidProbability {
                                what: "friend request acceptance",
                                value: q,
                            });
                        }
                    }
                    if below > at_or_above {
                        return Err(AccuError::InvalidProbability {
                            what: "hesitant acceptance (q1 must not exceed q2)",
                            value: *below,
                        });
                    }
                }
                UserClass::MutualLinear { base, slope } => {
                    if !(0.0..=1.0).contains(base) {
                        return Err(AccuError::InvalidProbability {
                            what: "linear acceptance base",
                            value: *base,
                        });
                    }
                    if !slope.is_finite() || *slope < 0.0 {
                        return Err(AccuError::InvalidProbability {
                            what: "linear acceptance slope (must be non-negative)",
                            value: *slope,
                        });
                    }
                }
            }
        }
        let benefits = BenefitSchedule::new(self.friend_benefit, self.fof_benefit)?;
        let cautious: Vec<NodeId> = self
            .classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_cautious())
            .map(|(i, _)| NodeId::from(i))
            .collect();
        Ok(AccuInstance::from_parts(
            self.graph,
            self.edge_prob,
            self.classes,
            benefits,
            cautious,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn triangle() -> Graph {
        GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builder_defaults_are_reckless_certain() {
        let inst = AccuInstanceBuilder::new(triangle()).build().unwrap();
        assert_eq!(inst.node_count(), 3);
        assert!(inst.cautious_users().is_empty());
        assert_eq!(inst.acceptance_probability(NodeId::new(0)), Some(1.0));
        assert_eq!(inst.edge_probability(EdgeId::new(0)), 1.0);
        assert_eq!(inst.benefits().friend(NodeId::new(1)), 2.0);
    }

    #[test]
    fn builder_rejects_bad_probabilities() {
        let err = AccuInstanceBuilder::new(triangle())
            .uniform_edge_probability(1.5)
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::InvalidProbability { .. }));
        let err = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(0), UserClass::reckless(-0.1))
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::InvalidProbability { .. }));
    }

    #[test]
    fn builder_rejects_zero_threshold_and_bad_lengths() {
        let err = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(2), UserClass::cautious(0))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            AccuError::ZeroThreshold {
                node: NodeId::new(2)
            }
        );
        let err = AccuInstanceBuilder::new(triangle())
            .edge_probabilities(vec![0.5; 2])
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::LengthMismatch { .. }));
        let err = AccuInstanceBuilder::new(triangle())
            .user_classes(vec![UserClass::reckless(1.0); 5])
            .build()
            .unwrap_err();
        assert!(matches!(err, AccuError::LengthMismatch { .. }));
    }

    #[test]
    fn cautious_users_are_sorted_and_classified() {
        let inst = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .user_class(NodeId::new(0), UserClass::cautious(2))
            .build()
            .unwrap();
        assert_eq!(inst.cautious_users(), &[NodeId::new(0), NodeId::new(2)]);
        assert!(inst.is_cautious(NodeId::new(0)));
        assert!(!inst.is_cautious(NodeId::new(1)));
        assert_eq!(inst.threshold(NodeId::new(0)), Some(2));
        assert_eq!(inst.threshold(NodeId::new(1)), None);
    }

    #[test]
    fn derived_indexes_match_their_definitions() {
        use osn_graph::generators::barabasi_albert;
        use rand::{rngs::StdRng, SeedableRng};

        let g = barabasi_albert(300, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        let classes: Vec<UserClass> = (0..g.node_count())
            .map(|i| match i % 7 {
                0 => UserClass::cautious(1 + (i % 5) as u32),
                1 => UserClass::hesitant(0.1, 0.8, 2),
                2 => UserClass::mutual_linear(0.2, 0.15),
                3 => UserClass::reckless(0.0),
                4 => UserClass::reckless(1.0),
                _ => UserClass::reckless((i % 10) as f64 / 10.0),
            })
            .collect();
        let inst = AccuInstanceBuilder::new(g.clone())
            .user_classes(classes.clone())
            .build()
            .unwrap();
        for u in g.nodes() {
            let want: Vec<(NodeId, EdgeId, u32)> = g
                .neighbor_entries(u)
                .filter_map(|(v, e)| classes[v.index()].threshold().map(|t| (v, e, t)))
                .collect();
            let got: Vec<(NodeId, EdgeId, u32)> = inst
                .cautious_row(u)
                .iter()
                .map(|c| (c.node, c.edge, c.theta))
                .collect();
            assert_eq!(got, want, "cautious row of {u}");
            for c in inst.cautious_row(u) {
                assert_eq!(c.gap, inst.benefits().gap(c.node));
            }

            let class = classes[u.index()];
            let mut cuts: Vec<f64> = (0..=g.degree(u) as u32)
                .map(|m| class.acceptance_probability_at(m))
                .filter(|&q| q > 0.0 && q < 1.0)
                .collect();
            cuts.sort_by(f64::total_cmp);
            cuts.dedup();
            assert_eq!(inst.acceptance_cuts(u), cuts, "cuts of {u}");
        }
    }

    #[test]
    fn random_bits_counts_only_uncertain_variables() {
        let inst = AccuInstanceBuilder::new(triangle())
            .edge_probabilities(vec![0.0, 0.5, 1.0])
            .user_classes(vec![
                UserClass::reckless(0.3),
                UserClass::reckless(1.0),
                UserClass::cautious(1),
            ])
            .build()
            .unwrap();
        // One uncertain edge (0.5) + one uncertain user (0.3).
        assert_eq!(inst.random_bits(), 2);
    }

    #[test]
    fn assumption_checks_fire() {
        // 0 - 1 - 2 path with 0 and 1 cautious (adjacent) and thresholds
        // exceeding their reckless neighborhoods.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(0), UserClass::cautious(2))
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .uniform_benefits(1.0, 1.0)
            .build()
            .unwrap();
        let violations = inst.check_paper_assumptions();
        assert!(violations
            .iter()
            .any(|v| matches!(v, AssumptionViolation::AdjacentCautiousUsers { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, AssumptionViolation::UnreachableCautiousUser { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, AssumptionViolation::NoStrictBenefitGap)));
        // Adjacent pair is reported exactly once.
        let adjacent = violations
            .iter()
            .filter(|v| matches!(v, AssumptionViolation::AdjacentCautiousUsers { .. }))
            .count();
        assert_eq!(adjacent, 1);
    }

    #[test]
    fn well_formed_instance_has_no_violations() {
        let inst = AccuInstanceBuilder::new(triangle())
            .user_class(NodeId::new(0), UserClass::cautious(1))
            .build()
            .unwrap();
        assert!(inst.check_paper_assumptions().is_empty());
    }

    #[test]
    fn debug_summarizes() {
        let inst = AccuInstanceBuilder::new(triangle()).build().unwrap();
        let s = format!("{inst:?}");
        assert!(s.contains("nodes: 3"));
    }
}
