//! Adaptive Benefit Maximization (paper Algorithm 1).

use accu_telemetry::{CounterHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::NodeId;

use crate::{AttackerView, Observation, Policy, UserClass};

/// Well-known ABM metric names (see [`Abm::attach_recorder`]).
///
/// The `heap_*` names predate the winner tree that replaced the lazy
/// heap; they keep their meaning for the tree.
pub mod abm_metrics {
    /// Winner-tree leaf updates: one per candidate on reset plus one per
    /// rescore that changed a potential.
    pub const HEAP_PUSH: &str = "abm.heap_push";
    /// Tree tops taken during `select`: each is a returned target or a
    /// requested skip.
    pub const HEAP_POP: &str = "abm.heap_pop";
    /// Tops skipped as stale. Always 0: the winner tree holds one entry
    /// per node, so nothing goes stale.
    pub const STALE_SKIP: &str = "abm.stale_skip";
    /// Tops skipped because the node was already requested.
    pub const REQUESTED_SKIP: &str = "abm.requested_skip";
    /// `select` calls that returned a target.
    pub const SELECTS: &str = "abm.selects";
    /// Potential evaluations: the eager rescores in `observe` plus the
    /// deferred nodes re-evaluated when they reach the tree top.
    pub const RESCORES: &str = "abm.rescores";
    /// Rescores whose potential actually changed (and updated a leaf).
    pub const RESCORES_CHANGED: &str = "abm.rescores_changed";
}

/// Pre-fetched counter handles for the ABM hot paths; all no-ops until
/// a recorder is attached.
#[derive(Debug, Clone, Default)]
struct AbmTelemetry {
    heap_push: CounterHandle,
    heap_pop: CounterHandle,
    requested_skip: CounterHandle,
    selects: CounterHandle,
    rescores: CounterHandle,
    rescores_changed: CounterHandle,
}

impl AbmTelemetry {
    fn new(recorder: &Recorder) -> Self {
        // Registered so snapshots report the (always zero) stale count.
        recorder.counter(abm_metrics::STALE_SKIP);
        AbmTelemetry {
            heap_push: recorder.counter(abm_metrics::HEAP_PUSH),
            heap_pop: recorder.counter(abm_metrics::HEAP_POP),
            requested_skip: recorder.counter(abm_metrics::REQUESTED_SKIP),
            selects: recorder.counter(abm_metrics::SELECTS),
            rescores: recorder.counter(abm_metrics::RESCORES),
            rescores_changed: recorder.counter(abm_metrics::RESCORES_CHANGED),
        }
    }
}

/// The tunable weights of the ABM potential function
/// `P(u|ω) = q(u)·(w_D·P_D + w_I·P_I)`.
///
/// The paper's experiments use `w_D = 1 − w_I`; `w_D = 1, w_I = 0` is the
/// classical pure greedy covered by Theorem 1.
///
/// # Examples
///
/// ```
/// use accu_core::policy::AbmWeights;
///
/// let w = AbmWeights::balanced();           // w_D = w_I = 0.5 (paper §IV-B)
/// assert_eq!(w.direct(), 0.5);
/// let w = AbmWeights::with_indirect(0.2);   // w_D = 0.8, w_I = 0.2
/// assert_eq!(w.direct(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbmWeights {
    direct: f64,
    indirect: f64,
}

impl AbmWeights {
    /// Creates weights `(w_D, w_I)`. Negative values are clamped to 0.
    pub fn new(direct: f64, indirect: f64) -> Self {
        AbmWeights {
            direct: direct.max(0.0),
            indirect: indirect.max(0.0),
        }
    }

    /// The paper's default for the main comparison: `w_D = w_I = 0.5`.
    pub fn balanced() -> Self {
        AbmWeights::new(0.5, 0.5)
    }

    /// The paper's sweep parameterization: `w_I = wi`, `w_D = 1 − wi`.
    pub fn with_indirect(wi: f64) -> Self {
        AbmWeights::new(1.0 - wi, wi)
    }

    /// Direct-gain weight `w_D`.
    pub fn direct(&self) -> f64 {
        self.direct
    }

    /// Indirect-gain weight `w_I`.
    pub fn indirect(&self) -> f64 {
        self.indirect
    }
}

impl Default for AbmWeights {
    fn default() -> Self {
        AbmWeights::balanced()
    }
}

/// A winner (tournament) tree over node ids: an implicit binary tree
/// whose root `nodes[1]` is the strict `(key, lowest id)` argmax of a
/// key slice.
///
/// Leaf `i` sits at `nodes[leaves + i]` and holds id `i`; every
/// internal node holds the winner of its two children under
/// [`f64::total_cmp`]. The left subtree always holds the lower ids, so
/// a tie goes left. The key slice is owned by the caller and padded
/// to `leaves` (a power of two, so all leaves share one depth); an
/// empty leaf carries `-∞`.
#[derive(Debug, Clone, Default)]
struct WinnerTree {
    nodes: Vec<u32>,
    leaves: usize,
    /// Ids whose key changed since the last [`repair`](Self::repair).
    queue: Vec<usize>,
}

impl WinnerTree {
    /// Builds the tree bottom-up over `keys` in O(n).
    fn build(&mut self, keys: &[f64]) {
        let leaves = keys.len();
        debug_assert!(leaves.is_power_of_two());
        self.leaves = leaves;
        self.nodes.clear();
        self.nodes.resize(leaves, 0);
        self.nodes
            .extend((0..leaves).map(|i| u32::try_from(i).expect("leaf ids fit in u32")));
        for i in (1..leaves).rev() {
            self.nodes[i] = winner(keys, self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
        self.queue.clear();
    }

    /// The current winner. Its key is `-∞` when every leaf is empty.
    fn top(&self) -> usize {
        self.nodes[1] as usize
    }

    /// Records that the key of `id` changed.
    fn update(&mut self, id: usize) {
        self.queue.push(id);
    }

    /// Replays the queued leaves up to the root, level by level over
    /// the sorted, deduplicated positions, so each internal node on a
    /// changed path is recomputed once and after both its children.
    fn repair(&mut self, keys: &[f64]) {
        if self.queue.is_empty() {
            return;
        }
        let queue = &mut self.queue;
        queue.sort_unstable();
        queue.dedup();
        for pos in queue.iter_mut() {
            *pos += self.leaves;
        }
        while queue[0] > 1 {
            let mut len = 0;
            for r in 0..queue.len() {
                let parent = queue[r] >> 1;
                if len == 0 || queue[len - 1] != parent {
                    queue[len] = parent;
                    len += 1;
                }
            }
            queue.truncate(len);
            for &p in queue.iter() {
                self.nodes[p] = winner(keys, self.nodes[2 * p], self.nodes[2 * p + 1]);
            }
        }
        queue.clear();
    }
}

/// The winner of two sibling subtrees; `left` holds the lower ids, so
/// it keeps ties.
#[inline]
fn winner(keys: &[f64], left: u32, right: u32) -> u32 {
    if keys[right as usize].total_cmp(&keys[left as usize]).is_gt() {
        right
    } else {
        left
    }
}

/// The Adaptive Benefit Maximization policy (paper Algorithm 1).
///
/// Each step sends a request to the candidate maximizing the potential
/// `P(u|ω) = q(u)·(w_D·P_D + w_I·P_I)` where:
///
/// * `q(u)` is the acceptance belief — `q_u` for reckless users, `1`/`0`
///   for cautious users at/below their threshold;
/// * `P_D` is the expected direct benefit: `B_f(u)` (minus `B_fof(u)` if
///   `u` is already a friend-of-friend) plus the expected
///   friend-of-friend benefit of `u`'s potential neighbors that are not
///   friends and not already friends-of-friends;
/// * `P_I` rewards `u` for moving its not-yet-befriendable cautious
///   neighbors `v` closer to their thresholds:
///   `Σ p_uv·(B_f(v) − B_fof(v)) / (θ_v − |N(s) ∩ N(v)|)`.
///
/// # Implementation notes
///
/// Potentials are cached, and a winner tree over node ids yields the
/// strict `(potential, lowest id)` argmax. An observation only changes
/// the potentials of nodes within two hops of the target (its *dirty*
/// set), and most of those potentials can only fall:
///
/// * `P_D` sums non-negative terms over a set that only shrinks — a
///   neighbor's friend-of-friend gain only drops to 0, and `u`'s own
///   friend-of-friend status only turns on;
/// * a reckless user's `q` is constant;
/// * floating-point rounding is monotone, so the computed sums fall
///   with the exact ones.
///
/// A potential can rise in two cases only: `u`'s own mutual count grew
/// and `u` is not reckless (every other acceptance curve is
/// non-decreasing in the mutual count), or `u` neighbors an unrequested
/// threshold-gated user whose mutual count grew but is still below its
/// threshold (the `P_I` denominator shrank). `observe` rescores exactly
/// those nodes. Every other dirty node keeps its old value as an upper
/// bound and is marked *deferred*. `select` re-evaluates a deferred node
/// only when it reaches the top of the tree. Because no key is ever
/// below its node's true potential, the first non-deferred top is the
/// exact argmax, so this lazy evaluation picks the same targets as a
/// full rescan — unlike classical lazy greedy, which assumes every
/// potential can only fall.
///
/// # Examples
///
/// ```
/// use accu_core::policy::{Abm, AbmWeights, Policy};
///
/// let abm = Abm::new(AbmWeights::balanced());
/// assert_eq!(abm.name(), "ABM");
/// ```
#[derive(Debug, Clone)]
pub struct Abm {
    weights: AbmWeights,
    name: String,
    /// Tree keys: the cached potential of every candidate — exact, or an
    /// upper bound while [`deferred`](Self::deferred) — and `-∞` for
    /// requested nodes and the padding up to the tree's leaf count.
    potential: Vec<f64>,
    /// Candidates whose cached potential is an upper bound awaiting
    /// re-evaluation at the tree top.
    deferred: Vec<bool>,
    tree: WinnerTree,
    tel: AbmTelemetry,
    /// Decision-trace emission handle; a no-op until [`Abm::attach_tracer`].
    trace: TraceTrack,
    /// Epoch stamps deduplicating one observation's dirty set: `v` was
    /// already handled by the current `observe` iff `mark[v] == epoch`.
    /// Kept on the policy so steady-state episodes never allocate here.
    mark: Vec<u32>,
    epoch: u32,
    /// Dirty candidates handled by the current `observe` (traced only).
    touched: usize,
    /// Initial (empty-observation) potentials of the last instance this
    /// policy was reset on. Within one instance every episode starts
    /// from the same observation, so the first reset's scores are
    /// replayed instead of recomputed — keyed by the instance's
    /// process-unique id, which clones share and rebuilds never reuse.
    init_cache: Option<InitCache>,
    /// Flat per-node direct-term gain: `B_fof(v)` while `v` is neither
    /// a friend nor a friend-of-friend, `0.0` afterwards. Folding the
    /// friend/fof exclusions into the value makes the direct-term
    /// accumulation branch-free — every excluded neighbor contributes
    /// an exact `+0.0`, which leaves the running sum bit-identical
    /// (benefits are validated finite and non-negative, so no term and
    /// no partial sum can be `-0.0`).
    fof_gain: Vec<f64>,
}

/// See [`Abm::init_cache`].
#[derive(Debug, Clone)]
struct InitCache {
    instance_id: u64,
    potentials: Vec<f64>,
}

impl Abm {
    /// Creates an ABM policy with the given weights.
    pub fn new(weights: AbmWeights) -> Self {
        Abm::with_name(weights, "ABM")
    }

    /// Creates an ABM policy with a custom display name.
    pub fn with_name(weights: AbmWeights, name: impl Into<String>) -> Self {
        Abm {
            weights,
            name: name.into(),
            potential: Vec::new(),
            deferred: Vec::new(),
            tree: WinnerTree::default(),
            tel: AbmTelemetry::default(),
            trace: TraceTrack::disabled(),
            mark: Vec::new(),
            epoch: 0,
            touched: 0,
            init_cache: None,
            fof_gain: Vec::new(),
        }
    }

    /// Creates an ABM policy reporting tree and rescore telemetry into
    /// `recorder` under the [`abm_metrics`] names.
    pub fn with_recorder(weights: AbmWeights, recorder: &Recorder) -> Self {
        let mut abm = Abm::new(weights);
        abm.attach_recorder(recorder);
        abm
    }

    /// Attaches a recorder: subsequent leaf updates, tree tops and
    /// rescores are counted under the [`abm_metrics`] names. Attaching a
    /// disabled recorder restores the zero-cost no-op handles.
    pub fn attach_recorder(&mut self, recorder: &Recorder) {
        self.tel = AbmTelemetry::new(recorder);
    }

    /// Attaches a trace track: while the track's sampling gate is open,
    /// every `select` emits a `decide` instant with the full potential
    /// breakdown (`q`, `P_D`, `P_I`, the weights, the runner-up and the
    /// margin, plus the step's skip counts) and every `observe` emits an
    /// `abm_observe` instant with the dirty-set size. Attaching a
    /// disabled track restores the zero-cost no-op.
    pub fn attach_tracer(&mut self, track: &TraceTrack) {
        self.trace = track.clone();
    }

    /// The configured weights.
    pub fn weights(&self) -> AbmWeights {
        self.weights
    }

    /// Computes the potential `P(u|ω)` from scratch.
    ///
    /// Public so experiments and tests can inspect the scoring directly.
    pub fn potential_of(&self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        potential(view, u, self.weights)
    }

    /// Rebuilds the [`fof_gain`](Self::fof_gain) cache from the view.
    /// Fresh (empty) observations take the bulk-copy path: no node is a
    /// friend or friend-of-friend, so the cache is a verbatim copy of
    /// the instance's benefit array.
    fn refill_fof_gain(&mut self, view: &AttackerView<'_>) {
        let inst = view.instance();
        let obs = view.observation();
        self.fof_gain.clear();
        if obs.requests().is_empty() {
            self.fof_gain.extend_from_slice(&inst.benefits.fof);
            return;
        }
        let benefits = inst.benefits();
        self.fof_gain.extend((0..inst.node_count()).map(|i| {
            let v = NodeId::from(i);
            if obs.is_friend(v) || obs.is_friend_of_friend(v) {
                0.0
            } else {
                benefits.friend_of_friend(v)
            }
        }));
    }

    /// Evaluates the ABM potential of candidate `u` through the
    /// [`fof_gain`](Self::fof_gain) cache: the direct-term walk over
    /// `u`'s adjacency row becomes a branch-free two-array dot product.
    /// Bit-identical to [`potential`] — every neighbor the scratch
    /// evaluation *skips* (friends, friends-of-friends, `p = 0` edges)
    /// reads a `0.0` factor here, so its contribution is an exact `+0.0`
    /// add, and `x + 0.0 == x` bitwise for the non-negative partial sums
    /// this loop produces.
    ///
    /// Edge beliefs are read straight from the instance's priors. An
    /// edge resolves only when an endpoint becomes a friend, and `u` is
    /// a candidate, so every edge read here is unresolved unless the
    /// other endpoint is a friend — and then the direct term multiplies
    /// it by a `0.0` gain and the indirect term skips it.
    fn potential_cached(&self, view: &AttackerView<'_>, u: NodeId) -> f64 {
        let obs = view.observation();
        let inst = view.instance();
        let benefits = inst.benefits();
        let w = self.weights;
        let q = view.acceptance_belief(u);
        if q == 0.0 {
            return 0.0;
        }
        let mut direct = benefits.friend(u)
            - if obs.is_friend_of_friend(u) {
                benefits.friend_of_friend(u)
            } else {
                0.0
            };
        for (v, e) in inst.graph().neighbor_entries(u) {
            direct += inst.edge_prob[e.index()] * self.fof_gain[v.index()];
        }
        let mut indirect = 0.0;
        if w.indirect() > 0.0 {
            for entry in inst.cautious_row(u) {
                if obs.is_friend(entry.node) {
                    continue;
                }
                let p = inst.edge_prob[entry.edge.index()];
                if p == 0.0 {
                    continue;
                }
                if obs.was_requested(entry.node) {
                    continue;
                }
                let mutual = obs.mutual_friends(entry.node);
                if entry.theta > mutual {
                    indirect += p * entry.gap / (entry.theta - mutual) as f64;
                }
            }
        }
        q * (w.direct() * direct + w.indirect() * indirect)
    }

    /// Re-evaluates candidate `u` exactly and updates its leaf if the
    /// potential moved.
    fn rescore(&mut self, view: &AttackerView<'_>, u: NodeId) {
        self.deferred[u.index()] = false;
        self.tel.rescores.incr();
        let p = self.potential_cached(view, u);
        if p != self.potential[u.index()] {
            self.potential[u.index()] = p;
            self.tree.update(u.index());
            self.tel.rescores_changed.incr();
            self.tel.heap_push.incr();
        }
    }

    /// Empties `u`'s leaf: it left the candidate set.
    fn retire(&mut self, u: NodeId) {
        self.potential[u.index()] = f64::NEG_INFINITY;
        self.deferred[u.index()] = false;
        self.tree.update(u.index());
    }

    /// Marks `u` as handled by the current observation. Returns `false`
    /// if it already was, or is no longer a candidate.
    fn touch(&mut self, obs: &Observation, u: NodeId) -> bool {
        if obs.was_requested(u) || self.mark[u.index()] == self.epoch {
            return false;
        }
        self.mark[u.index()] = self.epoch;
        self.touched += 1;
        true
    }

    /// Rescores `u` now: its potential may have risen.
    fn rescore_eager(&mut self, view: &AttackerView<'_>, u: NodeId) {
        if self.touch(view.observation(), u) {
            self.rescore(view, u);
        }
    }

    /// Defers `u`: its potential can only have fallen, so the cached
    /// value stays a valid upper bound.
    fn defer(&mut self, obs: &Observation, u: NodeId) {
        if self.touch(obs, u) {
            self.deferred[u.index()] = true;
        }
    }

    /// Emits the `decide` trace instant for a pick: the potential
    /// breakdown of the picked node, the exact runner-up, the margin
    /// between them, and the step's skip counts. Deferred candidates
    /// are evaluated read-only for the runner-up scan (their cached
    /// value is only an upper bound) and nothing is committed, so a
    /// traced run selects exactly as an untraced one. Only called while
    /// the track's gate is open, so the untraced select path pays one
    /// relaxed load and nothing else.
    fn emit_decide(&self, view: &AttackerView<'_>, picked: NodeId, requested_skips: u64) {
        let picked_potential = self.potential[picked.index()];
        let (q, p_d, p_i) = potential_parts(view, picked, self.weights);
        // Candidates come in increasing id order, so keeping the first
        // of equal potentials breaks ties toward the lowest id.
        let mut runner_up: Option<(f64, NodeId)> = None;
        for u in view.candidates() {
            if u == picked {
                continue;
            }
            let p = if self.deferred[u.index()] {
                self.potential_cached(view, u)
            } else {
                self.potential[u.index()]
            };
            if runner_up.is_none_or(|(best, _)| p.total_cmp(&best).is_gt()) {
                runner_up = Some((p, u));
            }
        }
        self.trace.instant(
            "decide",
            &[
                ("picked", TraceValue::U64(picked.index() as u64)),
                ("potential", TraceValue::F64(picked_potential)),
                ("q", TraceValue::F64(q)),
                ("p_d", TraceValue::F64(p_d)),
                ("p_i", TraceValue::F64(p_i)),
                ("w_d", TraceValue::F64(self.weights.direct())),
                ("w_i", TraceValue::F64(self.weights.indirect())),
                (
                    "runner_up",
                    match runner_up {
                        Some((_, u)) => TraceValue::I64(u.index() as i64),
                        None => TraceValue::I64(-1),
                    },
                ),
                (
                    "margin",
                    match runner_up {
                        Some((p, _)) => TraceValue::F64(picked_potential - p),
                        None => TraceValue::F64(picked_potential),
                    },
                ),
                ("stale_skips", TraceValue::U64(0)),
                ("requested_skips", TraceValue::U64(requested_skips)),
            ],
        );
    }

    /// Emits the `abm_observe` trace instant: how many dirty candidates
    /// this observation rescored or deferred.
    fn emit_observe(&self, target: NodeId, accepted: bool) {
        self.trace.instant(
            "abm_observe",
            &[
                ("target", TraceValue::U64(target.index() as u64)),
                ("accepted", TraceValue::Bool(accepted)),
                ("dirty", TraceValue::U64(self.touched as u64)),
            ],
        );
    }
}

/// Evaluates the ABM potential of candidate `u`.
///
/// The direct term walks the adjacency row once; the indirect term
/// scans the instance's precomputed cautious index
/// ([`AccuInstance::cautious_row`](crate::AccuInstance)), a flat CSR
/// slice of threshold-gated neighbors with cached `θ` and benefit gap
/// in the same adjacency order — so the two passes accumulate exactly
/// the same floating-point sums, in the same order, as the historical
/// single fused loop.
fn potential(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> f64 {
    let (q, direct, indirect) = potential_parts(view, u, w);
    if q == 0.0 {
        return 0.0;
    }
    q * (w.direct() * direct + w.indirect() * indirect)
}

/// The factors of the ABM potential, `(q, P_D, P_I)`, before the
/// weighted combination — what the `decide` trace event reports.
/// `(0, 0, 0)` when the acceptance belief is zero (the terms are never
/// evaluated, mirroring [`potential`]'s early exit, so the combined
/// value is bit-identical to the historical fused computation).
fn potential_parts(view: &AttackerView<'_>, u: NodeId, w: AbmWeights) -> (f64, f64, f64) {
    let obs = view.observation();
    let inst = view.instance();
    let benefits = inst.benefits();
    let q = view.acceptance_belief(u);
    if q == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let mut direct = benefits.friend(u)
        - if obs.is_friend_of_friend(u) {
            benefits.friend_of_friend(u)
        } else {
            0.0
        };
    for (v, e) in inst.graph().neighbor_entries(u) {
        if obs.is_friend(v) {
            continue; // v ∈ N(s): already delivers its benefit
        }
        let p = view.edge_belief(e);
        if p == 0.0 {
            continue;
        }
        if !obs.is_friend_of_friend(v) {
            direct += p * benefits.friend_of_friend(v);
        }
    }
    let mut indirect = 0.0;
    if w.indirect() > 0.0 {
        for entry in inst.cautious_row(u) {
            if obs.is_friend(entry.node) {
                continue;
            }
            let p = view.edge_belief(entry.edge);
            if p == 0.0 {
                continue;
            }
            // Skip cautious users that already rejected a request —
            // without re-requests their friend benefit is forfeited,
            // so pushing them toward the threshold has no value.
            if obs.was_requested(entry.node) {
                continue;
            }
            let mutual = obs.mutual_friends(entry.node);
            if entry.theta > mutual {
                indirect += p * entry.gap / (entry.theta - mutual) as f64;
            }
        }
    }
    (q, direct, indirect)
}

impl Policy for Abm {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let n = view.graph().node_count();
        let leaves = n.next_power_of_two();
        self.refill_fof_gain(view);
        // Fresh-episode fast path: with no requests recorded yet every
        // node is a candidate and the potentials depend only on the
        // instance, so the first reset's scores are replayed verbatim.
        let fresh = view.observation().requests().is_empty();
        let id = view.instance().instance_id();
        let cached = fresh
            && self
                .init_cache
                .as_ref()
                .is_some_and(|c| c.instance_id == id && c.potentials.len() == leaves);
        self.potential.clear();
        let candidates = if cached {
            let cache = self.init_cache.as_ref().expect("cache checked above");
            self.potential.extend_from_slice(&cache.potentials);
            n
        } else {
            self.potential.resize(leaves, f64::NEG_INFINITY);
            let mut candidates = 0;
            for u in view.candidates() {
                self.potential[u.index()] = self.potential_cached(view, u);
                candidates += 1;
            }
            if fresh {
                self.init_cache = Some(InitCache {
                    instance_id: id,
                    potentials: self.potential.clone(),
                });
            }
            candidates
        };
        self.deferred.clear();
        self.deferred.resize(n, false);
        if self.mark.len() != n {
            self.mark.clear();
            self.mark.resize(n, 0);
            self.epoch = 0;
        }
        self.tree.build(&self.potential);
        self.tel.heap_push.add(candidates as u64);
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        let obs = view.observation();
        let mut requested_skips = 0u64;
        loop {
            self.tree.repair(&self.potential);
            let top = self.tree.top();
            if self.potential[top] == f64::NEG_INFINITY {
                return None; // every leaf is empty
            }
            let u = NodeId::from(top);
            if obs.was_requested(u) {
                // Requested without an `observe` in between.
                self.tel.heap_pop.incr();
                self.tel.requested_skip.incr();
                requested_skips += 1;
                self.retire(u);
                continue;
            }
            if self.deferred[top] {
                // An upper bound on top: make it exact and retry. If it
                // did not move, the repair is a no-op and `u` wins again.
                self.rescore(view, u);
                continue;
            }
            self.tel.heap_pop.incr();
            self.tel.selects.incr();
            if self.trace.is_active() {
                self.emit_decide(view, u, requested_skips);
            }
            return Some(u);
        }
    }

    fn observe(
        &mut self,
        view: &AttackerView<'_>,
        target: NodeId,
        accepted: bool,
        newly_revealed: &[NodeId],
    ) {
        self.retire(target);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.touched = 0;
        let obs = view.observation();
        let inst = view.instance();
        let graph = view.graph();
        let indirect_on = self.weights.indirect() > 0.0;
        if !accepted {
            // A rejected threshold-gated user stops contributing
            // indirect value, so its neighbors' potentials fall. A
            // rejected reckless user changes nothing beyond leaving the
            // candidate set.
            if indirect_on && inst.is_cautious(target) {
                for &w in graph.neighbors(target) {
                    self.defer(obs, w);
                }
            }
            if self.trace.is_active() {
                self.emit_observe(target, accepted);
            }
            return;
        }
        // The target is now a friend and every newly revealed node a
        // friend-of-friend: their direct-term gains drop to zero.
        self.fof_gain[target.index()] = 0.0;
        for &v in newly_revealed {
            self.fof_gain[v.index()] = 0.0;
        }
        // Only newly revealed nodes gained a mutual friend. Rescore now
        // the potentials that can rise: a non-reckless revealed node's
        // `q`, and the neighbors of an unrequested threshold-gated node
        // still below its threshold (its `P_I` denominator shrank).
        for &v in newly_revealed {
            if !matches!(inst.user_class(v), UserClass::Reckless { .. }) {
                self.rescore_eager(view, v);
            }
            let mutual = obs.mutual_friends(v); // post-increment value
            let indirect_rises = indirect_on
                && inst
                    .threshold(v)
                    .is_some_and(|theta| !obs.was_requested(v) && theta > mutual);
            if indirect_rises {
                for &w in graph.neighbors(v) {
                    self.rescore_eager(view, w);
                }
            }
        }
        // Every other dirty node can only have fallen: the target's
        // neighbors lose its gain and its indirect term, a reckless
        // revealed node can at most have become a friend-of-friend, and
        // a revealed node's neighbors lose its gain when it just became
        // a friend-of-friend, or its indirect term when it just reached
        // its threshold.
        for &w in graph.neighbors(target) {
            self.defer(obs, w);
        }
        for &v in newly_revealed {
            self.defer(obs, v);
            let mutual = obs.mutual_friends(v);
            let fof_flip = mutual == 1 && !obs.is_friend(v);
            let indirect_ends = indirect_on
                && inst
                    .threshold(v)
                    .is_some_and(|theta| !obs.was_requested(v) && theta == mutual);
            if fof_flip || indirect_ends {
                for &w in graph.neighbors(v) {
                    self.defer(obs, w);
                }
            }
        }
        if self.trace.is_active() {
            self.emit_observe(target, accepted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_attack, AccuInstance, AccuInstanceBuilder, Observation, Realization, UserClass,
    };
    use osn_graph::{GraphBuilder, NodeId};

    /// Star: hub 0, leaves 1..=3; leaf 3 cautious (θ=1, B_f=50).
    fn star() -> AccuInstance {
        let g = GraphBuilder::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(1))
            .benefits(NodeId::new(3), 50.0, 1.0)
            .build()
            .unwrap()
    }

    fn full(inst: &AccuInstance) -> Realization {
        Realization::from_parts(
            inst,
            vec![true; inst.graph().edge_count()],
            vec![true; inst.node_count()],
        )
        .unwrap()
    }

    #[test]
    fn weights_constructors() {
        let w = AbmWeights::with_indirect(0.3);
        assert!((w.direct() - 0.7).abs() < 1e-12);
        assert!((w.indirect() - 0.3).abs() < 1e-12);
        let w = AbmWeights::new(-1.0, 2.0);
        assert_eq!(w.direct(), 0.0);
        assert_eq!(w.indirect(), 2.0);
        assert_eq!(AbmWeights::default(), AbmWeights::balanced());
    }

    #[test]
    fn potential_matches_hand_computation() {
        let inst = star();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        let abm = Abm::new(AbmWeights::new(1.0, 1.0));
        // Hub 0: q=1. P_D = B_f(0) + Σ_leaves B_fof = 2 + 3·1 = 5.
        // P_I = gap(3)/θ = 49.
        assert_eq!(abm.potential_of(&view, NodeId::new(0)), 54.0);
        // Leaf 1: P_D = 2 + B_fof(0) = 3; P_I = 0 (no cautious neighbor).
        assert_eq!(abm.potential_of(&view, NodeId::new(1)), 3.0);
        // Cautious 3 below threshold: q = 0 → potential 0.
        assert_eq!(abm.potential_of(&view, NodeId::new(3)), 0.0);
    }

    #[test]
    fn potential_uses_edge_beliefs() {
        let g = GraphBuilder::from_edges(2, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .user_class(NodeId::new(0), UserClass::reckless(0.4))
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        let abm = Abm::new(AbmWeights::new(1.0, 0.0));
        // q(0)=0.4, P_D = 2 + 0.5·1 = 2.5 → 1.0
        assert!((abm.potential_of(&view, NodeId::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abm_befriends_cautious_after_unlocking() {
        let inst = star();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let outcome = run_attack(&inst, &real, &mut abm, 2);
        // First pick: hub (highest potential). Second: cautious 3 with
        // threshold met and B_f = 50.
        let targets: Vec<NodeId> = outcome.trace.iter().map(|r| r.target).collect();
        assert_eq!(targets, vec![NodeId::new(0), NodeId::new(3)]);
        assert!(outcome.trace[1].accepted);
        assert_eq!(outcome.cautious_friends, 1);
        // 2 (hub) + 1+1+1 (fofs) + 49 (upgrade 3) = 54
        assert_eq!(outcome.total_benefit, 54.0);
    }

    #[test]
    fn pure_greedy_ignores_indirect_gain() {
        // Two components: hub A (0) with cautious high-value neighbor,
        // vs a slightly richer isolated reckless user.
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32)]).unwrap();
        let inst = AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(1), UserClass::cautious(1))
            .benefits(NodeId::new(1), 100.0, 1.0)
            .benefits(NodeId::new(2), 4.0, 1.0)
            .build()
            .unwrap();
        let obs = Observation::for_instance(&inst);
        let view = AttackerView::new(&inst, &obs);
        // Pure greedy scores 0 higher than 2? P_D(0) = 2 + 1 = 3 < 4.
        let greedy = crate::policy::pure_greedy();
        assert!(
            greedy.potential_of(&view, NodeId::new(2)) > greedy.potential_of(&view, NodeId::new(0))
        );
        // Balanced ABM prefers 0 thanks to indirect gain 99/2... θ=1 → 99.
        let abm = Abm::new(AbmWeights::balanced());
        assert!(abm.potential_of(&view, NodeId::new(0)) > abm.potential_of(&view, NodeId::new(2)));
    }

    /// Asserts the cache invariant behind the lazy evaluation: every
    /// candidate's cached potential equals a from-scratch evaluation,
    /// except a deferred one's, which may only exceed it. Returns the
    /// number of deferred candidates.
    fn assert_cache_bounds(abm: &Abm, view: &AttackerView<'_>) -> usize {
        let mut deferred = 0;
        for u in view.candidates() {
            let cached = abm.potential[u.index()];
            let exact = abm.potential_of(view, u);
            if abm.deferred[u.index()] {
                deferred += 1;
                assert!(
                    cached.total_cmp(&exact).is_ge(),
                    "deferred bound {cached} of {u} is below its potential {exact}"
                );
            } else {
                assert_eq!(cached, exact, "cached potential of {u} diverged");
            }
        }
        deferred
    }

    #[test]
    fn incremental_rescoring_matches_fresh_policy() {
        // After an acceptance, every eagerly rescored potential equals a
        // from-scratch evaluation and every deferred one bounds it from
        // above. Accepting the hub defers leaves 1 and 2 (reckless, so
        // their potentials can only fall) and rescores cautious leaf 3.
        let inst = star();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let mut obs = Observation::for_instance(&inst);
        {
            let view = AttackerView::new(&inst, &obs);
            abm.reset(&view);
        }
        let revealed = obs.record_acceptance(NodeId::new(0), &inst, &real);
        let view = AttackerView::new(&inst, &obs);
        abm.observe(&view, NodeId::new(0), true, &revealed);
        assert_eq!(assert_cache_bounds(&abm, &view), 2);
        assert!(!abm.deferred[3]);
        assert_eq!(abm.potential[3], abm.potential_of(&view, NodeId::new(3)));
    }

    #[test]
    fn cache_bounds_hold_through_whole_episodes() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut deferred_seen = 0;
        for seed in 0..6u64 {
            let inst = mixed_instance(seed);
            let real = Realization::sample(&inst, &mut StdRng::seed_from_u64(seed + 100));
            let mut abm = Abm::new(AbmWeights::with_indirect(0.3));
            let mut obs = Observation::for_instance(&inst);
            abm.reset(&AttackerView::new(&inst, &obs));
            for _ in 0..30 {
                let view = AttackerView::new(&inst, &obs);
                let Some(t) = abm.select(&view) else { break };
                let accepted = real.accepts_at(&inst, t, obs.mutual_friends(t));
                let revealed = if accepted {
                    obs.record_acceptance(t, &inst, &real)
                } else {
                    obs.record_rejection(t);
                    Vec::new()
                };
                let view = AttackerView::new(&inst, &obs);
                abm.observe(&view, t, accepted, &revealed);
                deferred_seen += assert_cache_bounds(&abm, &view);
            }
        }
        assert!(deferred_seen > 0, "no observation deferred a rescore");
    }

    /// A 60-node BA instance mixing all four user classes, with random
    /// edge priors; threshold-gated users carry a large benefit gap.
    fn mixed_instance(seed: u64) -> AccuInstance {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = osn_graph::generators::barabasi_albert(60, 3, &mut rng).unwrap();
        let m = g.edge_count();
        let mut builder = AccuInstanceBuilder::new(g)
            .edge_probabilities((0..m).map(|_| rng.gen_range(0.1..1.0)).collect());
        for i in 0..60usize {
            let v = NodeId::from(i);
            let class = match i % 7 {
                3 => UserClass::cautious(rng.gen_range(1..3)),
                5 => UserClass::hesitant(rng.gen_range(0.05..0.3), 0.9, rng.gen_range(1..4)),
                6 => UserClass::mutual_linear(rng.gen_range(0.0..0.3), 0.25),
                _ => UserClass::reckless(rng.gen_range(0.1..1.0)),
            };
            builder = builder.user_class(v, class);
            if class.is_cautious() {
                builder = builder.benefits(v, 50.0, 1.0);
            }
        }
        builder.build().unwrap()
    }

    #[test]
    fn incremental_matches_naive_full_rescan() {
        // The winner tree + deferred rescoring is an optimization only:
        // across all four user classes, several indirect weights and
        // episodes with rejections, the selected sequence must equal a
        // from-scratch argmax at every step, and no top is ever stale.
        struct NaiveAbm(Abm);
        impl Policy for NaiveAbm {
            fn name(&self) -> &str {
                "NaiveABM"
            }
            fn reset(&mut self, _: &AttackerView<'_>) {}
            fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
                view.candidates()
                    .map(|u| (self.0.potential_of(view, u), u))
                    .max_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(&a.1)))
                    .map(|(_, u)| u)
            }
        }
        use rand::{rngs::StdRng, SeedableRng};
        let recorder = accu_telemetry::Recorder::enabled();
        let mut gated_rejections = 0;
        for seed in 0..5u64 {
            let inst = mixed_instance(seed);
            let real = Realization::sample(&inst, &mut StdRng::seed_from_u64(seed + 100));
            for wi in [0.0, 0.3, 0.5] {
                let weights = AbmWeights::with_indirect(wi);
                let fast = run_attack(
                    &inst,
                    &real,
                    &mut Abm::with_recorder(weights, &recorder),
                    25,
                );
                let slow = run_attack(&inst, &real, &mut NaiveAbm(Abm::new(weights)), 25);
                let fast_targets: Vec<NodeId> = fast.trace.iter().map(|r| r.target).collect();
                let slow_targets: Vec<NodeId> = slow.trace.iter().map(|r| r.target).collect();
                assert_eq!(
                    fast_targets, slow_targets,
                    "seed {seed}, w_I {wi}: traces diverged"
                );
                assert_eq!(fast.total_benefit, slow.total_benefit);
                gated_rejections += fast
                    .trace
                    .iter()
                    .filter(|r| r.cautious && !r.accepted)
                    .count();
            }
        }
        assert!(
            gated_rejections > 0,
            "no threshold-gated rejection exercised"
        );
        let snap = recorder.snapshot("naive").unwrap();
        assert_eq!(snap.counter(abm_metrics::STALE_SKIP), Some(0));
        assert!(snap.counter(abm_metrics::SELECTS).unwrap() > 0);
    }

    #[test]
    fn select_returns_none_when_exhausted() {
        let g = GraphBuilder::from_edges(1, std::iter::empty::<(u32, u32)>()).unwrap();
        let inst = AccuInstanceBuilder::new(g).build().unwrap();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let outcome = run_attack(&inst, &real, &mut abm, 5);
        assert_eq!(outcome.trace.len(), 1); // only one candidate existed
    }

    #[test]
    fn telemetry_counters_are_consistent_with_tree_discipline() {
        use crate::simulator::sim_metrics;
        use accu_telemetry::Recorder;

        let inst = star();
        let real = full(&inst);
        let recorder = Recorder::enabled();
        let mut abm = Abm::with_recorder(AbmWeights::balanced(), &recorder);
        let outcome = crate::run_attack_recorded(&inst, &real, &mut abm, 2, &recorder);
        assert_eq!(outcome.requests_sent(), 2);

        let snap = recorder.snapshot("abm-test").unwrap();
        let count = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };

        // Every top taken is a select or a requested skip; the tree has
        // no stale entries to skip.
        assert_eq!(count(abm_metrics::STALE_SKIP), 0);
        assert_eq!(
            count(abm_metrics::HEAP_POP),
            count(abm_metrics::SELECTS)
                + count(abm_metrics::STALE_SKIP)
                + count(abm_metrics::REQUESTED_SKIP)
        );
        // One select per request actually sent by the simulator.
        assert_eq!(count(abm_metrics::SELECTS), count(sim_metrics::REQUESTS));
        assert_eq!(count(abm_metrics::SELECTS), 2);
        // reset() filled all four candidate leaves; rescoring only
        // updates a leaf whose potential actually changed.
        assert!(count(abm_metrics::HEAP_PUSH) >= 4);
        assert_eq!(
            count(abm_metrics::HEAP_PUSH),
            4 + count(abm_metrics::RESCORES_CHANGED)
        );
        assert!(count(abm_metrics::RESCORES) >= count(abm_metrics::RESCORES_CHANGED));
    }

    #[test]
    fn detached_abm_runs_without_recorder() {
        use accu_telemetry::Recorder;
        // Default construction must behave identically with the no-op
        // telemetry handles (covers the disabled fast path).
        let inst = star();
        let real = full(&inst);
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 2);
        let recorder = Recorder::disabled();
        let mut attached = Abm::with_recorder(AbmWeights::balanced(), &recorder);
        let recorded = crate::run_attack_recorded(&inst, &real, &mut attached, 2, &recorder);
        assert_eq!(plain.total_benefit, recorded.total_benefit);
        assert!(recorder.snapshot("none").is_none());
    }

    #[test]
    fn winner_tree_breaks_ties_toward_lowest_id() {
        let mut keys = vec![1.0, 2.0, 2.0, 0.5, 2.0, f64::NEG_INFINITY, 0.0, 0.0];
        let mut tree = WinnerTree::default();
        tree.build(&keys);
        assert_eq!(tree.top(), 1);
        keys[1] = 0.0;
        tree.update(1);
        tree.repair(&keys);
        assert_eq!(tree.top(), 2);
        keys[2] = f64::NEG_INFINITY;
        keys[7] = 3.0;
        tree.update(7);
        tree.update(2);
        tree.update(7);
        tree.repair(&keys);
        assert_eq!(tree.top(), 7);
        keys[7] = 2.0;
        tree.update(7);
        tree.repair(&keys);
        assert_eq!(tree.top(), 4);
        // A one-leaf tree is its own root.
        let mut single = WinnerTree::default();
        single.build(&[f64::NEG_INFINITY]);
        single.update(0);
        single.repair(&[f64::NEG_INFINITY]);
        assert_eq!(single.top(), 0);
    }
}
