//! Comparison baselines from paper §IV-A: MaxDegree, PageRank, Random.

use std::cmp::Reverse;

use osn_graph::algo::{pagerank, PageRankConfig};
use osn_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{AttackerView, Policy};

/// Baseline: iteratively request the not-yet-requested user with the
/// highest degree (ties toward the lower node id). The degree ranking
/// is computed once per instance and replayed in every episode.
///
/// # Examples
///
/// ```
/// use accu_core::policy::{MaxDegree, Policy};
/// assert_eq!(MaxDegree::new().name(), "MaxDegree");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MaxDegree {
    order: StaticOrder,
}

impl MaxDegree {
    /// Creates a MaxDegree baseline.
    pub fn new() -> Self {
        MaxDegree::default()
    }
}

impl Policy for MaxDegree {
    fn name(&self) -> &str {
        "MaxDegree"
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        self.order.reset(view, |g| {
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.sort_unstable_by_key(|&v| (Reverse(g.degree(v)), v));
            order
        });
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        self.order.next(view)
    }
}

/// Baseline: request users in descending PageRank order.
///
/// Scores are computed on the full topology (global knowledge, matching
/// the paper's use of it as an offline centrality baseline), once per
/// instance: later episodes on the same instance replay the ranking.
#[derive(Debug, Clone)]
pub struct PageRankPolicy {
    config: PageRankConfig,
    order: StaticOrder,
}

impl PageRankPolicy {
    /// Creates a PageRank baseline with the conventional damping 0.85.
    pub fn new() -> Self {
        Self::with_config(PageRankConfig::new())
    }

    /// Creates a PageRank baseline with a custom configuration.
    pub fn with_config(config: PageRankConfig) -> Self {
        PageRankPolicy {
            config,
            order: StaticOrder::default(),
        }
    }
}

impl Default for PageRankPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for PageRankPolicy {
    fn name(&self) -> &str {
        "PageRank"
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let config = &self.config;
        self.order
            .reset(view, |g| by_descending_score(g, &pagerank(g, config)));
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        self.order.next(view)
    }
}

/// The request order of a static-ranking baseline: ranked once per
/// instance and replayed by a cursor in every episode.
///
/// The ranking is keyed on `AccuInstance::instance_id`, which clones of
/// an instance share and every new build changes, so a policy reused
/// across episodes re-ranks only when the instance does.
#[derive(Debug, Clone, Default)]
pub(super) struct StaticOrder {
    /// Id of the instance `ranking` belongs to; 0 before the first rank.
    instance_id: u64,
    /// Every node, best first.
    ranking: Vec<NodeId>,
    /// Position of the next node to offer.
    cursor: usize,
}

impl StaticOrder {
    /// Rewinds to the top of the ranking, first calling `rank` (which
    /// returns every node, best first) if the view's instance is not the
    /// one ranked last.
    pub(super) fn reset(
        &mut self,
        view: &AttackerView<'_>,
        rank: impl FnOnce(&Graph) -> Vec<NodeId>,
    ) {
        let id = view.instance().instance_id();
        if self.instance_id != id {
            self.ranking = rank(view.graph());
            self.instance_id = id;
        }
        self.cursor = 0;
    }

    /// The best-ranked node not yet requested, or `None` once every
    /// node has been offered.
    pub(super) fn next(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        while let Some(&v) = self.ranking.get(self.cursor) {
            self.cursor += 1;
            if !view.observation().was_requested(v) {
                return Some(v);
            }
        }
        None
    }
}

/// Every node of `g` by descending `scores`, ties toward the lower id.
pub(super) fn by_descending_score(g: &Graph, scores: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_unstable_by(|&a, &b| {
        scores[b.index()]
            .total_cmp(&scores[a.index()])
            .then_with(|| a.cmp(&b))
    });
    order
}

/// Baseline: request uniformly random not-yet-requested users.
///
/// Deterministic given its seed; each [`reset`](Policy::reset) advances
/// to a fresh episode stream so repeated Monte-Carlo runs are
/// independent but reproducible.
#[derive(Debug, Clone)]
pub struct Random {
    seed: u64,
    episode: u64,
    rng: SmallRng,
}

impl Random {
    /// Creates a random baseline with the given base seed.
    pub fn new(seed: u64) -> Self {
        Random {
            seed,
            episode: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Policy for Random {
    fn name(&self) -> &str {
        "Random"
    }

    fn reset(&mut self, _view: &AttackerView<'_>) {
        self.episode += 1;
        // Split off an independent per-episode stream.
        self.rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_add(self.episode.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        // Reservoir-sample a uniform candidate in one pass.
        let mut chosen = None;
        for (seen, v) in view.candidates().enumerate() {
            if self.rng.gen_range(0..=seen) == 0 {
                chosen = Some(v);
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::policy::{CentralityKind, CentralityPolicy};
    use crate::{
        run_attack, AccuInstance, AccuInstanceBuilder, Observation, Realization, UserClass,
    };
    use osn_graph::generators::barabasi_albert;
    use osn_graph::GraphBuilder;
    use rand::rngs::StdRng;

    /// Hub 0 (degree 3), node 4 isolated, others leaves.
    fn instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(5, [(0u32, 1u32), (0, 2), (0, 3)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(3), UserClass::cautious(1))
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
    fn max_degree_requests_in_degree_order() {
        let inst = instance();
        let real = full(&inst);
        let mut p = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut p, 5);
        let targets: Vec<u32> = out.trace.iter().map(|r| r.target.as_u32()).collect();
        // Degrees: 0→3, 1/2/3→1, 4→0; ties by id.
        assert_eq!(targets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pagerank_prefers_the_hub() {
        let inst = instance();
        let real = full(&inst);
        let mut p = PageRankPolicy::new();
        let out = run_attack(&inst, &real, &mut p, 1);
        assert_eq!(out.trace[0].target, NodeId::new(0));
    }

    #[test]
    fn random_covers_all_candidates_without_repeats() {
        let inst = instance();
        let real = full(&inst);
        let mut p = Random::new(7);
        let out = run_attack(&inst, &real, &mut p, 5);
        let mut targets: Vec<u32> = out.trace.iter().map(|r| r.target.as_u32()).collect();
        targets.sort_unstable();
        assert_eq!(targets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn random_is_reproducible_but_varies_across_episodes() {
        let inst = instance();
        let real = full(&inst);
        let run = |p: &mut Random| {
            run_attack(&inst, &real, p, 5)
                .trace
                .iter()
                .map(|r| r.target.as_u32())
                .collect::<Vec<_>>()
        };
        let mut p1 = Random::new(7);
        let a = run(&mut p1);
        let b = run(&mut p1); // second episode: different stream
        let mut p2 = Random::new(7);
        let c = run(&mut p2); // same seed, first episode: same as `a`
        assert_eq!(a, c);
        // With 5! = 120 permutations a collision is possible but this
        // seed pair is checked to differ.
        assert_ne!(a, b);
    }

    /// Targets of one episode of `policy` on `inst` under `real`.
    fn targets(
        inst: &AccuInstance,
        real: &Realization,
        policy: &mut dyn Policy,
        k: usize,
    ) -> Vec<u32> {
        run_attack(inst, real, policy, k)
            .trace
            .iter()
            .map(|r| r.target.as_u32())
            .collect()
    }

    fn ba_instance(n: usize, m: usize, seed: u64) -> AccuInstance {
        let g = barabasi_albert(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        AccuInstanceBuilder::new(g)
            .uniform_edge_probability(0.5)
            .user_classes(vec![UserClass::reckless(0.5); n])
            .build()
            .unwrap()
    }

    #[test]
    fn static_rankings_replay_exactly_across_alternating_instances() {
        let a = ba_instance(80, 3, 1);
        let b = ba_instance(90, 2, 2);
        let a_clone = a.clone();
        // Repeats (rewind without re-ranking), switches (re-rank), and a
        // clone standing in for its original.
        let episodes: Vec<(&AccuInstance, Realization)> = [&a, &a_clone, &b, &b, &a, &b, &a_clone]
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                (
                    inst,
                    Realization::sample(inst, &mut StdRng::seed_from_u64(i as u64)),
                )
            })
            .collect();
        let fresh: Vec<fn() -> Box<dyn Policy>> = vec![
            || Box::new(MaxDegree::new()),
            || Box::new(PageRankPolicy::new()),
            || Box::new(CentralityPolicy::new(CentralityKind::Betweenness)),
            || Box::new(CentralityPolicy::new(CentralityKind::Closeness)),
            || Box::new(CentralityPolicy::new(CentralityKind::Eigenvector)),
        ];
        for make in fresh {
            let mut reused = make();
            for (inst, real) in &episodes {
                let want = targets(inst, real, make().as_mut(), 60);
                let got = targets(inst, real, reused.as_mut(), 60);
                assert_eq!(got, want, "{}", reused.name());
                assert_eq!(got.len(), 60);
            }
        }
    }

    #[test]
    fn static_order_reranks_only_for_a_new_build() {
        let a = ba_instance(40, 2, 3);
        let a_clone = a.clone();
        let a_rebuilt = ba_instance(40, 2, 3); // same parameters, new build
        let ranks = Cell::new(0);
        let mut order = StaticOrder::default();
        let mut reset = |inst: &AccuInstance| {
            let obs = Observation::for_instance(inst);
            order.reset(&AttackerView::new(inst, &obs), |g| {
                ranks.set(ranks.get() + 1);
                g.nodes().collect()
            });
        };
        reset(&a);
        assert_eq!(ranks.get(), 1);
        reset(&a);
        reset(&a_clone);
        assert_eq!(ranks.get(), 1, "a clone reuses the ranking");
        reset(&a_rebuilt);
        assert_eq!(ranks.get(), 2, "a new build re-ranks");
        reset(&a);
        assert_eq!(ranks.get(), 3);
    }

    #[test]
    fn policies_stop_when_candidates_are_exhausted() {
        let inst = instance();
        let real = full(&inst);
        {
            let policy = &mut MaxDegree::new() as &mut dyn Policy;
            let out = run_attack(&inst, &real, policy, 50);
            assert_eq!(out.trace.len(), 5);
        }
        let out = run_attack(&inst, &real, &mut PageRankPolicy::default(), 50);
        assert_eq!(out.trace.len(), 5);
        let out = run_attack(&inst, &real, &mut Random::new(1), 50);
        assert_eq!(out.trace.len(), 5);
    }
}
