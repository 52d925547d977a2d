//! The adaptive attack simulator.
//!
//! Drives a [`Policy`] against a fixed [`Realization`]: each step the
//! policy picks a target, the simulator resolves the request (sampled
//! acceptance for reckless users, deterministic threshold check for
//! cautious users), updates the observation and benefit state, and
//! notifies the policy.
//!
//! The faulted variants additionally run the episode under a
//! pre-sampled [`FaultPlan`] — transient failures the attacker may
//! retry under a [`RetryPolicy`], silent response drops, rate-limit
//! windows and account suspension — while keeping the zero-fault path
//! bit-for-bit identical to the plain simulator.

use accu_telemetry::{CounterHandle, HistogramHandle, Recorder, TraceTrack, TraceValue};
use osn_graph::NodeId;

use crate::fault::{fault_metrics, FaultPlan, FaultSummary, RetryPolicy};
use crate::scratch::{EpisodeScratch, SimScratch};
use crate::{
    AccuError, AccuInstance, AttackerView, MarginalGain, Observation, Policy, Realization,
};

/// Well-known simulator metric names (see [`run_attack_recorded`]).
pub mod sim_metrics {
    /// Episodes simulated.
    pub const EPISODES: &str = "sim.episodes";
    /// Requests sent (= trace length summed over episodes).
    pub const REQUESTS: &str = "sim.requests";
    /// Requests accepted.
    pub const ACCEPTED: &str = "sim.accepted";
    /// Requests rejected.
    pub const REJECTED: &str = "sim.rejected";
    /// Requests sent to cautious users.
    pub const CAUTIOUS_REQUESTS: &str = "sim.cautious_requests";
    /// Cautious users that accepted (the "cautious hit" counter).
    pub const CAUTIOUS_ACCEPTED: &str = "sim.cautious_accepted";
    /// Wall-clock nanoseconds spent in `Policy::select` per request.
    pub const SELECT_NS: &str = "sim.select_ns";
    /// Wall-clock nanoseconds resolving a request (acceptance draw,
    /// observation and benefit update) per request.
    pub const RESOLVE_NS: &str = "sim.resolve_ns";
    /// Wall-clock nanoseconds spent in `Policy::observe` per request.
    pub const NOTIFY_NS: &str = "sim.notify_ns";
    /// Wall-clock nanoseconds per full episode.
    pub const EPISODE_NS: &str = "sim.episode_ns";
}

/// Pre-fetched handles for the simulator's metrics; all no-ops when the
/// recorder is disabled.
struct SimTelemetry {
    episodes: CounterHandle,
    requests: CounterHandle,
    accepted: CounterHandle,
    rejected: CounterHandle,
    cautious_requests: CounterHandle,
    cautious_accepted: CounterHandle,
    select_ns: HistogramHandle,
    resolve_ns: HistogramHandle,
    notify_ns: HistogramHandle,
    episode_ns: HistogramHandle,
}

impl SimTelemetry {
    fn new(recorder: &Recorder) -> Self {
        SimTelemetry {
            episodes: recorder.counter(sim_metrics::EPISODES),
            requests: recorder.counter(sim_metrics::REQUESTS),
            accepted: recorder.counter(sim_metrics::ACCEPTED),
            rejected: recorder.counter(sim_metrics::REJECTED),
            cautious_requests: recorder.counter(sim_metrics::CAUTIOUS_REQUESTS),
            cautious_accepted: recorder.counter(sim_metrics::CAUTIOUS_ACCEPTED),
            select_ns: recorder.histogram(sim_metrics::SELECT_NS),
            resolve_ns: recorder.histogram(sim_metrics::RESOLVE_NS),
            notify_ns: recorder.histogram(sim_metrics::NOTIFY_NS),
            episode_ns: recorder.histogram(sim_metrics::EPISODE_NS),
        }
    }
}

/// Handles for the fault counters, fetched only when the episode's
/// plan can actually inject faults — a fault-free run never registers
/// (or pays for) them.
struct FaultTelemetry {
    injected: CounterHandle,
    transient: CounterHandle,
    dropped: CounterHandle,
    rate_limited: CounterHandle,
    retry_budget: CounterHandle,
    truncated: CounterHandle,
}

impl FaultTelemetry {
    fn new(recorder: &Recorder) -> Self {
        FaultTelemetry {
            injected: recorder.counter(fault_metrics::INJECTED),
            transient: recorder.counter(fault_metrics::TRANSIENT),
            dropped: recorder.counter(fault_metrics::DROPPED),
            rate_limited: recorder.counter(fault_metrics::RATE_LIMITED),
            retry_budget: recorder.counter(fault_metrics::RETRY_BUDGET),
            truncated: recorder.counter(fault_metrics::TRUNCATED),
        }
    }

    fn record(&self, summary: &FaultSummary) {
        self.injected.add(summary.faults_seen() as u64);
        self.transient.add(summary.transient_failures as u64);
        self.dropped.add(summary.dropped_responses as u64);
        self.rate_limited.add(summary.rate_limited_slots as u64);
        self.retry_budget.add(summary.retries_spent as u64);
        if summary.truncated_at.is_some() {
            self.truncated.incr();
        }
    }
}

/// One request in an attack trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// 0-based request index.
    pub step: usize,
    /// The targeted user.
    pub target: NodeId,
    /// Whether the target is cautious.
    pub cautious: bool,
    /// Whether the request was accepted.
    pub accepted: bool,
    /// Whether this request went unanswered because of an injected
    /// fault (transient failures exhausted retries, or the response was
    /// dropped). A faulted request is never `accepted`.
    pub faulted: bool,
    /// Marginal benefit of this request, split by source class.
    pub gain: MarginalGain,
    /// Benefit accumulated up to and including this request.
    pub cumulative_benefit: f64,
}

/// Full result of one attack episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackOutcome {
    /// Per-request records, in order.
    pub trace: Vec<RequestRecord>,
    /// Final total benefit `f(π, φ)`.
    pub total_benefit: f64,
    /// Users that accepted, in acceptance order.
    pub friends: Vec<NodeId>,
    /// Number of cautious users among the friends.
    pub cautious_friends: usize,
    /// Fault accounting for the episode (all-zero on the fault-free
    /// path).
    pub faults: FaultSummary,
}

impl AttackOutcome {
    /// Number of requests actually sent.
    pub fn requests_sent(&self) -> usize {
        self.trace.len()
    }

    /// Cumulative benefit after each request (length = requests sent).
    pub fn benefit_curve(&self) -> Vec<f64> {
        self.trace.iter().map(|r| r.cumulative_benefit).collect()
    }
}

/// Resolves a friend request to `target`: evaluates the realization's
/// acceptance draw against the target's acceptance curve at the observed
/// mutual-friend count (which by construction equals the true realized
/// count `|N(v) ∩ N(s)|`).
///
/// Covers every user class uniformly: a constant curve for reckless
/// users, the 0/1 threshold step for cautious users, the two-level step
/// for hesitant users, and the rising line for linear-acceptance users.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn resolve_acceptance(
    instance: &AccuInstance,
    observation: &Observation,
    realization: &Realization,
    target: NodeId,
) -> bool {
    realization.accepts_at(instance, target, observation.mutual_friends(target))
}

/// Runs `policy` against `realization` with a budget of `k` requests.
///
/// Stops early if the policy returns `None` (e.g. every user has been
/// requested). Cautious acceptances are resolved against the attacker's
/// observed mutual-friend count, which by construction equals the true
/// realized count `|N(v) ∩ N(s)|`.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
) -> AttackOutcome {
    attack_core(
        instance,
        instance,
        realization,
        policy,
        k,
        &FaultPlan::none(),
        &RetryPolicy::give_up(),
        &Recorder::disabled(),
    )
}

/// [`run_attack`] with telemetry: per-request select/resolve/notify
/// span timing and request/acceptance/cautious-hit counters recorded
/// into `recorder` under the [`sim_metrics`] names.
///
/// With a disabled recorder this is exactly [`run_attack`]: every
/// metric handle is a no-op and the clock is never read.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_recorded(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    recorder: &Recorder,
) -> AttackOutcome {
    attack_core(
        instance,
        instance,
        realization,
        policy,
        k,
        &FaultPlan::none(),
        &RetryPolicy::give_up(),
        recorder,
    )
}

/// Runs `policy` under the fault realization `plan`: transient failures
/// retried per `retry`, dropped responses, rate-limit waits and
/// suspension truncation, all paid out of the same budget `k`.
///
/// With a trivial plan ([`FaultPlan::none`]) this is bit-for-bit
/// [`run_attack`]. Because the plan is indexed by budget slot, every
/// policy evaluated against the same plan faces the identical fault
/// sequence — the paired-comparison property the experiments rely on.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_faulted(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> AttackOutcome {
    attack_core(
        instance,
        instance,
        realization,
        policy,
        k,
        plan,
        retry,
        &Recorder::disabled(),
    )
}

/// [`run_attack_faulted`] with telemetry: in addition to the
/// [`sim_metrics`], fault events land in `recorder` under the
/// [`fault_metrics`](crate::fault::fault_metrics) names.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
#[allow(clippy::too_many_arguments)]
pub fn run_attack_faulted_recorded(
    instance: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
) -> AttackOutcome {
    attack_core(
        instance,
        instance,
        realization,
        policy,
        k,
        plan,
        retry,
        recorder,
    )
}

/// How a request attempt at one budget slot resolved.
enum AttemptFate {
    /// The request went through; resolve acceptance normally.
    Resolved,
    /// The request went unanswered (retries exhausted or response
    /// dropped); the attacker writes the target off.
    Unanswered,
    /// Suspension struck while handling the target; episode over.
    Suspended(usize),
}

/// Runs one attack episode entirely inside `scratch`: the caller
/// samples `scratch.realization` first (see
/// [`Realization::sample_into`]), then this reuses every per-episode
/// buffer — observation, benefit state, revealed list, trace and
/// friend list — so steady-state episodes allocate nothing.
///
/// Behaviorally identical (bit-for-bit, including telemetry) to
/// [`run_attack_faulted_recorded`] on the same realization; the
/// returned reference points at `scratch`'s outcome slot, valid until
/// the next episode run in the same scratch.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_episode<'s>(
    instance: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
    scratch: &'s mut EpisodeScratch,
) -> &'s AttackOutcome {
    run_attack_episode_traced(
        instance,
        policy,
        k,
        plan,
        retry,
        recorder,
        &TraceTrack::disabled(),
        scratch,
    )
}

/// [`run_attack_episode`] additionally emitting per-request trace
/// events into `track` when its sampling gate is open:
///
/// * `request{step, target, cautious, theta, mutual, accepted, faulted,
///   gain, cum_benefit}` after every resolved or written-off request;
/// * `cautious_progress{node, mutual, theta}` for each threshold-gated
///   user whose observed mutual-friend count an acceptance just bumped.
///
/// With a disabled (or gated-off) track this is exactly
/// [`run_attack_episode`]: the guard is a branch on `None` plus one
/// relaxed atomic load, with no allocation — the zero-alloc episode
/// invariant holds (asserted by the `zero_alloc` bench test).
///
/// The outcome is lent mutably, so a caller that keeps every outcome
/// can `std::mem::take` it rather than clone it; the next episode on
/// `scratch` then allocates its buffers afresh.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
#[allow(clippy::too_many_arguments)]
pub fn run_attack_episode_traced<'s>(
    instance: &AccuInstance,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
    track: &TraceTrack,
    scratch: &'s mut EpisodeScratch,
) -> &'s mut AttackOutcome {
    attack_core_traced(
        instance,
        instance,
        &scratch.realization,
        policy,
        k,
        plan,
        retry,
        recorder,
        track,
        &mut scratch.sim,
    );
    &mut scratch.sim.outcome
}

/// The shared attack loop: the policy sees `believed`, requests resolve
/// and benefit accrues on `truth` (the two are the same instance for
/// the plain attack). Budget is consumed per *slot*: fault-free, one
/// slot per request; under faults, failed attempts, backoff waits and
/// rate-limit pauses burn slots too.
///
/// Allocates a fresh scratch per call; the reuse path is
/// [`run_attack_episode`].
#[allow(clippy::too_many_arguments)]
fn attack_core(
    truth: &AccuInstance,
    believed: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
) -> AttackOutcome {
    let mut sim = SimScratch::new();
    attack_core_traced(
        truth,
        believed,
        realization,
        policy,
        k,
        faults,
        retry,
        recorder,
        &TraceTrack::disabled(),
        &mut sim,
    );
    sim.outcome
}

/// [`attack_core`] writing every episode artifact into `scratch` in
/// place instead of allocating, and emitting per-request trace events
/// into `track` when its sampling gate is open.
#[allow(clippy::too_many_arguments)]
fn attack_core_traced(
    truth: &AccuInstance,
    believed: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    faults: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
    track: &TraceTrack,
    scratch: &mut SimScratch,
) {
    let tel = SimTelemetry::new(recorder);
    // Only register fault counters when faults can actually occur, so
    // fault-free telemetry output is unchanged.
    let ftel = if faults.is_trivial() {
        None
    } else {
        Some(FaultTelemetry::new(recorder))
    };
    let episode_span = tel.episode_ns.span();
    let SimScratch {
        observation,
        benefit,
        revealed,
        outcome,
    } = scratch;
    observation.reset_for(truth);
    benefit.reset_for(truth);
    policy.reset(&AttackerView::new(believed, observation));
    let trace = &mut outcome.trace;
    trace.clear();
    trace.reserve(k);
    let mut summary = FaultSummary::default();
    let mut slot = 0usize;
    'episode: while slot < k {
        if faults.suspended(slot) {
            summary.truncated_at = Some(slot);
            break;
        }
        if faults.rate_limited(slot) {
            summary.rate_limited_slots += 1;
            slot += 1;
            continue;
        }
        let selected = {
            let _span = tel.select_ns.span();
            policy.select(&AttackerView::new(believed, observation))
        };
        let target = match selected {
            Some(t) => t,
            None => break,
        };
        assert!(
            !observation.was_requested(target),
            "policy {} re-selected node {target}",
            policy.name()
        );
        // Attempt loop: burn slots until the request resolves, goes
        // unanswered, or the account dies. Fault-free this runs exactly
        // once and consumes exactly one slot.
        let mut attempt: u32 = 0;
        let fate = loop {
            if faults.suspended(slot) {
                break AttemptFate::Suspended(slot);
            }
            if faults.transient(slot) {
                summary.transient_failures += 1;
                slot += 1; // the failed attempt consumed its slot
                if attempt < retry.max_retries && slot < k {
                    attempt += 1;
                    let backoff = retry.backoff(attempt).min(k - slot);
                    // The backoff wait plus the upcoming re-send are
                    // budget spent purely on retrying.
                    summary.retries_spent += backoff + 1;
                    slot += backoff;
                    continue;
                }
                break AttemptFate::Unanswered;
            }
            if faults.dropped(slot) {
                summary.dropped_responses += 1;
                slot += 1;
                break AttemptFate::Unanswered;
            }
            slot += 1;
            break AttemptFate::Resolved;
        };
        revealed.clear();
        let (accepted, faulted, gain) = match fate {
            AttemptFate::Suspended(s) => {
                summary.truncated_at = Some(s);
                break 'episode;
            }
            AttemptFate::Resolved => {
                let resolve_span = tel.resolve_ns.span();
                let accepted = resolve_acceptance(truth, observation, realization, target);
                let gain = if accepted {
                    observation.record_acceptance_into(target, truth, realization, revealed);
                    benefit.add_friend(truth, realization, target)
                } else {
                    observation.record_rejection(target);
                    MarginalGain::default()
                };
                resolve_span.finish();
                (accepted, false, gain)
            }
            // Unanswered: the target never (observably) decided. The
            // attacker cannot distinguish silence from rejection and
            // writes the target off; no benefit accrues and no resolve
            // span is timed (nothing was resolved).
            AttemptFate::Unanswered => {
                observation.record_rejection(target);
                (false, true, MarginalGain::default())
            }
        };
        let cautious = truth.is_cautious(target);
        tel.requests.incr();
        if cautious {
            tel.cautious_requests.incr();
        }
        if accepted {
            tel.accepted.incr();
            if cautious {
                tel.cautious_accepted.incr();
            }
        } else {
            tel.rejected.incr();
        }
        trace.push(RequestRecord {
            step: trace.len(),
            target,
            cautious,
            accepted,
            faulted,
            gain,
            cumulative_benefit: benefit.total(),
        });
        // Causal trace: one `request` instant per record (the payload
        // carries the exact cumulative benefit, so a replayer can
        // reconstruct the episode's total bit-for-bit), plus a
        // `cautious_progress` instant for every threshold-gated user an
        // acceptance just moved closer to its threshold. Guarded so the
        // untraced path does no extra work at all.
        if track.is_active() {
            track.instant(
                "request",
                &[
                    ("step", TraceValue::U64((trace.len() - 1) as u64)),
                    ("target", TraceValue::U64(target.index() as u64)),
                    ("cautious", TraceValue::Bool(cautious)),
                    (
                        "theta",
                        match truth.threshold(target) {
                            Some(theta) => TraceValue::I64(i64::from(theta)),
                            None => TraceValue::I64(-1),
                        },
                    ),
                    (
                        "mutual",
                        TraceValue::U64(u64::from(observation.mutual_friends(target))),
                    ),
                    ("accepted", TraceValue::Bool(accepted)),
                    ("faulted", TraceValue::Bool(faulted)),
                    ("gain", TraceValue::F64(gain.total())),
                    ("cum_benefit", TraceValue::F64(benefit.total())),
                ],
            );
            for &v in revealed.iter() {
                if let Some(theta) = truth.threshold(v) {
                    track.instant(
                        "cautious_progress",
                        &[
                            ("node", TraceValue::U64(v.index() as u64)),
                            (
                                "mutual",
                                TraceValue::U64(u64::from(observation.mutual_friends(v))),
                            ),
                            ("theta", TraceValue::U64(u64::from(theta))),
                        ],
                    );
                }
            }
        }
        {
            let _span = tel.notify_ns.span();
            policy.observe(
                &AttackerView::new(believed, observation),
                target,
                accepted,
                revealed,
            );
        }
    }
    tel.episodes.incr();
    if let Some(ftel) = &ftel {
        ftel.record(&summary);
    }
    episode_span.finish();
    outcome.total_benefit = benefit.total();
    outcome.friends.clear();
    outcome.friends.extend_from_slice(observation.friends());
    outcome.cautious_friends = benefit.cautious_friend_count();
    outcome.faults = summary;
}

/// Runs `policy` under *model mismatch*: the policy sees the `believed`
/// instance (possibly wrong probabilities, thresholds or benefits) while
/// requests are resolved and benefit is collected on the `truth`
/// instance. Measures the robustness of knowledge-driven policies to
/// estimation noise — the paper assumes exact parameter knowledge.
///
/// # Errors
///
/// Returns [`AccuError::TopologyMismatch`] if the two instances do not
/// share a graph.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_with_beliefs(
    truth: &AccuInstance,
    believed: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
) -> Result<AttackOutcome, AccuError> {
    run_attack_with_beliefs_recorded(
        truth,
        believed,
        realization,
        policy,
        k,
        &Recorder::disabled(),
    )
}

/// [`run_attack_with_beliefs`] with telemetry recorded into `recorder`
/// under the [`sim_metrics`] names.
///
/// # Errors
///
/// Returns [`AccuError::TopologyMismatch`] if the two instances do not
/// share a graph.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
pub fn run_attack_with_beliefs_recorded(
    truth: &AccuInstance,
    believed: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    recorder: &Recorder,
) -> Result<AttackOutcome, AccuError> {
    check_topology(truth, believed)?;
    Ok(attack_core(
        truth,
        believed,
        realization,
        policy,
        k,
        &FaultPlan::none(),
        &RetryPolicy::give_up(),
        recorder,
    ))
}

/// [`run_attack_with_beliefs_recorded`] under a fault realization —
/// model mismatch and platform faults composed.
///
/// # Errors
///
/// Returns [`AccuError::TopologyMismatch`] if the two instances do not
/// share a graph.
///
/// # Panics
///
/// Panics if the policy selects an already-requested node.
#[allow(clippy::too_many_arguments)]
pub fn run_attack_with_beliefs_faulted_recorded(
    truth: &AccuInstance,
    believed: &AccuInstance,
    realization: &Realization,
    policy: &mut dyn Policy,
    k: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    recorder: &Recorder,
) -> Result<AttackOutcome, AccuError> {
    check_topology(truth, believed)?;
    Ok(attack_core(
        truth,
        believed,
        realization,
        policy,
        k,
        plan,
        retry,
        recorder,
    ))
}

fn check_topology(truth: &AccuInstance, believed: &AccuInstance) -> Result<(), AccuError> {
    if truth.graph() != believed.graph() {
        return Err(AccuError::TopologyMismatch {
            truth: (truth.node_count(), truth.graph().edge_count()),
            believed: (believed.node_count(), believed.graph().edge_count()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RateLimit;
    use crate::policy::{Abm, AbmWeights, MaxDegree};
    use crate::{AccuInstanceBuilder, FaultConfig, UserClass};
    use osn_graph::GraphBuilder;

    /// Path 0 - 1 - 2; node 2 cautious with θ = 1, B_f = 10.
    fn path_instance() -> AccuInstance {
        let g = GraphBuilder::from_edges(3, [(0u32, 1u32), (1, 2)]).unwrap();
        AccuInstanceBuilder::new(g)
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .benefits(NodeId::new(2), 10.0, 1.0)
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
    fn trace_is_consistent() {
        let inst = path_instance();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack(&inst, &real, &mut abm, 3);
        assert_eq!(out.trace.len(), 3);
        // Steps are sequential; cumulative benefit is non-decreasing and
        // matches the sum of gains.
        let mut acc = 0.0;
        for (i, r) in out.trace.iter().enumerate() {
            assert_eq!(r.step, i);
            assert!(!r.faulted);
            acc += r.gain.total();
            assert!((r.cumulative_benefit - acc).abs() < 1e-12);
        }
        assert_eq!(out.total_benefit, acc);
        assert_eq!(out.friends.len(), 3);
        assert!(out.faults.is_clean());
    }

    #[test]
    fn cautious_rejected_below_threshold() {
        let inst = path_instance();
        let real = full(&inst);
        // MaxDegree requests 1 first (degree 2)... then 0 and 2 (degree 1,
        // tie toward lower id). Node 2's request comes when 1 is already a
        // friend → accepted. Force rejection instead by giving node 2 no
        // unlocked path: use budget 1 on a policy that targets 2 first.
        struct Fixed(Vec<NodeId>);
        impl Policy for Fixed {
            fn name(&self) -> &str {
                "Fixed"
            }
            fn reset(&mut self, _: &AttackerView<'_>) {}
            fn select(&mut self, _: &AttackerView<'_>) -> Option<NodeId> {
                self.0.pop()
            }
        }
        let mut fixed = Fixed(vec![NodeId::new(2)]);
        let out = run_attack(&inst, &real, &mut fixed, 1);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.total_benefit, 0.0);
        assert_eq!(out.cautious_friends, 0);
    }

    #[test]
    fn reckless_rejections_follow_realization() {
        let inst = path_instance();
        let real =
            Realization::from_parts(&inst, vec![true, true], vec![false, true, false]).unwrap();
        let mut md = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut md, 3);
        // Order: 1 (deg 2, accepts), 0 (deg 1, rejects), 2 (cautious,
        // mutual = 1 ≥ θ, accepts).
        assert!(out.trace[0].accepted);
        assert!(!out.trace[1].accepted);
        assert!(out.trace[2].accepted);
        assert_eq!(out.cautious_friends, 1);
        // Benefit: B_f(1)=2 + B_fof(0)+B_fof(2)=2, then upgrade 2: +9.
        assert_eq!(out.total_benefit, 13.0);
        assert_eq!(out.benefit_curve(), vec![4.0, 4.0, 13.0]);
    }

    #[test]
    fn correct_beliefs_reproduce_the_plain_attack() {
        let inst = path_instance();
        let real = full(&inst);
        let mut abm1 = Abm::new(AbmWeights::balanced());
        let mut abm2 = Abm::new(AbmWeights::balanced());
        let plain = run_attack(&inst, &real, &mut abm1, 3);
        let believed = run_attack_with_beliefs(&inst, &inst, &real, &mut abm2, 3).unwrap();
        assert_eq!(plain, believed);
    }

    #[test]
    fn wrong_beliefs_change_decisions_but_not_ground_truth() {
        // Believed: node 2's friend benefit is tiny, so ABM deprioritizes
        // it; truth still pays the real B_f on acceptance.
        let inst = path_instance();
        let real = full(&inst);
        let believed = AccuInstanceBuilder::new(inst.graph().clone())
            .user_class(NodeId::new(2), UserClass::cautious(1))
            .benefits(NodeId::new(2), 1.2, 1.0)
            .build()
            .unwrap();
        let mut abm = Abm::new(AbmWeights::balanced());
        let out = run_attack_with_beliefs(&inst, &believed, &real, &mut abm, 3).unwrap();
        // All three users still end up friends (budget covers everyone)
        // and the collected benefit uses the TRUE value of node 2.
        assert_eq!(out.friends.len(), 3);
        assert_eq!(out.total_benefit, 2.0 + 2.0 + 10.0 + 0.0); // B_f sums; fofs upgraded
    }

    #[test]
    fn mismatched_topologies_yield_typed_error() {
        let inst = path_instance();
        let other = AccuInstanceBuilder::new(GraphBuilder::from_edges(3, [(0u32, 1u32)]).unwrap())
            .build()
            .unwrap();
        let real = full(&inst);
        let mut abm = Abm::new(AbmWeights::balanced());
        let err = run_attack_with_beliefs(&inst, &other, &real, &mut abm, 1).unwrap_err();
        assert_eq!(
            err,
            AccuError::TopologyMismatch {
                truth: (3, 2),
                believed: (3, 1),
            }
        );
        assert!(err.to_string().contains("share a topology"));
    }

    #[test]
    fn recorded_attack_matches_plain_and_counts_every_request() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 3);
        let recorded =
            run_attack_recorded(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 3, &rec);
        assert_eq!(plain, recorded, "telemetry must not change behavior");
        let snap = rec.snapshot("test").unwrap();
        assert_eq!(snap.counter(sim_metrics::EPISODES), Some(1));
        assert_eq!(snap.counter(sim_metrics::REQUESTS), Some(3));
        assert_eq!(
            snap.counter(sim_metrics::ACCEPTED),
            Some(recorded.friends.len() as u64)
        );
        assert_eq!(
            snap.counter(sim_metrics::REJECTED).unwrap()
                + snap.counter(sim_metrics::ACCEPTED).unwrap(),
            snap.counter(sim_metrics::REQUESTS).unwrap()
        );
        assert_eq!(
            snap.counter(sim_metrics::CAUTIOUS_ACCEPTED),
            Some(recorded.cautious_friends as u64)
        );
        // Every request was timed through all three stages.
        for h in [
            sim_metrics::SELECT_NS,
            sim_metrics::RESOLVE_NS,
            sim_metrics::NOTIFY_NS,
        ] {
            assert_eq!(snap.histogram(h).unwrap().count, 3, "{h} span count");
        }
        assert_eq!(snap.histogram(sim_metrics::EPISODE_NS).unwrap().count, 1);
        // The fault-free path never registers fault counters.
        assert_eq!(snap.counter(fault_metrics::INJECTED), None);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_changes_nothing() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::disabled();
        let out = run_attack_recorded(&inst, &real, &mut MaxDegree::new(), 3, &rec);
        assert_eq!(out.trace.len(), 3);
        assert!(rec.snapshot("x").is_none());
    }

    #[test]
    fn recorded_beliefs_variant_counts_too() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let out = run_attack_with_beliefs_recorded(
            &inst,
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            2,
            &rec,
        )
        .unwrap();
        let snap = rec.snapshot("beliefs").unwrap();
        assert_eq!(
            snap.counter(sim_metrics::REQUESTS),
            Some(out.requests_sent() as u64)
        );
    }

    #[test]
    fn budget_zero_sends_nothing() {
        let inst = path_instance();
        let real = full(&inst);
        let mut md = MaxDegree::new();
        let out = run_attack(&inst, &real, &mut md, 0);
        assert!(out.trace.is_empty());
        assert_eq!(out.total_benefit, 0.0);
        assert_eq!(out.requests_sent(), 0);
    }

    #[test]
    fn trivial_plan_reproduces_plain_attack_exactly() {
        let inst = path_instance();
        let real = full(&inst);
        let plain = run_attack(&inst, &real, &mut Abm::new(AbmWeights::balanced()), 3);
        let faulted = run_attack_faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            3,
            &FaultPlan::none(),
            &RetryPolicy::standard(),
        );
        assert_eq!(plain, faulted);
        let sampled_trivial = FaultPlan::sample(&FaultConfig::none(), 7, 3);
        let faulted2 = run_attack_faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            3,
            &sampled_trivial,
            &RetryPolicy::standard(),
        );
        assert_eq!(plain, faulted2);
    }

    #[test]
    fn transient_failure_retries_and_succeeds() {
        let inst = path_instance();
        let real = full(&inst);
        // Slot 0 fails; retry with backoff 1 re-sends at slot 2, which
        // succeeds. Budget 4 leaves one slot for a second request.
        let plan = FaultPlan::from_parts(vec![true, false, false, false], Vec::new(), None, None);
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base: 1,
            backoff_cap: 4,
            jitter_pct: 0,
        };
        let out = run_attack_faulted(&inst, &real, &mut MaxDegree::new(), 4, &plan, &retry);
        // MaxDegree targets node 1 first; the retry succeeds, then one
        // more slot remains for node 0.
        assert_eq!(out.trace.len(), 2);
        assert!(out.trace[0].accepted);
        assert!(!out.trace[0].faulted);
        assert_eq!(out.faults.transient_failures, 1);
        assert_eq!(out.faults.retries_spent, 2); // 1 backoff + 1 re-send
        assert_eq!(out.faults.truncated_at, None);
    }

    #[test]
    fn transient_failure_without_retry_writes_target_off() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(vec![true, false, false], Vec::new(), None, None);
        let out = run_attack_faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            &RetryPolicy::give_up(),
        );
        // Node 1's request is lost; nodes 0 and 2 still get requested.
        assert_eq!(out.trace.len(), 3);
        assert!(out.trace[0].faulted);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.trace[0].target, NodeId::new(1));
        assert_eq!(out.faults.transient_failures, 1);
        assert_eq!(out.faults.retries_spent, 0);
        // Without the hub friend, the cautious node 2 has no mutual
        // friends and rejects.
        assert_eq!(out.cautious_friends, 0);
    }

    #[test]
    fn dropped_response_consumes_budget_without_benefit() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(Vec::new(), vec![true, false, false], None, None);
        let out = run_attack_faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            &RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 3);
        assert!(out.trace[0].faulted);
        assert!(!out.trace[0].accepted);
        assert_eq!(out.faults.dropped_responses, 1);
        // Drops are not retried: the attacker saw silence, not an error.
        assert_eq!(out.faults.retries_spent, 0);
        assert_eq!(out.trace[0].gain, MarginalGain::default());
    }

    #[test]
    fn suspension_truncates_the_episode() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(Vec::new(), Vec::new(), Some(2), None);
        let out = run_attack_faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            3,
            &plan,
            &RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.faults.truncated_at, Some(2));
        assert_eq!(out.requests_sent(), 2);
    }

    #[test]
    fn rate_limit_burns_slots() {
        let inst = path_instance();
        let real = full(&inst);
        let plan = FaultPlan::from_parts(
            Vec::new(),
            Vec::new(),
            None,
            Some(RateLimit {
                window: 1,
                pause: 1,
            }),
        );
        // Budget 4, pattern: request, wait, request, wait.
        let out = run_attack_faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            4,
            &plan,
            &RetryPolicy::standard(),
        );
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.faults.rate_limited_slots, 2);
        assert_eq!(out.faults.faults_seen(), 2);
    }

    #[test]
    fn faulted_recorded_counts_fault_events() {
        let inst = path_instance();
        let real = full(&inst);
        let rec = Recorder::enabled();
        let plan =
            FaultPlan::from_parts(vec![true, false, false, false], Vec::new(), Some(3), None);
        let out = run_attack_faulted_recorded(
            &inst,
            &real,
            &mut MaxDegree::new(),
            4,
            &plan,
            &RetryPolicy::give_up(),
            &rec,
        );
        let snap = rec.snapshot("faults").unwrap();
        assert_eq!(
            snap.counter(fault_metrics::TRANSIENT),
            Some(out.faults.transient_failures as u64)
        );
        assert_eq!(snap.counter(fault_metrics::TRUNCATED), Some(1));
        assert_eq!(
            snap.counter(fault_metrics::INJECTED),
            Some(out.faults.faults_seen() as u64)
        );
    }

    #[test]
    fn same_plan_for_every_policy_is_paired() {
        let inst = path_instance();
        let real = full(&inst);
        let cfg = FaultConfig::scaled(1.0);
        let plan = FaultPlan::sample(&cfg, 11, 6);
        let a = run_attack_faulted(
            &inst,
            &real,
            &mut MaxDegree::new(),
            6,
            &plan,
            &RetryPolicy::standard(),
        );
        let b = run_attack_faulted(
            &inst,
            &real,
            &mut Abm::new(AbmWeights::balanced()),
            6,
            &plan,
            &RetryPolicy::standard(),
        );
        // Same fault realization: rate-limit and suspension slots agree
        // regardless of the policy's choices.
        assert_eq!(a.faults.rate_limited_slots, b.faults.rate_limited_slots);
        assert_eq!(
            a.faults.truncated_at.is_some(),
            b.faults.truncated_at.is_some()
        );
    }
}
