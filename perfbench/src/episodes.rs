//! The two episode-engine workloads: `fixture_abm` (scalar engine on the
//! ~1.6k-node Twitter stand-in) and `ba1e5_abm` (batched engine on a
//! packed and reloaded 10⁵-node BA graph).

use std::path::Path;
use std::time::{Duration, Instant};

use accu_core::policy::{Abm, AbmWeights};
use accu_core::{
    run_attack, run_attack_episode, AccuInstance, BatchScratch, EpisodeScratch, FaultPlan, Policy,
    Realization, RetryPolicy,
};
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_telemetry::Recorder;
use osn_graph::generators;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::golden;
use crate::probe::{self, LayerClock, TimedPolicy};
use crate::report::{Metrics, Outcome};
use crate::setup::{self, Sampler, Stages, AUTO_LANES};
use crate::stats::{median, Summary};
use crate::Config;

/// Interval between the set-up samples taken during the timed section
/// of `fixture_abm`: ~6 ms each, so about 2% of the run.
const FIXTURE_SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// `fixture_abm`: the Twitter stand-in at scale 0.02 (seed 42, 20
/// cautious users — the fixture `bench_engine` has always used), ABM
/// balanced at k = 300, scalar engine on one thread. The seed drives the
/// episode stream.
pub fn fixture_abm(cfg: &Config) -> Result<Outcome, String> {
    let mut stages = Stages::default();
    let (setups, instance) = setup::repeat_setup(5, || fixture_instance(&mut stages))?;
    if cfg.trace {
        // The fixture is generated, not loaded; the store is timed on it
        // as a probe.
        let path = cfg.work.join("fixture.accg");
        setup::store_round_trip(instance.graph(), &path, &mut stages)?;
    }
    let sampler = Sampler::new(FIXTURE_SAMPLE_EVERY, setups, || {
        setup::seconds(|| fixture_instance(&mut Stages::default()))
    });
    drive(
        cfg,
        &instance,
        300,
        Engine::Scalar,
        sampler,
        &stages,
        &golden::FIXTURE_BENEFIT_BITS,
    )
}

fn fixture_instance(stages: &mut Stages) -> Result<AccuInstance, String> {
    let mut rng = StdRng::seed_from_u64(42);
    let spec = DatasetSpec::twitter().scaled(0.02);
    let graph = stages
        .time("graph.generate_ms", || spec.generate(&mut rng))
        .map_err(|e| format!("generation failed: {e}"))?;
    let protocol = ProtocolConfig {
        cautious_count: 20,
        ..ProtocolConfig::default()
    };
    setup::instance_from(graph, &protocol, &mut rng, stages)
}

/// Seed of the `ba1e5_abm` graph and protocol: `scale_sweep`'s default,
/// so the instance is its 10⁵-node tier.
const BA_SEED: u64 = 11;

/// Interval between the set-up samples of `ba1e5_abm`: ~0.4 s each, so
/// about 8% of the run.
const BA_SAMPLE_EVERY: Duration = Duration::from_secs(5);

/// `ba1e5_abm`: the BA graph with 10⁵ nodes (m = 8) of `scale_sweep`'s
/// first tier, packed to `.accg` and reloaded, the paper protocol
/// applied, then ABM balanced at k = 50 through `BatchScratch` at the
/// lanes `EngineMode::Auto` picks. The seed drives the episode stream.
pub fn ba1e5_abm(cfg: &Config) -> Result<Outcome, String> {
    let mut stages = Stages::default();
    let path = cfg.work.join("ba1e5.accg");
    let (setups, instance) = setup::repeat_setup(2, || ba_instance(&path, &mut stages))?;
    let sampler = Sampler::new(BA_SAMPLE_EVERY, setups, || {
        setup::seconds(|| ba_instance(&path, &mut Stages::default()))
    });
    drive(
        cfg,
        &instance,
        50,
        Engine::Batched(AUTO_LANES),
        sampler,
        &stages,
        &golden::BA1E5_BENEFIT_BITS,
    )
}

fn ba_instance(path: &Path, stages: &mut Stages) -> Result<AccuInstance, String> {
    let mut rng = StdRng::seed_from_u64(BA_SEED);
    let graph = stages
        .time("graph.generate_ms", || {
            generators::barabasi_albert(100_000, 8, &mut rng)
        })
        .map_err(|e| format!("generation failed: {e}"))?;
    let loaded = setup::store_round_trip(&graph, path, stages)?;
    drop(graph);
    let mut rng = StdRng::seed_from_u64(BA_SEED ^ 0xA5A5_5A5A_1234_8765);
    setup::instance_from(loaded, &ProtocolConfig::default(), &mut rng, stages)
}

/// How a workload samples realizations.
#[derive(Debug, Clone, Copy)]
enum Engine {
    /// `EpisodeScratch::prepare` + `Realization::sample_into` per episode.
    Scalar,
    /// `BatchScratch::sample_lanes` over this many lanes per block.
    Batched(usize),
}

/// Reused engine buffers (kept warm across windows).
enum Buffers {
    Scalar(Box<EpisodeScratch>),
    Batched(BatchScratch),
}

/// What one timed window produced.
#[derive(Debug, Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// `(episode seed, total-benefit bits)` of every episode.
    witnesses: Vec<(u64, u64)>,
    wall: Duration,
    /// Episode and sampling time; preparation is clocked apart from
    /// sampling only when the window is traced.
    clock: LayerClock,
}

impl Window {
    fn episodes_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall.as_secs_f64()
    }
}

/// Runs one block of episodes (one episode on the scalar engine, one
/// lane-width of them on the batched engine) and appends to `window`.
/// When `traced`, sampling and preparation are clocked separately.
#[allow(clippy::too_many_arguments)]
fn run_block(
    instance: &AccuInstance,
    budget: usize,
    buffers: &mut Buffers,
    policy: &mut dyn Policy,
    seeds: &[u64],
    traced: bool,
    window: &mut Window,
) {
    let plan = FaultPlan::none();
    let retry = RetryPolicy::give_up();
    let quiet = Recorder::disabled();
    match buffers {
        Buffers::Scalar(scratch) => {
            let seed = seeds[0];
            let t0 = Instant::now();
            scratch.prepare(instance);
            let t1 = traced.then(Instant::now);
            scratch
                .realization
                .sample_into(instance, &mut StdRng::seed_from_u64(seed));
            let t2 = traced.then(Instant::now);
            let benefit =
                run_attack_episode(instance, policy, budget, &plan, &retry, &quiet, scratch)
                    .total_benefit;
            let elapsed = t0.elapsed();
            if let (Some(t1), Some(t2)) = (t1, t2) {
                window.clock.reset_ns += probe::ns(t1 - t0);
                window.clock.sample_ns += probe::ns(t2 - t1);
            }
            window.clock.episode_ns += probe::ns(elapsed);
            window.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
            window.witnesses.push((seed, benefit.to_bits()));
        }
        Buffers::Batched(batch) => {
            let t0 = Instant::now();
            batch.sample_lanes(instance, seeds);
            let sampling = t0.elapsed();
            window.clock.sample_ns += probe::ns(sampling);
            window.clock.episode_ns += probe::ns(sampling);
            let share = sampling / seeds.len() as u32;
            for (lane, &seed) in seeds.iter().enumerate() {
                let t = Instant::now();
                let benefit = run_attack_episode(
                    instance,
                    policy,
                    budget,
                    &plan,
                    &retry,
                    &quiet,
                    batch.lane(lane),
                )
                .total_benefit;
                let elapsed = t.elapsed();
                window.clock.episode_ns += probe::ns(elapsed);
                window
                    .latencies_ms
                    .push((elapsed + share).as_secs_f64() * 1e3);
                window.witnesses.push((seed, benefit.to_bits()));
            }
        }
    }
}

impl Engine {
    /// Lanes per block and fresh buffers for this engine.
    fn buffers(self) -> (usize, Buffers) {
        match self {
            Engine::Scalar => (1, Buffers::Scalar(Box::default())),
            Engine::Batched(lanes) => (lanes, Buffers::Batched(BatchScratch::new(lanes))),
        }
    }
}

/// Runs blocks until `seconds` of episode time have passed (at least one
/// block), taking the set-up samples that fall due between blocks; their
/// time is kept out of the window's wall.
#[allow(clippy::too_many_arguments)]
fn run_window(
    instance: &AccuInstance,
    budget: usize,
    buffers: &mut Buffers,
    lanes: usize,
    policy: &mut dyn Policy,
    stream: &mut StdRng,
    sampler: &mut Sampler,
    seconds: f64,
    traced: bool,
) -> Result<Window, String> {
    // Sized up front so the traced window's allocation count is the
    // program's, not this bookkeeping's.
    let mut window = Window {
        latencies_ms: Vec::with_capacity(1 << 16),
        witnesses: Vec::with_capacity(1 << 16),
        ..Window::default()
    };
    let mut seeds = vec![0u64; lanes];
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    loop {
        seeds.iter_mut().for_each(|s| *s = stream.gen());
        run_block(
            instance,
            budget,
            buffers,
            policy,
            &seeds,
            traced,
            &mut window,
        );
        paused += sampler.sample_if_due()?;
        if (start.elapsed() - paused).as_secs_f64() >= seconds {
            break;
        }
    }
    window.wall = start.elapsed() - paused;
    window.clock.episodes = window.latencies_ms.len() as u64;
    Ok(window)
}

/// Runs as many episodes as `golden` holds on the measured path — fresh
/// buffers and a fresh policy, episode stream seeded with
/// [`golden::WITNESS_SEED`] whatever `--seed` is — and returns how many
/// differ in total-benefit bits from the recorded values.
fn check_golden(instance: &AccuInstance, budget: usize, engine: Engine, golden: &[u64]) -> u64 {
    let (lanes, mut buffers) = engine.buffers();
    let mut abm = Abm::new(AbmWeights::balanced());
    let mut stream = StdRng::seed_from_u64(golden::WITNESS_SEED);
    let mut window = Window::default();
    let mut seeds = vec![0u64; lanes];
    while window.witnesses.len() < golden.len() {
        seeds.iter_mut().for_each(|s| *s = stream.gen());
        run_block(
            instance,
            budget,
            &mut buffers,
            &mut abm,
            &seeds,
            false,
            &mut window,
        );
    }
    let got: Vec<u64> = window.witnesses.iter().map(|&(_, bits)| bits).collect();
    let failed = golden.iter().zip(&got).filter(|(g, b)| g != b).count() as u64;
    if failed > 0 {
        eprintln!(
            "perfbench: {failed} of {} golden episodes differ; total-benefit bits now {:#018x?}",
            golden.len(),
            &got[..golden.len()]
        );
    }
    failed
}

/// Re-runs up to `max` evenly spaced episodes of `windows` through the
/// allocating reference path (`Realization::sample` + `run_attack` with
/// a fresh policy). Returns how many were checked and how many differ in
/// total-benefit bits.
fn verify(instance: &AccuInstance, budget: usize, windows: &[&Window], max: usize) -> (u64, u64) {
    let all: Vec<(u64, u64)> = windows
        .iter()
        .flat_map(|w| w.witnesses.iter().copied())
        .collect();
    let step = all.len().div_ceil(max).max(1);
    let checked = all.len().div_ceil(step) as u64;
    let failed = all
        .iter()
        .step_by(step)
        .filter(|&&(seed, bits)| {
            let realization = Realization::sample(instance, &mut StdRng::seed_from_u64(seed));
            let mut fresh = Abm::new(AbmWeights::balanced());
            run_attack(instance, &realization, &mut fresh, budget)
                .total_benefit
                .to_bits()
                != bits
        })
        .count() as u64;
    (checked, failed)
}

/// Times one episode workload after its set-up: untraced for the whole
/// run, or (traced) an untraced half followed by a traced half. Both
/// halves take set-up samples from `sampler`.
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &Config,
    instance: &AccuInstance,
    budget: usize,
    engine: Engine,
    mut sampler: Sampler,
    stages: &Stages,
    golden: &[u64],
) -> Result<Outcome, String> {
    let (lanes, mut buffers) = engine.buffers();
    println!(
        "instance: {} nodes, {} edges, {} cautious · k = {budget} · {}",
        instance.node_count(),
        instance.graph().edge_count(),
        instance.cautious_users().len(),
        match engine {
            Engine::Scalar => "scalar engine".to_string(),
            Engine::Batched(l) => format!("batched engine, {l} lanes"),
        }
    );
    println!("set-up stages (ms, median): {}", stages.describe());
    let mut abm = Abm::new(AbmWeights::balanced());
    let mut stream = StdRng::seed_from_u64(cfg.seed);
    // Warm-up: size the buffers and the policy's per-instance caches.
    run_window(
        instance,
        budget,
        &mut buffers,
        lanes,
        &mut abm,
        &mut stream,
        &mut sampler,
        0.0,
        false,
    )?;

    let mut m = Metrics::default();
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = run_window(
        instance,
        budget,
        &mut buffers,
        lanes,
        &mut abm,
        &mut stream,
        &mut sampler,
        untraced_s,
        false,
    )?;
    let setup_s = median(sampler.times());
    println!(
        "setup_s {setup_s:.5} s (median of {} set-ups)",
        sampler.times().len()
    );
    let mut windows = vec![plain];
    report_window("untraced", &windows[0]);
    if cfg.trace {
        let recorder = Recorder::enabled();
        abm.attach_recorder(&recorder);
        probe::arm_alloc_counter();
        let mut timed = TimedPolicy::new(&mut abm);
        let traced = run_window(
            instance,
            budget,
            &mut buffers,
            lanes,
            &mut timed,
            &mut stream,
            &mut sampler,
            cfg.seconds / 2.0,
            true,
        );
        let allocs = probe::disarm_alloc_counter();
        let traced = traced?;
        report_window("traced", &traced);
        // The window clocked sampling and preparation; the wrapper
        // clocked the policy calls.
        let clock = LayerClock {
            reset_ns: traced.clock.reset_ns + timed.clock.reset_ns,
            select_ns: timed.clock.select_ns,
            select_calls: timed.clock.select_calls,
            notify_ns: timed.clock.notify_ns,
            notify_calls: timed.clock.notify_calls,
            ..traced.clock
        };
        clock.write(&mut m);
        m.set(
            "core.allocs_per_episode",
            allocs as f64 / clock.episodes.max(1) as f64,
        );
        let snapshot = recorder.snapshot("abm").expect("enabled recorder");
        probe::write_abm_ratios(&snapshot, clock.notify_calls, &mut m);
        stages.write(&mut m);
        setup::sampling_probe(&[instance], cfg.seed, &mut m);
        let (untraced_eps, traced_eps) = (windows[0].episodes_per_s(), traced.episodes_per_s());
        let overhead = 100.0 * (untraced_eps - traced_eps) / untraced_eps;
        m.set("trace.overhead_pct", overhead);
        println!(
            "tracing overhead: episodes_per_s {untraced_eps:.3} untraced vs {traced_eps:.3} \
             traced ({overhead:.2}%)"
        );
        probe::print_layers(&m);
        windows.push(traced);
    }

    let refs: Vec<&Window> = windows.iter().collect();
    let max_checks = match engine {
        Engine::Scalar => 32,
        Engine::Batched(_) => 4,
    };
    let (checked, differ) = verify(instance, budget, &refs, max_checks);
    let golden_failed = check_golden(instance, budget, engine, golden);
    let failed = differ + golden_failed;
    let attempted: u64 = windows
        .iter()
        .map(|w| w.latencies_ms.len() as u64)
        .sum::<u64>()
        + golden.len() as u64;
    let rss = probe::peak_rss_mib()?;
    m.set("setup_s", setup_s);
    m.set("episodes_per_s", windows[0].episodes_per_s());
    m.set("peak_rss_mib", rss);
    println!("peak_rss_mib {rss:.1} MiB");
    println!(
        "error_rate {} ({differ} of {checked} re-run episodes differ from the reference path; \
         {golden_failed} of {} golden episodes differ from the recorded values; \
         {attempted} episodes attempted)",
        failed as f64 / attempted as f64,
        golden.len(),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

fn report_window(label: &str, w: &Window) {
    let s = Summary::of(&w.latencies_ms).expect("a window runs at least one block");
    println!(
        "{label}: wall_s {:.3} s · episodes_per_s {:.3} 1/s · episode_ms {}",
        w.wall.as_secs_f64(),
        w.episodes_per_s(),
        s.describe("ms")
    );
}
