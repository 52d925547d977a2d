//! Timed calls into the set-up layers (generators, the `.accg` store,
//! the parameter protocol, the validator) and the sampling probe that
//! times both episode engines on the same instance.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use accu_core::{validate_instance, AccuInstance, BatchScratch, EpisodeScratch};
use accu_datasets::{apply_protocol, ProtocolConfig};
use osn_graph::{store, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Metrics;
use crate::stats::median;

/// Episode lanes `EngineMode::Auto` gives instances of 4096 nodes or
/// more: the batched engine's width on the large workloads.
pub const AUTO_LANES: usize = 8;

/// Durations (ms) of each set-up stage, one entry per call.
#[derive(Debug, Default)]
pub struct Stages(BTreeMap<&'static str, Vec<f64>>);

impl Stages {
    /// Runs `f`, recording its duration under `stage`.
    pub fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0
            .entry(stage)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Median duration of `stage` in ms.
    pub fn median_ms(&self, stage: &str) -> Option<f64> {
        self.0.get(stage).map(|v| median(v))
    }

    /// Writes the median of every stage as the per-layer metric of the
    /// same name.
    pub fn write(&self, m: &mut Metrics) {
        for stage in self.0.keys() {
            m.set(stage, self.median_ms(stage).expect("recorded stage"));
        }
    }

    /// One report line: each stage's median.
    pub fn describe(&self) -> String {
        self.0
            .iter()
            .map(|(stage, v)| format!("{stage} {:.3}", median(v)))
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

/// Repeats a set-up `reps` times (at least once); returns each run's
/// seconds and the last run's product.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return Ok((times, built));
        }
        drop(built); // free it before the next build
    }
}

/// Set-up repeats taken between units of timed work, at most one per
/// `every`, so that the samples spread over the whole run: set-up time
/// drifts with host contention over seconds to minutes, and samples
/// taken at one moment carry that moment's contention. Callers that
/// sample between units of timed work keep the time a sample takes out
/// of their timed walls.
pub struct Sampler<'a> {
    every: Duration,
    next: Instant,
    times: Vec<f64>,
    build: Box<dyn FnMut() -> Result<f64, String> + 'a>,
}

impl<'a> Sampler<'a> {
    /// A sampler that starts from `times` (an initial burst); `build`
    /// performs one set-up, drops or parks what it built, and returns
    /// the set-up's seconds.
    pub fn new(
        every: Duration,
        times: Vec<f64>,
        build: impl FnMut() -> Result<f64, String> + 'a,
    ) -> Self {
        Sampler {
            every,
            next: Instant::now() + every,
            times,
            build: Box::new(build),
        }
    }

    /// Repeats the set-up once if one is due; returns the time spent
    /// (zero when none was due).
    pub fn sample_if_due(&mut self) -> Result<Duration, String> {
        let t = Instant::now();
        if t < self.next {
            return Ok(Duration::ZERO);
        }
        self.times.push((self.build)()?);
        self.next = Instant::now() + self.every;
        Ok(t.elapsed())
    }

    /// Seconds of every set-up taken so far.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// Seconds one call of `build` takes; its product is dropped.
pub fn seconds<T>(build: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
    let t = Instant::now();
    build()?;
    Ok(t.elapsed().as_secs_f64())
}

/// Applies the paper protocol to `graph` and validates the result,
/// timing both calls.
pub fn instance_from(
    graph: Graph,
    protocol: &ProtocolConfig,
    rng: &mut StdRng,
    stages: &mut Stages,
) -> Result<AccuInstance, String> {
    let instance = stages
        .time("protocol.apply_ms", || apply_protocol(graph, protocol, rng))
        .map_err(|e| format!("protocol failed: {e}"))?;
    // Violations are the runner's to repair; only the scan is timed.
    let _ = stages.time("core.validate_ms", || validate_instance(&instance));
    Ok(instance)
}

/// Packs `graph` to an `.accg` file at `path` and reloads it through the
/// trusted loader, timing both.
pub fn store_round_trip(graph: &Graph, path: &Path, stages: &mut Stages) -> Result<Graph, String> {
    stages
        .time("store.pack_ms", || store::write_graph_file(path, graph))
        .map_err(|e| format!("cannot pack {}: {e}", path.display()))?;
    stages
        .time("store.load_ms", || store::read_graph_file_trusted(path))
        .map_err(|e| format!("cannot reload {}: {e}", path.display()))
}

/// Times realization sampling on `instances` through both engines —
/// scalar `Realization::sample_into` and `BatchScratch::sample_lanes`
/// at [`AUTO_LANES`] lanes — over the same seeds, and writes the mean
/// per-episode microseconds as `core.sample_scalar_us` and
/// `core.sample_batch_us`.
pub fn sampling_probe(instances: &[&AccuInstance], seed: u64, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A4D_504C_4552_0001);
    let (mut scalar_ns, mut batch_ns, mut episodes) = (0u128, 0u128, 0usize);
    for inst in instances {
        // About 2·10⁷ elements sampled per engine and instance.
        let elements = inst.node_count() + inst.graph().edge_count();
        let blocks = (20_000_000 / (elements * AUTO_LANES).max(1)).clamp(1, 64);
        let seeds: Vec<u64> = (0..blocks * AUTO_LANES).map(|_| rng.gen()).collect();

        let mut scratch = EpisodeScratch::new();
        let mut scalar = |s: u64| {
            scratch.prepare(inst);
            scratch
                .realization
                .sample_into(inst, &mut StdRng::seed_from_u64(s));
            std::hint::black_box(&scratch.realization);
        };
        scalar(seeds[0]);
        let t = Instant::now();
        seeds.iter().for_each(|&s| scalar(s));
        scalar_ns += t.elapsed().as_nanos();

        let mut batch = BatchScratch::new(AUTO_LANES);
        batch.sample_lanes(inst, &seeds[..AUTO_LANES]);
        let t = Instant::now();
        for block in seeds.chunks(AUTO_LANES) {
            batch.sample_lanes(inst, block);
            std::hint::black_box(&batch.lane(0).realization);
        }
        batch_ns += t.elapsed().as_nanos();
        episodes += seeds.len();
    }
    let per_episode_us = |total: u128| total as f64 / episodes.max(1) as f64 / 1e3;
    m.set("core.sample_scalar_us", per_episode_us(scalar_ns));
    m.set("core.sample_batch_us", per_episode_us(batch_ns));
}
