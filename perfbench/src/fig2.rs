//! `fig2_quick`: the whole of Fig. 2 at quick scale, the path
//! researchers run — 4 datasets × the paper lineup × 3 networks × 3
//! runs at k = 300 through `run_policy_with` with `EngineMode::Auto`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use accu_core::AccuInstance;
use accu_datasets::{DatasetSpec, ProtocolConfig};
use accu_experiments::chart::Chart;
use accu_experiments::output::{downsample_indices, series_table};
use accu_experiments::{
    run_policy_with, Cli, EngineMode, ExperimentScale, FigureRun, PolicyKind, RunOptions,
};
use accu_telemetry::{read_journal, Journal, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::golden;
use crate::probe;
use crate::report::{Metrics, Outcome};
use crate::setup::{self, Sampler, Stages};
use crate::stats::{median, Summary};
use crate::Config;

/// One figure pass: every cell, then what the `fig2` binary renders per
/// dataset (chart, sampled table, full CSV).
#[derive(Debug)]
struct Pass {
    wall: Duration,
    /// `(dataset, policy, seconds)` per `run_policy_with` call.
    cells: Vec<(String, &'static str, f64)>,
    /// FNV-1a digest of each dataset's CSV, in dataset order.
    digests: Vec<u64>,
    /// Per dataset: whether every cell ran without error or quarantine.
    clean: Vec<bool>,
    episodes: u64,
}

/// Recorders for a traced pass: ABM cells and the baselines report
/// separately, so the ABM counters are read against ABM's own calls.
struct Recorders {
    abm: Recorder,
    rest: Recorder,
}

impl Recorders {
    fn disabled() -> Self {
        Recorders {
            abm: Recorder::disabled(),
            rest: Recorder::disabled(),
        }
    }
}

fn run_pass(figures: &[FigureRun], engine: EngineMode, recorders: &Recorders) -> Pass {
    let start = Instant::now();
    let mut pass = Pass {
        wall: Duration::ZERO,
        cells: Vec::new(),
        digests: Vec::new(),
        clean: Vec::new(),
        episodes: 0,
    };
    for figure in figures {
        let mut series = Vec::new();
        let mut clean = true;
        for policy in PolicyKind::paper_lineup() {
            let recorder = match policy {
                PolicyKind::Abm { .. } => &recorders.abm,
                _ => &recorders.rest,
            };
            let t = Instant::now();
            let result = run_policy_with(
                figure,
                policy,
                RunOptions {
                    recorder: recorder.clone(),
                    max_workers: Some(WORKERS),
                    engine,
                    ..RunOptions::default()
                },
            );
            let secs = t.elapsed().as_secs_f64();
            pass.cells
                .push((figure.dataset.name().to_string(), policy.name(), secs));
            match result {
                Ok(report) => {
                    for failure in &report.quarantined {
                        eprintln!("perfbench: {}: {failure}", figure.dataset.name());
                    }
                    clean &= report.quarantined.is_empty();
                    pass.episodes += report.accumulator.runs() as u64;
                    series.push((policy.name(), report.accumulator.mean_cumulative_benefit()));
                }
                Err(e) => {
                    eprintln!(
                        "perfbench: {} {}: {e}",
                        figure.dataset.name(),
                        policy.name()
                    );
                    clean = false;
                    series.push((policy.name(), vec![0.0; figure.budget]));
                }
            }
        }
        let csv = render(figure.budget, &series);
        pass.digests.push(golden::fnv1a64(csv.as_bytes()));
        pass.clean.push(clean);
    }
    pass.wall = start.elapsed();
    pass
}

/// The per-dataset output work of the `fig2` binary, returned as the
/// full-resolution CSV it writes; the chart and table are rendered and
/// dropped instead of printed.
fn render(budget: usize, series: &[(&str, Vec<f64>)]) -> String {
    let pick = |idx: &[usize]| -> (Vec<f64>, Vec<(&str, Vec<f64>)>) {
        let xs = idx.iter().map(|&i| (i + 1) as f64).collect();
        let ys = series
            .iter()
            .map(|(name, ys)| (*name, idx.iter().map(|&i| ys[i]).collect()))
            .collect();
        (xs, ys)
    };
    let (xs, sampled) = pick(&downsample_indices(budget, 64));
    let mut chart = Chart::new(&xs).size(64, 16).labels("requests k", "benefit");
    for (name, ys) in &sampled {
        chart = chart.series(name, ys);
    }
    std::hint::black_box(chart.render());
    let (txs, tsampled) = pick(&downsample_indices(budget, 20));
    std::hint::black_box(series_table("k", &txs, &tsampled).render());
    let (full_xs, full) = pick(&(0..budget).collect::<Vec<_>>());
    series_table("k", &full_xs, &full).to_csv_string()
}

/// Runs passes until `seconds` of pass time have passed (at least
/// one), taking the set-up samples that fall due between passes.
fn run_window(
    figures: &[FigureRun],
    seconds: f64,
    recorders: &Recorders,
    sampler: &mut Sampler,
) -> Result<Vec<Pass>, String> {
    let mut passes = Vec::new();
    let mut elapsed = 0.0;
    loop {
        let pass = run_pass(figures, EngineMode::Auto, recorders);
        elapsed += pass.wall.as_secs_f64();
        passes.push(pass);
        sampler.sample_if_due()?;
        if elapsed >= seconds {
            return Ok(passes);
        }
    }
}

/// Median over the passes of each pass's episodes per second, so that a
/// pass slowed by a burst of host contention does not move the figure.
fn episodes_per_s(passes: &[Pass]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.episodes as f64 / p.wall.as_secs_f64())
        .collect();
    median(&rates)
}

fn figure_ms(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect()
}

fn report_window(label: &str, passes: &[Pass]) {
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let s = Summary::of(&figure_ms(passes)).expect("at least one pass");
    println!(
        "{label}: wall_s {wall:.3} s · {} passes · episodes_per_s {:.3} 1/s · figure_ms {}",
        passes.len(),
        episodes_per_s(passes),
        s.describe("ms")
    );
}

/// Network 0 of every figure (the runner seeds network 0's stream with
/// the figure seed itself), with the paper protocol applied.
fn network_zero(figures: &[FigureRun], stages: &mut Stages) -> Result<Vec<AccuInstance>, String> {
    figures
        .iter()
        .map(|figure| {
            let mut rng = StdRng::seed_from_u64(figure.seed);
            let graph = stages
                .time("graph.generate_ms", || figure.dataset.generate(&mut rng))
                .map_err(|e| format!("{}: generation failed: {e}", figure.dataset.name()))?;
            setup::instance_from(graph, &figure.protocol, &mut rng, stages)
        })
        .collect()
}

/// Fig. 2 at quick scale with figure seed `seed`.
fn quick_figures(seed: u64) -> (ExperimentScale, Vec<FigureRun>) {
    let scale = ExperimentScale::from_cli(&Cli {
        seed,
        ..Cli::default()
    });
    let figures = DatasetSpec::all_paper_datasets()
        .into_iter()
        .map(|d| scale.figure_run(d, ProtocolConfig::default()))
        .collect();
    (scale, figures)
}

/// Runner workers. One: with two or more, a pass on a host whose cores
/// are shared with other tenants measures how often both workers get a
/// core at once, and the throughput of runs of the same code spread by
/// more than a quarter.
const WORKERS: usize = 1;

/// Interval between the set-up samples taken between passes: at most
/// one per pass (~2.6 s), each ~60 ms.
const SAMPLE_EVERY: Duration = Duration::from_secs(1);

pub fn fig2_quick(cfg: &Config) -> Result<Outcome, String> {
    let (scale, figures) = quick_figures(cfg.seed);
    println!(
        "{} · {WORKERS} worker(s) · EngineMode::Auto",
        scale.describe()
    );

    // Set-up: network 0 of every dataset, built through the public calls
    // the runner makes; more samples are taken between passes.
    let mut stages = Stages::default();
    let (setups, instances) = setup::repeat_setup(5, || network_zero(&figures, &mut stages))?;
    println!("set-up stages (ms, median): {}", stages.describe());
    let mut sampler = Sampler::new(SAMPLE_EVERY, setups, || {
        setup::seconds(|| network_zero(&figures, &mut Stages::default()))
    });

    // Warm-up pass: thread pools, page cache, lazy statics.
    run_pass(&figures, EngineMode::Auto, &Recorders::disabled());

    let mut m = Metrics::default();
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = run_window(&figures, untraced_s, &Recorders::disabled(), &mut sampler)?;
    let setup_s = median(sampler.times());
    println!(
        "setup_s {setup_s:.5} s (median of {} set-ups)",
        sampler.times().len()
    );
    report_window("untraced", &plain);
    let mut traced = Vec::new();
    if cfg.trace {
        let recorders = Recorders {
            abm: Recorder::enabled(),
            rest: Recorder::enabled(),
        };
        probe::arm_alloc_counter();
        let window = run_window(&figures, cfg.seconds / 2.0, &recorders, &mut sampler);
        let allocs = probe::disarm_alloc_counter();
        traced = window?;
        report_window("traced", &traced);
        let abm = recorders.abm.snapshot("abm").expect("enabled recorder");
        let rest = recorders.rest.snapshot("rest").expect("enabled recorder");
        let clock = probe::runner_clock(&[&abm, &rest]);
        clock.write(&mut m);
        m.set(
            "core.allocs_per_episode",
            allocs as f64 / clock.episodes.max(1) as f64,
        );
        let abm_notifies = probe::runner_clock(&[&abm]).notify_calls;
        probe::write_abm_ratios(&abm, abm_notifies, &mut m);
        for (i, instance) in instances.iter().enumerate() {
            let path = cfg.work.join(format!("fig2-{i}.accg"));
            setup::store_round_trip(instance.graph(), &path, &mut stages)?;
        }
        stages.write(&mut m);
        let refs: Vec<_> = instances.iter().collect();
        setup::sampling_probe(&refs, cfg.seed, &mut m);
        let overhead =
            100.0 * (episodes_per_s(&plain) - episodes_per_s(&traced)) / episodes_per_s(&plain);
        m.set("trace.overhead_pct", overhead);
        println!(
            "tracing overhead: episodes_per_s {:.3} untraced vs {:.3} traced ({overhead:.2}%)",
            episodes_per_s(&plain),
            episodes_per_s(&traced)
        );
        probe::print_layers(&m);
        report_runner(&traced);
        report_engine_lanes(cfg, &figures)?;
    }
    // Witness: every pass's CSVs against a scalar-engine reference pass.
    let reference = run_pass(&figures, EngineMode::Scalar, &Recorders::disabled());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in plain.iter().chain(&traced) {
        for (i, (&digest, &clean)) in pass.digests.iter().zip(&pass.clean).enumerate() {
            attempted += 1;
            if !clean || !reference.clean[i] || digest != reference.digests[i] {
                failed += 1;
            }
        }
    }
    // Golden: the measured path on the witness seed, against the
    // digests recorded for it.
    let (_, witness) = quick_figures(golden::WITNESS_SEED);
    let golden_pass = run_pass(&witness, EngineMode::Auto, &Recorders::disabled());
    let mut golden_failed = 0u64;
    for (i, &expected) in golden::FIG2_CSV_FNV.iter().enumerate() {
        attempted += 1;
        if !golden_pass.clean[i] || golden_pass.digests[i] != expected {
            golden_failed += 1;
        }
    }
    if golden_failed > 0 {
        eprintln!(
            "perfbench: {golden_failed} of {} golden CSVs differ; digests now {:#018x?}",
            golden::FIG2_CSV_FNV.len(),
            golden_pass.digests
        );
    }
    failed += golden_failed;
    println!(
        "csv digests (scalar reference): {}",
        figures
            .iter()
            .zip(&reference.digests)
            .map(|(f, d)| format!("{} {d:016x}", f.dataset.name()))
            .collect::<Vec<_>>()
            .join(" · ")
    );
    let rss = probe::peak_rss_mib()?;
    m.set("setup_s", setup_s);
    m.set("episodes_per_s", episodes_per_s(&plain));
    m.set("peak_rss_mib", rss);
    println!("peak_rss_mib {rss:.1} MiB");
    println!(
        "error_rate {} ({failed} of {attempted} figure CSVs differ from the scalar reference \
         or the golden digests, or lost a network)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Runner-level budget of the traced passes: median time per cell, the
/// ABM cells' share, and wall time outside the cells.
fn report_runner(passes: &[Pass]) {
    let mut cells: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    let (mut abm, mut all) = (0.0, 0.0);
    let mut outside = Vec::new();
    for pass in passes {
        let mut in_cells = 0.0;
        for (dataset, policy, secs) in &pass.cells {
            cells
                .entry((dataset.clone(), policy))
                .or_default()
                .push(*secs);
            in_cells += secs;
            if *policy == "ABM" {
                abm += secs;
            }
        }
        all += in_cells;
        outside.push(pass.wall.as_secs_f64() - in_cells);
    }
    for ((dataset, policy), secs) in &cells {
        println!("runner.cell_s {dataset}/{policy} {:.4} s", median(secs));
    }
    println!(
        "runner.abm_share {:.3} · runner.outside_cells_s {:.4} s (median per pass)",
        abm / all,
        median(&outside)
    );
}

/// Reads the lanes the runner picked per dataset from the `run.start`
/// events it journals, on a one-network run of each figure.
fn report_engine_lanes(cfg: &Config, figures: &[FigureRun]) -> Result<(), String> {
    let path = cfg.work.join("fig2-journal.jsonl");
    let journal = Journal::append_to(&path).map_err(|e| format!("journal: {e}"))?;
    for figure in figures {
        let one = FigureRun {
            network_samples: 1,
            ..figure.clone()
        };
        run_policy_with(
            &one,
            PolicyKind::MaxDegree,
            RunOptions {
                max_workers: Some(WORKERS),
                journal: journal.clone(),
                ..RunOptions::default()
            },
        )
        .map_err(|e| format!("lanes probe: {e}"))?;
    }
    let events = read_journal(&path).map_err(|e| format!("journal: {e}"))?;
    let lanes: Vec<String> = events
        .events
        .iter()
        .filter(|e| e.kind == "run.start")
        .zip(figures)
        .map(|(e, f)| {
            let lanes = e
                .message
                .split("engine lanes ")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .unwrap_or("?");
            format!("{} {lanes}", f.dataset.name())
        })
        .collect();
    println!("runner.engine_lanes: {}", lanes.join(" · "));
    Ok(())
}
