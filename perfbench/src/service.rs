//! `service_jobs`: an in-process `Daemon` on a registry in the run's
//! scratch directory, driven by a closed loop of clients. Each client
//! submits a small job (the `JobSpec::default()` shape with its own
//! seed), polls `status` until the job ends, and fetches `result_csv`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use accu_experiments::service::{
    ClientError, Daemon, DaemonConfig, JobSpec, JobState, JobStatus, Registry, ServiceClient,
};
use accu_telemetry::{read_journal, Corr, Journal, Recorder, Severity};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::golden;
use crate::probe;
use crate::report::{Metrics, Outcome};
use crate::setup::{self, Stages};
use crate::stats::{median, Summary};
use crate::Config;

/// Pause between status polls: the resolution of the latency
/// measurement, kept well under a tenth of the median job latency.
const POLL: Duration = Duration::from_millis(10);

/// A job that has not ended after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Lease TTL the daemon runs with (`DaemonConfig::new`'s default), also
/// used to open the registry read-side.
const LEASE_TTL_MS: u64 = 5_000;

/// One job as its client saw it.
#[derive(Debug)]
struct Job {
    id: String,
    spec: JobSpec,
    latency_ms: f64,
    /// The result CSV, or why the job did not produce one.
    result: Result<String, String>,
}

/// Client-side latency of each verb, in ms.
#[derive(Debug, Default)]
struct Verbs {
    submit: Vec<f64>,
    status: Vec<f64>,
    result: Vec<f64>,
}

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    into.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

/// Submits `spec` as job `id`, polls `status` until the job ends and
/// fetches its result; returns the submit-to-end latency in ms and the
/// result CSV.
fn run_job(
    client: &ServiceClient,
    id: &str,
    spec: &JobSpec,
    verbs: &mut Verbs,
) -> (f64, Result<String, String>) {
    let t0 = Instant::now();
    let result = timed(&mut verbs.submit, || client.submit(id, spec))
        .map_err(|e| format!("submit: {e}"))
        .and_then(|_| loop {
            match timed(&mut verbs.status, || client.status(id)) {
                Ok(status) if status.state.is_terminal() => break Ok(status),
                Ok(_) => {}
                Err(e) => break Err(format!("status: {e}")),
            }
            if t0.elapsed() > JOB_TIMEOUT {
                break Err(ClientError::TimedOut(JOB_TIMEOUT).to_string());
            }
            std::thread::sleep(POLL);
        });
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = result.and_then(|status| match status.state {
        JobState::Done => {
            timed(&mut verbs.result, || client.result_csv(id)).map_err(|e| format!("result: {e}"))
        }
        other => Err(format!("job ended {other}: {}", status.detail)),
    });
    (latency_ms, result)
}

/// One client of the closed loop: runs jobs back to back until
/// `deadline`.
fn client_loop(
    addr: SocketAddr,
    seed: u64,
    tag: &str,
    next: &AtomicU64,
    deadline: Instant,
) -> (Vec<Job>, Verbs) {
    let client = ServiceClient::connect(addr.to_string()).with_seed(seed);
    let mut jobs = Vec::new();
    let mut verbs = Verbs::default();
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let spec = JobSpec {
            seed: seed.wrapping_mul(1_000_003).wrapping_add(i),
            ..JobSpec::default()
        };
        let id = format!("{tag}{i}");
        let (latency_ms, result) = run_job(&client, &id, &spec, &mut verbs);
        jobs.push(Job {
            id,
            spec,
            latency_ms,
            result,
        });
    }
    (jobs, verbs)
}

/// What one closed-loop window produced.
#[derive(Debug, Default)]
struct Window {
    jobs: Vec<Job>,
    verbs: Verbs,
    wall: Duration,
}

impl Window {
    fn done(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_ok()).count()
    }

    fn episodes_per_s(&self) -> f64 {
        let per_job = JobSpec::default().samples * JobSpec::default().runs;
        (self.done() * per_job) as f64 / self.wall.as_secs_f64()
    }

    fn latencies(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.latency_ms).collect()
    }
}

/// Runs `clients` closed-loop clients against `addr` until `seconds`
/// have passed; jobs in flight at the deadline finish and count.
fn closed_loop(addr: SocketAddr, clients: usize, seed: u64, tag: &str, seconds: f64) -> Window {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut window = Window::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let next = &next;
                scope.spawn(move || client_loop(addr, seed ^ (c << 32), tag, next, deadline))
            })
            .collect();
        for handle in handles {
            let (jobs, verbs) = handle.join().expect("client thread panicked");
            window.jobs.extend(jobs);
            window.verbs.submit.extend(verbs.submit);
            window.verbs.status.extend(verbs.status);
            window.verbs.result.extend(verbs.result);
        }
    });
    window.wall = start.elapsed();
    window.jobs.sort_by_key(|j| j.id.clone());
    window
}

fn report_window(label: &str, w: &Window) {
    let s = Summary::of(&w.latencies()).expect("a window runs at least one job");
    println!(
        "{label}: wall_s {:.3} s · {} jobs · jobs_per_s {:.3} 1/s · episodes_per_s {:.3} 1/s · \
         job_latency_ms {}",
        w.wall.as_secs_f64(),
        w.jobs.len(),
        w.done() as f64 / w.wall.as_secs_f64(),
        w.episodes_per_s(),
        s.describe("ms")
    );
}

/// Where each job's time went, from the daemon's own journal: medians
/// of submit→run (queue wait), run→run.done (execute) and
/// run.done→publish (publish gap), plus events per job.
fn journal_breakdown(registry: &Path, jobs: &[Job]) -> Result<[f64; 4], String> {
    let path = Registry::open(registry, LEASE_TTL_MS)
        .map_err(|e| format!("registry: {e}"))?
        .journal_path();
    let journal = read_journal(&path).map_err(|e| format!("journal: {e}"))?;
    let (mut wait, mut exec, mut gap, mut events) = (vec![], vec![], vec![], 0usize);
    for job in jobs {
        let mine: Vec<_> = journal.for_job(&job.id).collect();
        events += mine.len();
        let at = |kind: &str| mine.iter().find(|e| e.kind == kind).map(|e| e.ts_ms as f64);
        if let (Some(s), Some(r), Some(d), Some(p)) = (
            at("job.submit"),
            at("job.run"),
            at("run.done"),
            at("job.publish"),
        ) {
            wait.push(r - s);
            exec.push(d - r);
            gap.push(p - d);
        }
    }
    if wait.is_empty() {
        return Err("no complete job lifecycle in the daemon journal".to_string());
    }
    Ok([
        median(&wait),
        median(&exec),
        median(&gap),
        events as f64 / jobs.len() as f64,
    ])
}

fn daemon_config(root: &Path, jobs: usize, recorder: Recorder) -> DaemonConfig {
    DaemonConfig {
        max_jobs: jobs,
        recorder,
        ..DaemonConfig::new(root)
    }
}

/// Daemons started by one run, with their registry roots. All are
/// stopped before any is dropped (joined), so the adoption sweeper's
/// sleep is waited out once.
type Daemons = Vec<(Daemon, PathBuf)>;

/// Starts a daemon with the default configuration on a fresh registry
/// under the run's scratch directory; returns it and its start time.
fn start_daemon(
    cfg: &Config,
    lanes: usize,
    name: &str,
    recorder: Recorder,
) -> Result<(Daemon, PathBuf, f64), String> {
    let root = cfg.work.join(name);
    let t = Instant::now();
    let daemon = Daemon::start(daemon_config(&root, lanes, recorder))
        .map_err(|e| format!("daemon start: {e}"))?;
    Ok((daemon, root, t.elapsed().as_secs_f64()))
}

pub fn service_jobs(cfg: &Config) -> Result<Outcome, String> {
    // Daemon workers and clients both stay at or below the core count.
    let lanes = cfg.cores.min(2);
    println!(
        "{lanes} client(s) · daemon max_jobs {lanes} · job {} · poll {} ms",
        JobSpec::default().to_json(),
        POLL.as_millis()
    );
    let mut daemons = Daemons::new();
    let result = run_windows(cfg, lanes, &mut daemons);
    for (daemon, _) in &daemons {
        daemon.stop();
    }
    drop(daemons);
    result
}

/// Daemon restarts timed for `setup_s`, ~0.5 ms each, one every
/// `RESTART_EVERY`: the cost of a restart's journal fsync shifts between
/// levels that last tens of milliseconds, so restarts spread over two
/// seconds give a steadier median than restarts back to back.
const RESTARTS: usize = 100;
const RESTART_EVERY: Duration = Duration::from_millis(20);

/// Starts the serving daemon, runs the closed-loop windows on it (and,
/// traced, on a second daemon with an enabled recorder), then checks
/// every result. Every daemon started lands in `daemons`.
fn run_windows(cfg: &Config, lanes: usize, daemons: &mut Daemons) -> Result<Outcome, String> {
    let (daemon, root, first) = start_daemon(cfg, lanes, "registry", Recorder::disabled())?;
    let addr = daemon.addr();
    daemons.push((daemon, root.clone()));
    let mut m = Metrics::default();
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // Set-up samples: a daemon started, and at once stopped, on a spare
    // registry it has served before — a service restart — before the
    // closed loop. A restart runs all of the daemon's
    // start-up code; a start on a fresh registry adds directory
    // creation, whose cost on a shared host tracks the file system's
    // backlog from earlier runs more than the program. Restarts taken
    // while the clients run share the disk with the serving daemon's
    // fsyncs, which on the reference host doubled their median and
    // made it vary by half between runs.
    let mut spare = Daemons::new();
    let mut restart = || -> Result<f64, String> {
        let (daemon, root, secs) =
            start_daemon(cfg, lanes, "registry-spare", Recorder::disabled())?;
        daemon.stop();
        spare.push((daemon, root));
        Ok(secs)
    };
    let fresh = restart()?;
    println!(
        "daemon start on a fresh registry: {:.3} ms (serving), {:.3} ms (spare)",
        first * 1e3,
        fresh * 1e3
    );
    let setups = (0..RESTARTS)
        .map(|_| {
            std::thread::sleep(RESTART_EVERY);
            restart()
        })
        .collect::<Result<Vec<_>, _>>()?;
    daemons.append(&mut spare);
    let setup_s = median(&setups);
    let plain = closed_loop(addr, lanes, cfg.seed, "u", untraced_s);
    println!(
        "setup_s {setup_s:.5} s (median of {} daemon restarts)",
        setups.len()
    );
    m.set("setup_s", setup_s);
    report_window("untraced", &plain);
    // Each window's latency decomposition is one checked operation.
    let mut decompositions = 1u64;
    let mut split_off = u64::from(!decompose("untraced", &root, &plain)?.adds_up);
    let mut windows = vec![plain];
    if cfg.trace {
        let recorder = Recorder::enabled();
        let (daemon, root, _) = start_daemon(cfg, lanes, "registry-traced", recorder.clone())?;
        let traced_addr = daemon.addr();
        daemons.push((daemon, root.clone()));
        probe::arm_alloc_counter();
        let traced = closed_loop(traced_addr, lanes, cfg.seed, "t", cfg.seconds / 2.0);
        let allocs = probe::disarm_alloc_counter();
        report_window("traced", &traced);
        let snapshot = recorder.snapshot("service").expect("enabled recorder");
        let clock = probe::runner_clock(&[&snapshot]);
        clock.write(&mut m);
        m.set(
            "core.allocs_per_episode",
            allocs as f64 / clock.episodes.max(1) as f64,
        );
        probe::write_abm_ratios(&snapshot, clock.notify_calls, &mut m);
        let plain = &windows[0];
        let overhead =
            100.0 * (plain.episodes_per_s() - traced.episodes_per_s()) / plain.episodes_per_s();
        m.set("trace.overhead_pct", overhead);
        println!(
            "tracing overhead: episodes_per_s {:.3} untraced vs {:.3} traced ({overhead:.2}%)",
            plain.episodes_per_s(),
            traced.episodes_per_s()
        );
        layer_probes(cfg, &mut m)?;
        probe::print_layers(&m);
        decompositions += 1;
        split_off += u64::from(!report_service_layers(cfg, &root, &traced)?);
        windows.push(traced);
    }

    // Witness: every result byte-identical to an in-process batch run.
    let mut batch_ms = Vec::new();
    let mut failed = split_off;
    let mut attempted = decompositions;
    for job in windows.iter().flat_map(|w| &w.jobs) {
        attempted += 1;
        let expected = timed(&mut batch_ms, || job.spec.run_batch());
        match (&job.result, expected) {
            (Ok(csv), Ok(reference)) if *csv == reference => {}
            (Ok(_), Ok(_)) => {
                eprintln!("perfbench: job {} result differs from run_batch", job.id);
                failed += 1;
            }
            (got, reference) => {
                eprintln!(
                    "perfbench: job {}: {got:?} / reference {reference:?}",
                    job.id
                );
                failed += 1;
            }
        }
    }
    // Golden: one job on the witness seed through the serving daemon,
    // against the digest recorded for it.
    attempted += 1;
    let spec = JobSpec {
        seed: golden::WITNESS_SEED,
        ..JobSpec::default()
    };
    let client = ServiceClient::connect(addr.to_string()).with_seed(cfg.seed);
    let (_, result) = run_job(&client, "golden", &spec, &mut Verbs::default());
    let digest = result.map(|csv| golden::fnv1a64(csv.as_bytes()));
    if digest != Ok(golden::SERVICE_CSV_FNV) {
        eprintln!("perfbench: golden job result now {digest:#018x?}");
        failed += 1;
    }
    if cfg.trace {
        println!(
            "service.batch_ms {} (run_batch in-process, same specs)",
            Summary::of(&batch_ms).expect("jobs ran").describe("ms")
        );
    }
    let rss = probe::peak_rss_mib()?;
    m.set("episodes_per_s", windows[0].episodes_per_s());
    m.set("peak_rss_mib", rss);
    println!("peak_rss_mib {rss:.1} MiB");
    println!(
        "error_rate {} ({failed} of {attempted} operations failed: jobs that failed, errored \
         or differ from run_batch or, for the golden job, from the recorded digest, and \
         latency decompositions off by more than {DECOMPOSITION_BOUND})",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Set-up layers and the sampling probe on the job's own network 0,
/// built through the public calls the runner makes.
fn layer_probes(cfg: &Config, m: &mut Metrics) -> Result<(), String> {
    let figure = JobSpec::default().figure()?;
    let mut stages = Stages::default();
    let mut instance = None;
    for _ in 0..5 {
        let mut rng = StdRng::seed_from_u64(figure.seed);
        let graph = stages
            .time("graph.generate_ms", || figure.dataset.generate(&mut rng))
            .map_err(|e| format!("generation failed: {e}"))?;
        setup::store_round_trip(&graph, &cfg.work.join("job.accg"), &mut stages)?;
        instance = Some(setup::instance_from(
            graph,
            &figure.protocol,
            &mut rng,
            &mut stages,
        )?);
    }
    stages.write(m);
    let instance = instance.expect("five builds ran");
    setup::sampling_probe(&[&instance], cfg.seed, m);
    Ok(())
}

/// Largest share by which the medians of queue wait, execute and
/// publish gap (from the daemon journal) may, summed, differ from the
/// median job latency the clients saw: the benchmark's tightest
/// end-to-end bound. Beyond it the window counts one failed operation.
const DECOMPOSITION_BOUND: f64 = 0.15;

/// A window's job latency split by the daemon journal.
struct Decomposition {
    events_per_job: f64,
    /// Whether the parts add up to the median latency within
    /// [`DECOMPOSITION_BOUND`].
    adds_up: bool,
}

/// Prints where the jobs of `w` spent their time and checks that the
/// parts add up to the median job latency.
fn decompose(label: &str, root: &Path, w: &Window) -> Result<Decomposition, String> {
    let [wait, exec, gap, events_per_job] = journal_breakdown(root, &w.jobs)?;
    let p50 = Summary::of(&w.latencies()).expect("jobs ran").p50;
    let sum = wait + exec + gap;
    let off = (sum - p50) / p50;
    let adds_up = off.abs() <= DECOMPOSITION_BOUND;
    println!(
        "journal ({label}): service.queue_wait_ms {wait:.1} · service.execute_ms {exec:.1} · \
         service.publish_gap_ms {gap:.1} (medians) · sum {sum:.1} vs job_latency_ms p50 \
         {p50:.1} ({:+.2}%{})",
        100.0 * off,
        if adds_up { "" } else { ", beyond the bound" }
    );
    Ok(Decomposition {
        events_per_job,
        adds_up,
    })
}

/// The service path's own layers: per-verb RPC latency, the daemon
/// journal's breakdown of job latency, journal append and registry
/// status-write cost. Returns whether the breakdown adds up.
fn report_service_layers(cfg: &Config, root: &Path, w: &Window) -> Result<bool, String> {
    for (verb, samples) in [
        ("submit", &w.verbs.submit),
        ("status", &w.verbs.status),
        ("result", &w.verbs.result),
    ] {
        if let Some(s) = Summary::of(samples) {
            println!("rpc.{verb}_ms {}", s.describe("ms"));
        }
    }
    let split = decompose("traced", root, w)?;
    println!("journal.events_per_job {:.1}", split.events_per_job);

    let journal = Journal::append_to(cfg.work.join("probe-journal.jsonl"))
        .map_err(|e| format!("journal probe: {e}"))?;
    let mut append_us = Vec::new();
    for _ in 0..64 {
        let t = Instant::now();
        journal.log(Severity::Info, "bench.probe", "probe", &Corr::job("probe"));
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let registry = Registry::open(cfg.work.join("probe-registry"), LEASE_TTL_MS)
        .map_err(|e| format!("registry probe: {e}"))?;
    registry
        .submit("probe", &JobSpec::default())
        .map_err(|e| format!("registry probe: {e}"))?;
    let mut write_us = Vec::new();
    for _ in 0..64 {
        let t = Instant::now();
        registry
            .write_status("probe", &JobStatus::queued())
            .map_err(|e| format!("registry probe: {e}"))?;
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    println!(
        "journal.append_us {} · registry.write_status_us {}",
        Summary::of(&append_us).expect("64 appends").describe("us"),
        Summary::of(&write_us).expect("64 writes").describe("us"),
    );
    Ok(split.adds_up)
}
