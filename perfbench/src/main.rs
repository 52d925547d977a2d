//! ACCU benchmark: four workloads from the episode engine to the
//! service, with end-to-end metrics (untraced) and per-layer metrics
//! (traced). See `perfbench/README.md` for the metric table.
//!
//! ```text
//! perfbench --workload <fixture_abm|ba1e5_abm|fig2_quick|service_jobs>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Report lines go to stdout; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Scratch files live in
//! `.bench_work/` under the working directory and are removed on exit.

mod episodes;
mod fig2;
mod golden;
mod probe;
mod service;
mod setup;

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::stats;

/// One benchmark invocation.
#[derive(Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed section; a traced run splits it into an
    /// untraced and a traced half.
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory.
    pub work: PathBuf,
    /// Logical cores visible to this process; worker threads, daemon
    /// jobs and clients stay at or below it.
    pub cores: usize,
}

const WORKLOADS: [&str; 4] = ["fixture_abm", "ba1e5_abm", "fig2_quick", "service_jobs"];

fn parse_args(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work,
        cores,
    })
}

fn run(cfg: &Config) -> Result<String, String> {
    std::fs::create_dir_all(&cfg.work)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work.display()))?;
    println!(
        "workload {} · seed {} · {} s · trace {} · {} cores",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, cfg.cores
    );
    let outcome = match cfg.workload.as_str() {
        "fixture_abm" => episodes::fixture_abm(cfg),
        "ba1e5_abm" => episodes::ba1e5_abm(cfg),
        "fig2_quick" => fig2::fig2_quick(cfg),
        _ => service::service_jobs(cfg),
    }?;
    report::result_line(&outcome, if cfg.trace { PER_LAYER } else { END_TO_END })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    // Best-effort: the scratch directory holds nothing worth keeping.
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
