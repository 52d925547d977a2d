//! Steadiness check for the benchmark: runs `perfbench` on one workload
//! over several seeds and compares each end-to-end metric's spread (the
//! interquartile distance as a share of the median) with its bound in
//! `BENCHMARK.json`.
//!
//! ```text
//! steady --workload <name> [--seeds 10] [--first-seed 1] [--seconds S]
//!        [--save FILE] [--against FILE]
//! ```
//!
//! Run from the repository root. `--save` writes the medians of this
//! set; `--against` checks that no median is worse than a saved set's by
//! more than the metric's bound. Exits 1 when a run fails or is
//! incorrect, a spread exceeds its bound, or a median regressed.

use std::process::{Command, ExitCode};

use accu_telemetry::{parse_json, Json};
use perfbench::stats::{median, quartiles, regressed, spread, steadiness, Steadiness};

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared() -> Result<(Vec<Declared>, f64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = parse_json(&text)?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("run_seconds missing")?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("end_to_end missing")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric name missing")?
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric bound missing")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((metrics, seconds))
}

/// Runs the benchmark once and returns its result line, parsed.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench");
    let out = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {} — {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    parse_json(last).map_err(|e| format!("seed {seed}: bad result line: {e}"))
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("steady: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload").ok_or("--workload is required")?;
    let parse = |flag: &str, default: f64| -> Result<f64, String> {
        arg(&args, flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {flag} {v:?}"))
        })
    };
    let (metrics, run_seconds) = declared()?;
    let seeds = parse("--seeds", 10.0)? as u64;
    let first = parse("--first-seed", 1.0)? as u64;
    let seconds = parse("--seconds", run_seconds)?;

    let mut ok = true;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); metrics.len()];
    for seed in first..first + seeds {
        let doc = run_once(&workload, seed, seconds)?;
        let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
        let failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
        ok &= correct && failed == 0;
        let mut line = format!("seed {seed:>3}: correct {correct} failed {failed}");
        for (m, v) in metrics.iter().zip(values.iter_mut()) {
            let value = doc
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("seed {seed}: metric {} missing", m.name))?;
            line.push_str(&format!(" · {} {value:.6}", m.name));
            v.push(value);
        }
        println!("{line}");
    }

    let mut medians = Vec::new();
    println!("{workload}: {seeds} runs of {seconds} s");
    for (m, v) in metrics.iter().zip(&values) {
        let (q1, q3) = quartiles(v);
        let s = spread(v);
        let verdict = steadiness(s, m.bound);
        ok &= verdict != Steadiness::Unsteady;
        println!(
            "  {:<16} median {:<12.5} q1 {:<12.5} q3 {:<12.5} spread {:.4} (bound {}, {:?})",
            m.name,
            median(v),
            q1,
            q3,
            s,
            m.bound,
            verdict
        );
        medians.push(format!("\"{}\": {}", m.name, median(v)));
    }

    if let Some(path) = arg(&args, "--against") {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let base = parse_json(&text)?;
        for (m, v) in metrics.iter().zip(&values) {
            let b = base
                .get(&m.name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: no {}", m.name))?;
            let worse = regressed(b, median(v), m.bound, m.higher_is_better);
            ok &= !worse;
            println!(
                "  {:<16} saved median {b:.5} → {:.5} ({:+.2}%){}",
                m.name,
                median(v),
                100.0 * (median(v) - b) / b,
                if worse { " REGRESSED beyond bound" } else { "" }
            );
        }
    }
    if let Some(path) = arg(&args, "--save") {
        std::fs::write(&path, format!("{{{}}}\n", medians.join(", ")))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", if ok { "steady" } else { "NOT steady" });
    Ok(ok)
}
