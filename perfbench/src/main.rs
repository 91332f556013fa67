//! `perfbench` — the repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <plan|serve_read|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed reaches only the input generators. A run repeats whole
//! rounds (set-up, plan, serving tape, recovery, checks) until
//! `--seconds` have passed, and reports medians over them. Every
//! workload runs every operation, in its own proportions. With
//! `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, and it writes the spans and the
//! self-time table to `perfbench/out/`. Every answer is checked; the
//! exact counters must repeat in every round and in every run with the
//! same seed. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `README.md` beside
//! this crate documents the workloads and the metrics.

mod plan;
mod report;
mod session;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// What one run does, from the command line.
pub struct RunConfig {
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
    /// Rounds run even when the time budget is already spent (at least
    /// three untraced rounds, plus as many traced ones when tracing).
    pub min_rounds: usize,
}

/// Traced rounds per traced run; enough frames for the per-layer means,
/// and a spans file of tens of MB rather than hundreds.
const MAX_TRACED_ROUNDS: usize = 4;

/// Runs rounds until the time budget is spent and at least
/// `min_rounds` have run. A traced run alternates untraced and traced
/// rounds (up to [`MAX_TRACED_ROUNDS`] traced ones), so the tracing
/// overhead is measured on the same inputs in the same process. Returns
/// the untraced rounds, the traced rounds and the tracer that recorded
/// the traced ones.
pub fn run_rounds<R>(
    cfg: &RunConfig,
    mut round: impl FnMut(&mut trace::Tracer, usize) -> R,
) -> (Vec<R>, Vec<R>, trace::Tracer) {
    let mut traced = trace::Tracer::new(true);
    let mut untraced = trace::Tracer::new(false);
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    let mut index = 0;
    while start.elapsed() < cfg.budget || index < cfg.min_rounds {
        if cfg.trace && index % 2 == 1 && with_spans.len() < MAX_TRACED_ROUNDS {
            with_spans.push(round(&mut traced, index));
        } else {
            plain.push(round(&mut untraced, index));
        }
        index += 1;
    }
    (plain, with_spans, traced)
}

const WORKLOADS: [&str; 3] = ["plan", "serve_read", "serve_mixed"];

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = trace.unwrap_or(false);
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds),
            trace,
            min_rounds: if trace { 6 } else { 3 },
        },
    ))
}

/// Run-time files (socket, data directories, spans, saved counters)
/// live in `out/` beside this crate's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    // Socket and data paths are relative to `out/`, which keeps them
    // short wherever the checkout lives (socket paths are length-capped).
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::env::set_current_dir(&out)) {
        eprintln!("perfbench: cannot use {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    let mut report = Report::default();
    let shape = match workload.as_str() {
        "plan" => &session::PLAN,
        "serve_read" => &session::READ,
        _ => &session::MIXED,
    };
    let tracer = session::run(shape, &cfg, &mut report);
    // Saved counters are keyed by this executable's hash too, so a
    // checkout rebuilt from other code never compares against them.
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |exe| sv_durable::fnv1a64(&exe));
    report.check_against_saved(
        &out.join("counters"),
        &format!("{workload}-seed{}-build{build:016x}", cfg.seed),
    );
    let not_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    for why in not_finite {
        report.fail(why);
    }
    if let Some(tr) = tracer {
        let stem = format!("trace-{workload}-seed{}", cfg.seed);
        let table = tr.self_time_table(&workload);
        print!("{table}");
        if let Err(e) = tr
            .write_spans(&out.join(format!("{stem}.spans.jsonl")))
            .and_then(|()| std::fs::write(out.join(format!("{stem}.selftime.txt")), &table))
        {
            report.fail(format!("cannot write the trace: {e}"));
        }
    }

    for m in &report.metrics {
        println!("{workload} {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &report.info {
        println!(
            "{workload} {:<28} {:>16.6} {} (not gated)",
            m.name, m.value, m.unit
        );
    }
    for why in &report.failures {
        eprintln!("perfbench: FAILED: {why}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
