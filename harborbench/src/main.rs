//! harborbench: fixed-rate end-to-end and per-layer benchmark of the
//! LakeHarbor/ReDe stack (HarborGate → HarborScheduler → SMPE →
//! SimCluster, plus the WAL/MVCC write path).
//!
//! ```text
//! harborbench --workload <lake_io|lake_cpu|lake_paged|htap_ingest>
//!             [--seed N] [--seconds S] [--trace 0|1] [--steadiness N]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one run. `--trace 1` runs
//! the workload twice on fresh deployments — untraced, then with spans
//! recorded in memory — prints the per-layer metrics of the traced run
//! plus the tracing overhead, and writes the spans to
//! `.bench_out/trace-<workload>-seed<N>.json`. `--steadiness N` runs the
//! workload in N child processes with seeds `seed, seed+1, …` and prints
//! each end-to-end metric's median and quartiles.
//!
//! The last line of standard output is one JSON object:
//! `{"attempted":…,"correct":…,"failed":…,"metrics":{name:{"unit","value"}}}`.
//! A wrong answer, a leak or a durability failure sets `correct` to false
//! and exits 1.

mod client;
mod config;
mod fixture;
mod run;
mod schedule;
mod stats;
mod trace;

use config::Config;
use rede_common::Json;
use run::Metrics;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10,
        trace: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steadiness" => {
                args.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?)
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn metrics_json(metrics: &Metrics) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|(name, (value, unit))| {
                (
                    name.to_string(),
                    Json::object([
                        ("value", Json::Number(*value)),
                        ("unit", Json::string(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, (value, unit)) in metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
}

/// `--steadiness N`: one child process per seed (so each run's peak RSS
/// and set-up are its own), then median and quartiles per metric.
fn steadiness(args: &Args, seed: u64, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut samples: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for i in 0..runs as u64 {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &(seed + i).to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a benchmark run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let Ok(doc) = Json::parse(last) else {
            eprintln!(
                "seed {}: no result line (exit {:?})",
                seed + i,
                out.status.code()
            );
            return ExitCode::FAILURE;
        };
        if !out.status.success() {
            eprintln!("seed {}: failed: {last}", seed + i);
            return ExitCode::FAILURE;
        }
        if let Some(Json::Object(map)) = doc.get("metrics") {
            for (name, m) in map {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                samples.entry(name.clone()).or_default().push(v);
            }
        }
        eprintln!("seed {} done", seed + i);
    }
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>9}",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for (name, values) in &samples {
        let (q1, med, q3) = stats::quartiles(values);
        println!(
            "{name:<34} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4}",
            stats::ratio(q3 - q1, med.abs())
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("harborbench: {err}");
            return ExitCode::from(2);
        }
    };
    let config = Config::load().expect("the compiled workload record parses");
    let Some(workload) = config.workload(&args.workload) else {
        let names: Vec<&str> = config.workloads.iter().map(|w| w.name.as_str()).collect();
        eprintln!("harborbench: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(config.default_seed);
    if let Some(runs) = args.steadiness {
        return steadiness(&args, seed, runs);
    }
    eprintln!(
        "[harborbench] {} seed {seed} (default {}, held-out {}): {:.1} arrivals/s for {} s, SLO {:?}, io_scale {}, budget {:?}",
        workload.name,
        config.default_seed,
        config.held_out_seed,
        workload.rate_per_s,
        args.seconds,
        workload.slo,
        workload.io_scale,
        workload.memory_budget,
    );

    let result = if args.trace {
        run::run(&config, workload, seed, args.seconds, false).and_then(|plain| {
            let traced = run::run(&config, workload, seed, args.seconds, true)?;
            Ok((plain, Some(traced)))
        })
    } else {
        run::run(&config, workload, seed, args.seconds, false).map(|plain| (plain, None))
    };
    let (plain, traced) = match result {
        Ok(r) => r,
        Err(err) => {
            eprintln!("harborbench: run failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut problems = plain.problems.clone();
    let (report, metrics) = match traced {
        Some(mut traced) => {
            problems.extend(traced.problems.iter().cloned());
            let untraced_p50 = plain.end_to_end["query_p50_ms"].0;
            let traced_p50 = traced.end_to_end["query_p50_ms"].0;
            let overhead = (traced_p50 - untraced_p50) / untraced_p50;
            traced
                .per_layer
                .insert("harness.trace_overhead_frac", (overhead, "ratio"));
            if let Some(Json::Object(mut doc)) = traced.trace.take() {
                doc.insert("untraced_query_p50_ms".into(), Json::Number(untraced_p50));
                doc.insert("traced_query_p50_ms".into(), Json::Number(traced_p50));
                doc.insert("trace_overhead_frac".into(), Json::Number(overhead));
                let path = std::path::Path::new(".bench_out")
                    .join(format!("trace-{}-seed{seed}.json", workload.name));
                let written = std::fs::create_dir_all(".bench_out")
                    .and_then(|_| std::fs::write(&path, Json::Object(doc).to_string()));
                match written {
                    Ok(()) => eprintln!("[harborbench] spans written to {}", path.display()),
                    Err(err) => {
                        eprintln!("[harborbench] could not write {}: {err}", path.display())
                    }
                }
            }
            print_metrics("end-to-end (untraced run)", &plain.end_to_end);
            print_metrics("end-to-end (traced run)", &traced.end_to_end);
            print_metrics("per-layer (traced run)", &traced.per_layer);
            let metrics = traced.per_layer.clone();
            (traced, metrics)
        }
        None => {
            print_metrics("end-to-end", &plain.end_to_end);
            let metrics = plain.end_to_end.clone();
            (plain, metrics)
        }
    };
    for note in &report.notes {
        eprintln!("[harborbench] {note}");
    }
    for p in &problems {
        eprintln!("[harborbench] FAILED CHECK: {p}");
    }
    let correct = problems.is_empty() && report.failed == 0;
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(report.attempted as f64)),
        ("failed", Json::Number(report.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
