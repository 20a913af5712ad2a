//! `lumen-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's `sim_digest`, a summary on stderr, and as the last
//! line of stdout one JSON object: `correct`, `attempted`, `failed` and
//! the metrics (end-to-end untraced, per-layer traced). Exits 1 when an
//! output check failed and 2 on a usage error. A traced run also writes
//! its spans to `.bench_trace/<workload>-seed<N>.json`.

use lumen_perfbench::{pin_environment, run, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    if let Err(e) = pin_environment() {
        eprintln!("lumen-perfbench: {e}");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lumen-perfbench: {e}");
            eprintln!("usage: lumen-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let report = run(args.workload, args.seed, args.seconds, args.trace);
    let name = args.workload.name();
    if let Some(json) = &report.trace_json {
        let path = format!(".bench_trace/{name}-seed{}.json", args.seed);
        let written =
            std::fs::create_dir_all(".bench_trace").and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => eprintln!("spans and self times written to {path}"),
            Err(e) => eprintln!("lumen-perfbench: cannot write {path}: {e}"),
        }
    }
    for note in &report.notes {
        eprintln!("FAILED: {note}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in table {
        let value = report.metrics.get(metric).copied().unwrap_or(0.0);
        eprintln!("{name} {metric:<26} {value:>14.6} {unit}");
    }
    for (metric, value) in &report.metrics {
        if !table.iter().any(|(m, _)| m == metric) {
            eprintln!("{name} {metric:<26} {value:>14.6} (not in the result line)");
        }
    }
    println!("sim_digest {:016x}", report.digest);
    println!("{}", report.json(table));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
