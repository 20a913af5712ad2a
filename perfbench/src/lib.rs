//! Host-time benchmark of the `lumen` simulator.
//!
//! Three workloads drive `lumen`'s public entry points —
//! `scenario_trace`, `fleet_trace` and `dse::sweep` — from seeded
//! inputs. An untraced run reports the end-to-end metrics (set-up time,
//! entry-point time, peak memory); a traced run replays each entry point
//! one layer call at a time and reports where the time went. Every run
//! checks the simulator's outputs and prints a digest of its simulated
//! statistics. See `README.md` beside this crate for the reasoning.

mod host;
mod inputs;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Bench, Counts, DseSearch, FleetHetero, ServingPaged, Verdict};

/// The workloads, by the name the command line takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paged photonic instance serving an open-loop stream.
    ServingPagedPoisson,
    /// A heterogeneous fleet behind a join-shortest-queue router.
    FleetHeteroJsq,
    /// A cold design-space sweep with random mapping search.
    DseSearchCold,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ServingPagedPoisson,
        Workload::FleetHeteroJsq,
        Workload::DseSearchCold,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServingPagedPoisson => "serving-paged-poisson",
            Workload::FleetHeteroJsq => "fleet-hetero-jsq",
            Workload::DseSearchCold => "dse-search-cold",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, with units, in output order.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run, with units, in output order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workload.schedule_s", "s"),
    ("workload.steps", "count"),
    ("workload.lower_s", "s"),
    ("workload.lowered_layers", "count"),
    ("workload.dispatch_s", "s"),
    ("core.eval_calls", "count"),
    ("core.eval_hit_s", "s"),
    ("core.eval_miss_s", "s"),
    ("core.step_eval_p50_us", "us"),
    ("core.step_eval_p99_us", "us"),
    ("core.step_eval_samples", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.hit_rate", "ratio"),
    ("core.fold_s", "s"),
    ("core.percentiles_s", "s"),
    ("core.fanout_penalty", "ratio"),
    ("core.fanout_threads", "count"),
    ("core.design_eval_p50_ms", "ms"),
    ("core.design_eval_p90_ms", "ms"),
    ("mapper.searches", "count"),
    ("mapper.search_s", "s"),
    ("mapper.analyze_s", "s"),
    ("lint.preflight_s", "s"),
    ("albireo.build_system_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.calibration_ms", "ms"),
];

/// Set-up-only time after each call, as a share of the call's time.
const SETUP_SHARE: f64 = 0.1;
/// Share of the samples [`trimmed_mean`] drops at each end.
const TRIM: f64 = 0.1;
/// Fewest timed entry-point calls an untraced run makes.
const MIN_RUNS: usize = 3;
/// Fewest traced repetitions a traced run makes.
const MIN_TRACED: usize = 2;

/// Pins the process so every evaluation runs on one worker and starts
/// from an empty in-memory cache, whatever the caller's environment
/// holds: `dse::sweep` sizes its runner from `LUMEN_SWEEP_THREADS`, and
/// `EvalSession::new` reads `LUMEN_EVAL_CACHE` and `LUMEN_CACHE_DIR`.
/// Must run before any thread starts or any session is built.
///
/// # Errors
///
/// The library's default runner does not come out at one worker.
pub fn pin_environment() -> Result<(), String> {
    std::env::remove_var("LUMEN_CACHE_DIR");
    std::env::remove_var("LUMEN_EVAL_CACHE");
    std::env::set_var("LUMEN_SWEEP_THREADS", "1");
    let threads = lumen_core::SweepRunner::new().threads();
    if threads == 1 {
        Ok(())
    } else {
        Err(format!(
            "the default sweep runner has {threads} workers, not 1"
        ))
    }
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned wrong outputs.
    pub failed: u64,
    /// What failed, first occurrences.
    pub notes: Vec<String>,
    /// Digest of the simulated statistics (equal across every call).
    pub digest: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans and self times of the last traced repetition, as JSON.
    pub trace_json: Option<String>,
}

impl Report {
    fn fail(&mut self, operations: u64, note: String) {
        self.attempted += operations;
        self.failed += operations;
        self.note(note);
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn record(&mut self, verdict: Verdict) {
        self.attempted += verdict.operations;
        self.failed += verdict.failed;
        for note in verdict.notes {
            self.note(note);
        }
        if self.attempted == verdict.operations {
            self.digest = verdict.digest;
        } else if verdict.digest != self.digest {
            self.failed += verdict.operations;
            self.note(format!(
                "sim_digest {:016x} differs from the first call's {:016x}",
                verdict.digest, self.digest
            ));
        }
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with the metrics in `table`.
    pub fn json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `workload` with `seed` for about `seconds`, traced or not.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    fn go<B: Bench>(bench: &B, seconds: f64, traced: bool) -> Report {
        if traced {
            measure_traced(bench, seconds)
        } else {
            measure(bench, seconds)
        }
    }
    match workload {
        Workload::ServingPagedPoisson => go(&ServingPaged::new(seed), seconds, traced),
        Workload::FleetHeteroJsq => go(&FleetHetero::new(seed), seconds, traced),
        Workload::DseSearchCold => go(&DseSearch::new(seed), seconds, traced),
    }
}

/// One set-up plus timed call, checked; returns (set-up, call) seconds.
fn timed_call<B: Bench>(bench: &B, report: &mut Report) -> Option<(f64, f64)> {
    let mut off = Tracer::off();
    let t0 = Instant::now();
    let mut setup = match bench.setup(&mut off) {
        Ok(setup) => setup,
        Err(e) => {
            report.fail(bench.operations(), format!("set-up: {e}"));
            return None;
        }
    };
    let t1 = Instant::now();
    let out = bench.run(&mut setup, &mut off);
    let t2 = Instant::now();
    match out {
        Ok(out) => report.record(bench.verify(&out)),
        Err(e) => {
            report.fail(bench.operations(), e);
            return None;
        }
    }
    Some(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
}

/// The untraced run: a checked warm-up call, then set-up plus
/// entry-point calls until the budget is spent. After each call,
/// set-up-only repetitions run for [`SETUP_SHARE`] of that call's time,
/// so set-up is sampled across the whole run like the calls are, and
/// the host calibration runs once. Reports the trimmed means of set-up
/// and call time, scaled to the reference host speed (see `host.rs`);
/// the unscaled values are kept as `setup_wall_s` and `run_wall_s`.
pub fn measure<B: Bench>(bench: &B, seconds: f64) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut report = Report::default();
    timed_call(bench, &mut report);
    // Peak memory of one fresh set-up and call — what running the study
    // once costs. Read before the repetitions, whose allocator churn
    // would otherwise make it grow with the number of calls that fit.
    report.metrics.insert("peak_rss_mb", peak_rss_mb());
    let (mut setups, mut calls, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    while calls.len() < MIN_RUNS || Instant::now() < deadline {
        let Some((setup_s, run_s)) = timed_call(bench, &mut report) else {
            break;
        };
        setups.push(setup_s);
        calls.push(run_s);
        let mut spent = 0.0;
        while spent < SETUP_SHARE * run_s {
            let t = Instant::now();
            let built = bench.setup(&mut Tracer::off());
            let took = t.elapsed().as_secs_f64();
            drop(built);
            setups.push(took);
            spent += took;
        }
        calibrations.push(host::calibrate());
    }
    let calibration = trimmed_mean(&calibrations);
    let speed = host::REFERENCE_S / calibration;
    let m = &mut report.metrics;
    m.insert("setup_wall_s", trimmed_mean(&setups));
    m.insert("run_wall_s", trimmed_mean(&calls));
    m.insert("setup_s", speed * m["setup_wall_s"]);
    m.insert("run_s", speed * m["run_wall_s"]);
    m.insert("host.calibration_ms", 1e3 * calibration);
    report
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the samples left after dropping the [`TRIM`] share at each
/// end. The host's speed drifts in episodes of tens of seconds, which
/// split the samples of one run into clusters; a median jumps between
/// clusters, a mean weighs them by time and moves smoothly.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * TRIM) as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// One traced repetition's layer times, seconds.
fn layer_times(tr: &Tracer, entry: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("workload.schedule_s", "workload.schedule"),
        ("workload.lower_s", "workload.lower"),
        ("workload.dispatch_s", "workload.dispatch"),
        ("core.eval_hit_s", "core.eval_hit"),
        ("core.eval_miss_s", "core.eval_miss"),
        ("core.percentiles_s", "core.percentiles"),
        ("mapper.search_s", "mapper.search"),
        ("mapper.analyze_s", "mapper.analyze"),
        ("lint.preflight_s", "lint.preflight"),
        ("albireo.build_system_s", "albireo.build_system"),
    ] {
        m.insert(metric, tr.total(span));
    }
    let mut steps = tr.durations("core.eval_hit");
    steps.extend(tr.durations("core.eval_miss"));
    if !steps.is_empty() {
        // The entry point's self time: the call less the children the
        // replica times one by one (schedule, lowering, evaluation) and
        // the percentile reads.
        let children = m["workload.schedule_s"]
            + m["workload.lower_s"]
            + m["core.eval_hit_s"]
            + m["core.eval_miss_s"]
            + m["core.percentiles_s"];
        m.insert("core.fold_s", entry - children);
        m.insert("core.step_eval_p50_us", 1e6 * nearest_rank(&steps, 50));
        m.insert("core.step_eval_p99_us", 1e6 * nearest_rank(&steps, 99));
    }
    let designs = tr.durations("core.design_eval");
    if !designs.is_empty() {
        m.insert("core.design_eval_p50_ms", 1e3 * nearest_rank(&designs, 50));
        m.insert("core.design_eval_p90_ms", 1e3 * nearest_rank(&designs, 90));
    }
    m
}

/// Nearest-rank percentile.
fn nearest_rank(xs: &[f64], percent: usize) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (percent * v.len()).div_ceil(100).max(1);
    v[rank - 1]
}

/// The traced run. Each repetition builds a set-up under spans, makes
/// the entry-point call, then replays it layer by layer twice on fresh
/// set-ups — once traced, once not — alternating which goes first; the
/// difference is the tracing overhead. Times are medians over
/// repetitions; counts must repeat exactly. One fan-out probe follows.
pub fn measure_traced<B: Bench>(bench: &B, seconds: f64) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut report = Report::default();
    let mut per_rep: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts: Option<Counts> = None;
    let mut calibrations = Vec::new();
    let mut reps = 0;
    while reps < MIN_TRACED || Instant::now() < deadline {
        reps += 1;
        let mut tr = Tracer::on();
        let setup = tr.span("setup", |tr| bench.setup(tr));
        let mut setup = match setup {
            Ok(setup) => setup,
            Err(e) => {
                report.fail(bench.operations(), format!("set-up: {e}"));
                break;
            }
        };
        let entry_id = tr.open("entry");
        let out = bench.run(&mut setup, &mut tr);
        tr.close(entry_id);
        drop(setup);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.fail(bench.operations(), e);
                break;
            }
        };
        report.record(bench.verify(&out));
        let entry = tr.total("entry");

        let replay_plain = || -> Result<(f64, Counts), String> {
            let setup = bench.setup(&mut Tracer::off())?;
            let t = Instant::now();
            let c = bench.replay(setup, &out, &mut Tracer::off())?;
            Ok((t.elapsed().as_secs_f64(), c))
        };
        let first_plain = if reps % 2 == 1 {
            Some(replay_plain())
        } else {
            None
        };
        let traced_counts = bench
            .setup(&mut Tracer::off())
            .and_then(|setup| tr.span("replay", |tr| bench.replay(setup, &out, tr)));
        let plain_result = first_plain.unwrap_or_else(replay_plain);
        let (plain_s, plain_counts, traced_counts) = match (plain_result, traced_counts) {
            (Ok((s, pc)), Ok(tc)) => (s, pc, tc),
            (Err(e), _) | (_, Err(e)) => {
                report.fail(bench.operations(), format!("replay: {e}"));
                break;
            }
        };
        plain.push(plain_s);
        traced.push(tr.total("replay"));
        if plain_counts != traced_counts || counts.as_ref().is_some_and(|c| *c != traced_counts) {
            report.fail(
                bench.operations(),
                "replayed counts differ between repetitions".into(),
            );
        }
        counts = Some(traced_counts);
        for (name, value) in layer_times(&tr, entry) {
            per_rep.entry(name).or_default().push(value);
        }
        per_rep
            .entry("trace.spans")
            .or_default()
            .push(tr.spans().len() as f64);
        report.trace_json = Some(tr.to_json());
        calibrations.push(host::calibrate());
    }

    for (name, values) in per_rep {
        report.metrics.insert(name, median(&values));
    }
    report
        .metrics
        .insert("host.calibration_ms", 1e3 * trimmed_mean(&calibrations));
    if let Some(c) = counts {
        let m = &mut report.metrics;
        m.insert("workload.steps", c.steps as f64);
        m.insert("workload.lowered_layers", c.lowered_layers as f64);
        m.insert("core.eval_calls", c.eval_calls as f64);
        m.insert(
            "core.step_eval_samples",
            if c.steps > 0 {
                c.eval_calls as f64
            } else {
                0.0
            },
        );
        m.insert("core.cache_hits", c.cache_hits as f64);
        m.insert("core.cache_misses", c.cache_misses as f64);
        let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
        m.insert("core.hit_rate", c.cache_hits as f64 / lookups);
        m.insert("mapper.searches", c.searches as f64);
    }
    if !plain.is_empty() {
        report.metrics.insert(
            "trace.overhead_pct",
            100.0 * (median(&traced) / median(&plain) - 1.0),
        );
    }
    match bench
        .setup(&mut Tracer::off())
        .and_then(|s| bench.fanout_penalty(s))
    {
        Ok(ratio) => {
            report.metrics.insert("core.fanout_penalty", ratio);
        }
        Err(e) => report.fail(bench.operations(), format!("fan-out probe: {e}")),
    }
    report
        .metrics
        .insert("core.fanout_threads", workloads::default_threads() as f64);
    report
}

/// The process's peak resident set (`VmHWM`), in MiB; 0.0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
