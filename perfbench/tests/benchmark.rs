//! The benchmark's own tests: seeds repeat, counts add up, the traced
//! run reports every layer, and `BENCHMARK.json` lists what the code
//! emits.

use lumen_perfbench::trace::Tracer;
use lumen_perfbench::workloads::{Bench, Counts, DseSearch, FleetHetero, ServingPaged};
use lumen_perfbench::{pin_environment, run, Report, Workload, END_TO_END, PER_LAYER};
use std::sync::Once;

fn pinned() {
    static PIN: Once = Once::new();
    PIN.call_once(|| pin_environment().expect("pinning succeeds"));
}

/// One checked call and a replay of it: the digest and the counts.
fn call<B: Bench>(bench: &B) -> (u64, Counts) {
    let mut off = Tracer::off();
    let mut setup = bench.setup(&mut off).expect("set-up");
    let out = bench.run(&mut setup, &mut off).expect("entry point");
    let verdict = bench.verify(&out);
    assert_eq!(verdict.failed, 0, "{:?}", verdict.notes);
    let fresh = bench.setup(&mut off).expect("set-up");
    let counts = bench.replay(fresh, &out, &mut off).expect("replay");
    (verdict.digest, counts)
}

/// Same seed, same digest and counts; another seed, another digest.
/// The traced run of the seed reports the same digest and counts.
fn check<B: Bench>(workload: Workload, make: impl Fn(u64) -> B) -> (Counts, Report) {
    pinned();
    let (digest, counts) = call(&make(5));
    assert_eq!(call(&make(5)), (digest, counts.clone()));
    assert_ne!(call(&make(6)).0, digest);

    let traced = run(workload, 5, 1e-3, true);
    assert!(traced.correct(), "{:?}", traced.notes);
    assert_eq!(traced.digest, digest);
    let m = &traced.metrics;
    for (metric, count) in [
        ("workload.steps", counts.steps),
        ("workload.lowered_layers", counts.lowered_layers),
        ("core.eval_calls", counts.eval_calls),
        ("core.cache_hits", counts.cache_hits),
        ("core.cache_misses", counts.cache_misses),
        ("mapper.searches", counts.searches),
    ] {
        assert_eq!(m[metric], count as f64, "{metric}");
    }
    assert_eq!(counts.searches, counts.cache_misses);
    (counts, traced)
}

/// Every per-layer metric but `absent` is measured.
fn assert_reports_all_but(report: &Report, absent: &[&str]) {
    for (metric, _) in PER_LAYER {
        assert_eq!(
            report.metrics.contains_key(metric),
            !absent.contains(&metric),
            "{metric}"
        );
    }
}

#[test]
fn serving_paged_poisson() {
    let (c, traced) = check(Workload::ServingPagedPoisson, ServingPaged::new);
    assert_eq!(c.cache_hits + c.cache_misses, c.lowered_layers);
    assert_eq!(c.eval_calls, c.steps);
    assert!(c.cache_hits > 1000 * c.cache_misses, "{c:?}");
    assert_reports_all_but(
        &traced,
        &["core.design_eval_p50_ms", "core.design_eval_p90_ms"],
    );
    assert_eq!(traced.metrics["workload.dispatch_s"], 0.0);
}

#[test]
fn fleet_hetero_jsq() {
    let (c, traced) = check(Workload::FleetHeteroJsq, FleetHetero::new);
    assert_eq!(c.cache_hits + c.cache_misses, c.lowered_layers);
    assert_eq!(c.eval_calls, c.steps);
    assert_reports_all_but(
        &traced,
        &["core.design_eval_p50_ms", "core.design_eval_p90_ms"],
    );
    assert!(traced.metrics["workload.dispatch_s"] > 0.0);
}

#[test]
fn dse_search_cold() {
    let (c, traced) = check(Workload::DseSearchCold, DseSearch::new);
    assert_eq!(c.lowered_layers, 0);
    assert_eq!(c.eval_calls, 96);
    assert!(c.cache_misses > 0 && c.cache_hits > 0, "{c:?}");
    assert_reports_all_but(
        &traced,
        &[
            "core.step_eval_p50_us",
            "core.step_eval_p99_us",
            "core.fold_s",
        ],
    );
}

#[test]
fn benchmark_json_lists_the_metrics_and_workloads_emitted() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{entry}");
    }
    assert_eq!(
        text.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}
