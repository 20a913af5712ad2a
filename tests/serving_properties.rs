//! Property and invariant tests for the continuous-batching scheduler
//! and its lowering.
//!
//! The closed-loop, FIFO, resident-prefill schedule pins the batching
//! laws: every request's tokens are produced exactly once (with
//! consecutive KV lengths starting at its prompt), step MACs equal the
//! sum of each active request's padded per-token work, occupancy never
//! exceeds capacity (and never idles while work waits), and a
//! fully-uniform mix through a single slot reproduces PR 4's
//! `decode_trace` totals bit-identically through the evaluator.
//!
//! The open-loop event schedule adds its own laws: seeded arrivals are
//! deterministic, each prompt prefills exactly once in contiguous
//! chunks, prefill+decode occupancy respects capacity, and the evaluator
//! charges every chunk exactly once.

use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::core::serving::{serving_trace_with, ServingStepPoint};
use lumen::core::{
    scenario_trace, CacheStats, EvalSession, MappingStrategy, NetworkOptions, System,
};
use lumen::mapper::LevelTraffic;
use lumen::units::{Energy, Frequency};
use lumen::workload::serving::{
    ArrivalProcess, KvLayout, PageTable, PrefillMode, Request, RequestMix, ServingConfig,
    ServingModel, ServingScenario, ServingSchedule, ServingStep, StepKey,
};
use lumen::workload::{
    networks, AdmissionPolicy, Dim, DimSet, Layer, LayerSignature, Network, TensorSet,
};
use proptest::prelude::*;
use std::collections::HashMap;

fn toy_arch() -> Architecture {
    ArchBuilder::new("serving-toy", Frequency::from_gigahertz(1.0))
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(100.0))
        .write_energy(Energy::from_picojoules(100.0))
        .done()
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.0))
        .write_energy(Energy::from_picojoules(1.0))
        .fanout(Fanout::new(64).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P])))
        .done()
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.05),
        )
        .build()
        .expect("toy architecture is valid")
}

/// The closed-loop, FIFO, resident-prefill schedule of `mix`: every
/// request queues at step 0 and its prompt is cached on admission.
fn resident(mix: &RequestMix, capacity: usize) -> ServingSchedule {
    let config = ServingConfig::new(capacity).with_prefill(PrefillMode::Resident);
    ServingSchedule::build(mix, &config)
}

/// A pure-decode step whose slots sit at `kv`, in order: the first
/// step of a resident closed loop with one slot per request.
fn decode_step(kv: &[usize]) -> ServingStep {
    let requests = kv.iter().map(|&k| Request::new(k, 1)).collect();
    resident(&RequestMix::custom("kv", requests), kv.len()).steps()[0].clone()
}

/// One request's decode MACs for the token it generates at `kv`.
fn token_macs(model: &ServingModel, kv: usize, layout: &KvLayout) -> u64 {
    model.serving_step_macs_with(&decode_step(&[kv]), layout)
}

/// Every request's tokens are produced exactly once: across the whole
/// schedule, request `r` appears in exactly `output` steps, and the KV
/// lengths it is scheduled at are `prompt, prompt+1, ..,
/// prompt+output-1` in execution order. Nothing is prefilled.
fn assert_tokens_exactly_once(mix: &RequestMix, schedule: &ServingSchedule) {
    let mut seen: HashMap<usize, Vec<usize>> = HashMap::new();
    for step in schedule.steps() {
        assert!(step.prefill().is_empty(), "resident prompts are cached");
        for slot in step.decode() {
            seen.entry(slot.request).or_default().push(slot.kv_len);
        }
    }
    assert_eq!(seen.len(), mix.len(), "every request was scheduled");
    for (r, request) in mix.requests().iter().enumerate() {
        let kvs = &seen[&r];
        assert_eq!(kvs.len(), request.output, "request {r} token count");
        let expected: Vec<usize> = (request.prompt..request.prompt + request.output).collect();
        assert_eq!(kvs, &expected, "request {r} cache grows one token/step");
    }
}

#[test]
fn every_token_is_produced_exactly_once() {
    let mixes = [
        RequestMix::uniform(7, 100, 5),
        RequestMix::bimodal(42, 20, (64, 16), (512, 48), 25),
        RequestMix::long_tail(42, 20, (32, 256), 8, 4),
        RequestMix::custom(
            "ragged",
            vec![
                Request::new(0, 1),
                Request::new(1000, 3),
                Request::new(5, 17),
            ],
        ),
    ];
    for mix in &mixes {
        for capacity in [1, 2, 5, 64] {
            let schedule = resident(mix, capacity);
            assert_tokens_exactly_once(mix, &schedule);
            assert_eq!(
                schedule.total_decode_tokens(),
                mix.total_output_tokens(),
                "{} cap {capacity}",
                mix.name()
            );
        }
    }
}

#[test]
fn occupancy_never_exceeds_capacity_and_never_idles_waiting_work() {
    let mix = RequestMix::bimodal(3, 25, (64, 4), (256, 30), 40);
    for capacity in [1, 3, 8, 25, 100] {
        let schedule = resident(&mix, capacity);
        let mut retired = 0usize;
        let mut admitted: Vec<bool> = vec![false; mix.len()];
        for (i, step) in schedule.steps().iter().enumerate() {
            assert!(
                step.occupancy() <= capacity,
                "cap {capacity} step {i}: occupancy {}",
                step.occupancy()
            );
            assert!(step.occupancy() > 0, "no empty steps");
            for slot in step.decode() {
                admitted[slot.request] = true;
            }
            // Work-conserving: a slot sits free only once the queue is
            // exhausted (admission is FIFO at step start).
            let waiting = admitted.iter().filter(|&&a| !a).count();
            if step.occupancy() < capacity {
                assert_eq!(waiting, 0, "cap {capacity} step {i}: idle slot with queue");
            }
            retired += step
                .decode()
                .iter()
                .filter(|s| {
                    s.kv_len + 1
                        == mix.requests()[s.request].prompt + mix.requests()[s.request].output
                })
                .count();
        }
        assert_eq!(retired, mix.len(), "every request retires exactly once");
    }
}

#[test]
fn step_macs_equal_the_sum_over_the_active_set() {
    let model = ServingModel::gpt2_small();
    let mix = RequestMix::long_tail(9, 16, (64, 400), 8, 3);
    let schedule = resident(&mix, 5);
    for bucket in [1, 64, 256] {
        let layout = KvLayout::Bucketed { bucket };
        for step in schedule.steps() {
            let net = model.lower_serving_step_with(step, &layout);
            // The network's MACs are exactly the sum of each active
            // request's padded per-token work — no cross-request terms.
            let per_request: u64 = step
                .decode()
                .iter()
                .map(|s| token_macs(&model, s.kv_len, &layout))
                .sum();
            assert_eq!(net.total_macs(), per_request, "bucket {bucket}");
            assert_eq!(
                net.total_macs(),
                model.serving_step_macs_with(step, &layout)
            );
        }
    }
}

/// The PR 4 equivalence: a uniform, capacity-1, resident-prefill
/// scenario is exactly a `decode_trace`, and the evaluator agrees bit
/// for bit — same layer signatures step by step, so one session
/// evaluates both from the same cache entries and the per-step
/// energies/cycles match to the last bit.
#[test]
fn uniform_single_slot_schedule_matches_decode_trace_bit_identically() {
    let (prompt, steps, bucket) = (100usize, 24usize, 16usize);
    let scenario = ServingScenario::builder(RequestMix::uniform(1, prompt, steps), 1)
        .kv_bucket(bucket)
        .prefill(PrefillMode::Resident)
        .build()
        .expect("scenario is valid");

    let model = ServingModel::gpt2_small();
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let serving = scenario_trace(&session, &model, &scenario, &NetworkOptions::baseline())
        .expect("schedule evaluates");
    assert_eq!(serving.points.len(), steps);

    let trace: Vec<_> = networks::gpt2_small_decode_trace(prompt, steps, bucket).collect();
    assert_eq!(serving.points.len(), trace.len());
    for (point, (kv_len, decode_net)) in serving.points.iter().zip(&trace) {
        let decode_eval = session
            .evaluate_network(decode_net, &NetworkOptions::baseline())
            .expect("decode step evaluates");
        assert_eq!(point.occupancy, 1);
        assert_eq!(point.macs, decode_eval.macs, "kv={kv_len}");
        assert_eq!(
            point.energy.picojoules().to_bits(),
            decode_eval.energy.total().picojoules().to_bits(),
            "kv={kv_len}: serving step energy drifted from decode_trace"
        );
        assert_eq!(
            point.cycles.to_bits(),
            decode_eval.cycles.to_bits(),
            "kv={kv_len}: serving step cycles drifted from decode_trace"
        );
    }
    // Totals follow: the schedule is the trace.
    let trace_macs: u64 = trace.iter().map(|(_, n)| n.total_macs()).sum();
    assert_eq!(serving.total_macs(), trace_macs);
}

// --- open-loop event schedule (PR 7) --------------------------------

/// Conservation for the event-driven scheduler: each admitted request
/// prefills its prompt exactly once (contiguous chunks, no overlap) and
/// decodes its output exactly once at consecutive KV lengths; the
/// per-step slot count (prefill + decode) never exceeds capacity.
fn assert_event_schedule_conserves(mix: &RequestMix, schedule: &ServingSchedule) {
    let capacity = schedule.capacity();
    let mut prefilled: HashMap<usize, usize> = HashMap::new();
    let mut decoded: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, step) in schedule.steps().iter().enumerate() {
        assert!(step.occupancy() >= 1, "no empty steps");
        assert!(
            step.occupancy() <= capacity,
            "step {i}: occupancy {} over capacity {capacity}",
            step.occupancy()
        );
        for slot in step.prefill() {
            let done = prefilled.entry(slot.request).or_insert(0);
            assert_eq!(
                slot.cached, *done,
                "step {i}: request {} prefill chunks are contiguous",
                slot.request
            );
            assert!(slot.chunk > 0, "prefill chunks are non-empty");
            *done += slot.chunk;
        }
        for slot in step.decode() {
            decoded.entry(slot.request).or_default().push(slot.kv_len);
        }
    }
    assert_eq!(decoded.len(), mix.len(), "every request decodes");
    for (r, request) in mix.requests().iter().enumerate() {
        assert_eq!(
            prefilled.get(&r).copied().unwrap_or(0),
            request.prompt,
            "request {r}: prompt prefilled exactly once"
        );
        let expected: Vec<usize> = (request.prompt..request.prompt + request.output).collect();
        assert_eq!(&decoded[&r], &expected, "request {r} decode KV lengths");
    }
}

#[test]
fn event_schedule_conserves_tokens_under_every_arrival_and_policy() {
    let mix = RequestMix::bimodal(11, 18, (64, 6), (300, 24), 30);
    let arrivals = [
        ArrivalProcess::ClosedLoop,
        ArrivalProcess::poisson(0.2, 0xD00D),
        ArrivalProcess::bursty(0.05, 16, 3, 0xD00D),
        ArrivalProcess::diurnal(0.05, 0.6, 40, 0xD00D),
    ];
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ShortestPrompt,
        AdmissionPolicy::SloAware {
            interactive_prompt: 128,
            slack: 8,
        },
    ];
    for arrival in &arrivals {
        for policy in &policies {
            for chunk in [None, Some(64)] {
                let config = ServingConfig::new(3)
                    .with_arrival(arrival.clone())
                    .with_policy(*policy)
                    .with_prefill(PrefillMode::OnAdmission { chunk });
                let schedule = ServingSchedule::build(&mix, &config);
                assert_event_schedule_conserves(&mix, &schedule);
            }
        }
    }
}

/// Seeded arrivals are a pure function of their inputs: rebuilding the
/// same open-loop schedule gives step-for-step identical walls, prefill
/// events and decode slots.
#[test]
fn open_loop_schedules_are_deterministic() {
    let mix = RequestMix::long_tail(5, 12, (32, 200), 10, 3);
    let config = ServingConfig::new(2)
        .with_arrival(ArrivalProcess::poisson(0.15, 0xABCD))
        .with_policy(AdmissionPolicy::ShortestPrompt)
        .with_prefill(PrefillMode::OnAdmission { chunk: Some(48) });
    let a = ServingSchedule::build(&mix, &config);
    let b = ServingSchedule::build(&mix, &config);
    assert_eq!(a.arrivals(), b.arrivals());
    assert_eq!(a.total_steps(), b.total_steps());
    for (sa, sb) in a.steps().iter().zip(b.steps()) {
        assert_eq!(sa.wall(), sb.wall());
        assert_eq!(sa.prefill(), sb.prefill());
        assert_eq!(sa.decode(), sb.decode());
    }
}

/// The evaluator charges each prefill chunk exactly once: trace MACs
/// equal per-request prefill closed forms plus the decode step sum —
/// and the worker count does not change a bit of it.
#[test]
fn serving_trace_charges_prefill_exactly_once_and_is_thread_stable() {
    let (bucket, chunk) = (32usize, Some(96usize));
    let mix = RequestMix::uniform(3, 150, 4);
    let model = ServingModel::gpt2_small();
    let config = ServingConfig::new(2)
        .with_arrival(ArrivalProcess::poisson(0.1, 0xBEEF))
        .with_prefill(PrefillMode::OnAdmission { chunk });
    let schedule = ServingSchedule::build(&mix, &config);

    let layout = KvLayout::Bucketed { bucket };
    let session = EvalSession::new(System::new(toy_arch(), MappingStrategy::default()));
    let eval = serving_trace_with(
        &session,
        &model,
        &schedule,
        &layout,
        &NetworkOptions::baseline(),
    )
    .expect("trace evaluates");

    let prefill: u64 = mix
        .requests()
        .iter()
        .map(|r| model.prefill_macs(r.prompt, chunk, bucket))
        .sum();
    let decode: u64 = schedule
        .steps()
        .iter()
        .flat_map(ServingStep::decode)
        .map(|s| token_macs(&model, s.kv_len, &layout))
        .sum();
    assert_eq!(eval.total_macs(), prefill + decode);

    // The fanned-out trace is bit-identical to a sequential loop over
    // the same step networks through the same session.
    for (point, step) in eval.points.iter().zip(schedule.steps()) {
        let net = model.lower_serving_step_with(step, &layout);
        let reference = session
            .evaluate_network(&net, &NetworkOptions::baseline())
            .expect("step evaluates");
        assert_eq!(point.macs, reference.macs, "wall {}", step.wall());
        assert_eq!(
            point.energy.picojoules().to_bits(),
            reference.energy.total().picojoules().to_bits(),
            "wall {}",
            step.wall()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixes and capacities: the scheduler's conservation laws
    /// hold for any seeded population.
    #[test]
    fn scheduler_conserves_tokens(
        seed in 0usize..1000,
        count in 1usize..=24,
        capacity in 1usize..=12,
        long_percent in 0usize..=100,
    ) {
        let mix = RequestMix::bimodal(seed as u64, count, (16, 3), (128, 11), long_percent);
        let schedule = resident(&mix, capacity);
        prop_assert_eq!(schedule.total_decode_tokens(), mix.total_output_tokens());
        prop_assert!(schedule
            .steps()
            .iter()
            .all(|s| s.occupancy() >= 1 && s.occupancy() <= capacity));
        prop_assert!(schedule.mean_occupancy() > 0.0 && schedule.mean_occupancy() <= 1.0);
        // Steps are bounded: perfect packing below, serial above.
        let tokens = mix.total_output_tokens() as usize;
        prop_assert!(schedule.total_steps() >= tokens.div_ceil(capacity));
        prop_assert!(schedule.total_steps() <= tokens);
        assert_tokens_exactly_once(&mix, &schedule);
    }

    /// Random active sets: the lowering's closed form matches the layer
    /// sum, and the bucketed composition covers the whole active set.
    #[test]
    fn lowering_macs_match_for_random_active_sets(
        seed in 0usize..1000,
        occupancy in 1usize..=8,
        bucket_pow in 0usize..=8,
    ) {
        let bucket = 1usize << bucket_pow;
        // A deterministic pseudo-random active set from the seed.
        let kv: Vec<usize> = (0..occupancy)
            .map(|i| (seed.wrapping_mul(31).wrapping_add(i * 97)) % 700)
            .collect();
        let model = ServingModel::new("toy", 64, 4, 128, 2, 1000);
        let layout = KvLayout::Bucketed { bucket };
        let step = decode_step(&kv);
        let net = model.lower_serving_step_with(&step, &layout);
        prop_assert_eq!(net.total_macs(), model.serving_step_macs_with(&step, &layout));
        let composition = ServingModel::bucketed_composition(&kv, bucket);
        prop_assert_eq!(
            composition.iter().map(|&(_, c)| c).sum::<usize>(),
            occupancy
        );
        // Group count bounds the per-step layer count: 8 layers per
        // block + LM head per group.
        prop_assert_eq!(
            net.layers().len(),
            composition.len() * (2 * 8 + 1)
        );
        for (len, _) in composition {
            prop_assert_eq!(len % bucket, 0, "padded lengths are bucket multiples");
        }
    }
}

// --- paged KV residency (PR 9) --------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page allocation covers the cache — `pages × page_size ≥ kv_len`
    /// — and wastes strictly less than one page per request.
    #[test]
    fn page_allocation_covers_the_cache(
        page in 1usize..=512,
        kv in 0usize..=4096,
    ) {
        let t = PageTable::new(page);
        prop_assert!(t.pages_for(kv) * page >= kv);
        prop_assert_eq!(t.allocated_tokens(kv), t.pages_for(kv) * page);
        prop_assert!(t.allocated_tokens(kv) >= kv);
        prop_assert!(t.fragmentation(kv) < page);
        prop_assert_eq!(t.allocated_tokens(kv) - t.fragmentation(kv), kv);
    }

    /// A one-token page is exact per-token residency: zero
    /// fragmentation and attend lengths of exactly `kv + 1`.
    #[test]
    fn unit_page_recovers_exact_residency(kv in 0usize..=4096) {
        let t = PageTable::new(1);
        prop_assert_eq!(t.allocated_tokens(kv), kv);
        prop_assert_eq!(t.fragmentation(kv), 0);
        prop_assert_eq!(t.attend_len(kv), kv + 1);
    }

    /// Whenever the page tiles the bucket, bucketed accounting is a
    /// sound upper bound on paged residency — per cache length, per
    /// scheduled step, and through the lowering's MAC closed forms.
    #[test]
    fn bucketed_is_an_upper_bound_when_the_page_tiles_the_bucket(
        page_pow in 0usize..=6,
        factor in 1usize..=8,
        seed in 0usize..1000,
        count in 1usize..=16,
        capacity in 1usize..=8,
    ) {
        let page = 1usize << page_pow;
        let bucket = page * factor;
        let paged = PageTable::new(page);
        let bucketed = PageTable::new(bucket);
        for kv in 0..=600 {
            prop_assert!(paged.allocated_tokens(kv) <= bucketed.allocated_tokens(kv));
            prop_assert!(paged.attend_len(kv) <= bucketed.attend_len(kv));
        }
        let mix = RequestMix::bimodal(seed as u64, count, (16, 3), (128, 11), 25);
        let config = ServingConfig::new(capacity)
            .with_prefill(PrefillMode::OnAdmission { chunk: Some(32) });
        let schedule = ServingSchedule::build(&mix, &config);
        for step in schedule.steps() {
            let p = paged.step_residency(step);
            let b = bucketed.step_residency(step);
            prop_assert_eq!(p.used_tokens, b.used_tokens);
            prop_assert!(p.allocated_tokens <= b.allocated_tokens);
            prop_assert!(p.used_tokens <= p.allocated_tokens);
        }
        // The paged lowering's MACs match its closed form and never
        // exceed the bucketed lowering's.
        let model = ServingModel::new("toy", 64, 4, 128, 2, 1000);
        let paged_layout = KvLayout::Paged(paged);
        let bucketed_layout = KvLayout::Bucketed { bucket };
        for step in schedule.steps().iter().take(8) {
            let net = model.lower_serving_step_with(step, &paged_layout);
            prop_assert_eq!(
                net.total_macs(),
                model.serving_step_macs_with(step, &paged_layout)
            );
            prop_assert!(
                model.serving_step_macs_with(step, &paged_layout)
                    <= model.serving_step_macs_with(step, &bucketed_layout)
            );
        }
    }
}

// --- step-cost oracle -------------------------------------------------

/// The small decoder every oracle property lowers: two blocks keep the
/// per-step networks short enough to evaluate hundreds of steps.
fn tiny_model() -> ServingModel {
    ServingModel::new("toy", 64, 4, 128, 2, 1000)
}

/// An open-loop, chunk-prefilled schedule over a seeded bimodal mix,
/// optionally with a shared prompt prefix.
fn oracle_schedule(seed: usize, capacity: usize, shared: usize) -> ServingSchedule {
    let mix = RequestMix::bimodal(seed as u64, 10, (16, 3), (96, 7), 30).with_shared_prefix(shared);
    let config = ServingConfig::new(capacity)
        .with_arrival(ArrivalProcess::poisson(0.5, seed as u64))
        .with_prefill(PrefillMode::OnAdmission { chunk: Some(12) });
    ServingSchedule::build(&mix, &config)
}

/// The three residency layouts the oracle keys under: bucketed, paged,
/// and paged with a page-misaligned shared prefix (copy-on-write).
fn oracle_layouts() -> [(KvLayout, usize); 3] {
    [
        (KvLayout::Bucketed { bucket: 32 }, 0),
        (KvLayout::Paged(PageTable::new(8)), 0),
        (
            KvLayout::Paged(PageTable::new(8).with_shared_prefix(10)),
            10,
        ),
    ]
}

/// Every `(schedule, layout)` pair the oracle properties run: the
/// open-loop schedule under each of [`oracle_layouts`], plus the closed
/// loop with resident prefill over the same population, bucketed.
fn oracle_inputs(seed: usize, capacity: usize) -> Vec<(ServingSchedule, KvLayout)> {
    let mut inputs: Vec<(ServingSchedule, KvLayout)> = oracle_layouts()
        .into_iter()
        .map(|(layout, shared)| (oracle_schedule(seed, capacity, shared), layout))
        .collect();
    let mix = RequestMix::bimodal(seed as u64, 10, (16, 3), (96, 7), 30);
    inputs.push((resident(&mix, capacity), KvLayout::Bucketed { bucket: 32 }));
    inputs
}

/// A point's scalars as raw bits: MACs, energy, cycles, utilization,
/// backing-store accesses.
fn point_bits(p: &ServingStepPoint) -> [u64; 5] {
    [
        p.macs,
        p.energy.picojoules().to_bits(),
        p.cycles.to_bits(),
        p.utilization.to_bits(),
        p.backing_accesses.to_bits(),
    ]
}

/// The per-layer reference: `evaluate_network` on each lowered step,
/// reduced to the same scalars, as raw bits.
fn reference_bits(
    session: &EvalSession,
    nets: impl Iterator<Item = Network>,
    options: &NetworkOptions,
) -> Vec<[u64; 5]> {
    nets.map(|net| {
        let eval = session
            .evaluate_network(&net, options)
            .expect("step evaluates");
        let backing: f64 = eval
            .per_layer
            .iter()
            .filter_map(|l| l.analysis.levels.first())
            .map(LevelTraffic::total_accesses)
            .sum();
        [
            eval.macs,
            eval.energy.total().picojoules().to_bits(),
            eval.cycles.to_bits(),
            eval.average_utilization().to_bits(),
            backing.to_bits(),
        ]
    })
    .collect()
}

/// Steps with equal keys lower to identical signature sequences.
fn assert_equal_keys_lower_alike(
    model: &ServingModel,
    schedule: &ServingSchedule,
    layout: &KvLayout,
) {
    let mut by_key: HashMap<StepKey, Vec<LayerSignature>> = HashMap::new();
    for step in schedule.steps() {
        let signatures: Vec<LayerSignature> = model
            .lower_serving_step_with(step, layout)
            .layers()
            .iter()
            .map(Layer::signature)
            .collect();
        let key = ServingModel::step_key(step, layout);
        let first = by_key.entry(key).or_insert_with(|| signatures.clone());
        assert_eq!(*first, signatures, "wall {}", step.wall());
    }
}

fn toy_session() -> EvalSession {
    EvalSession::new(System::new(toy_arch(), MappingStrategy::default()))
}

/// Every option set the oracle must fold like `evaluate_network`:
/// baseline, batched (the `1/batch` scale) and fused (per-position
/// reroutes).
fn oracle_options() -> [NetworkOptions; 3] {
    [
        NetworkOptions::baseline(),
        NetworkOptions::baseline().with_batch(2),
        NetworkOptions::baseline().with_fusion("dram", "glb"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Equal step keys lower to identical signature sequences, under
    /// every layout — the fact that licenses memoizing whole steps.
    #[test]
    fn equal_step_keys_lower_to_equal_signatures(
        seed in 0usize..1000,
        capacity in 1usize..=6,
    ) {
        let model = tiny_model();
        for (schedule, layout) in oracle_inputs(seed, capacity) {
            assert_equal_keys_lower_alike(&model, &schedule, &layout);
        }
    }

    /// Oracle points equal the per-step `evaluate_network` reference bit
    /// for bit, under every layout and option set, open loop and closed;
    /// hits + misses count every lowered layer, and misses equal the
    /// reference path's.
    #[test]
    fn oracle_points_match_the_per_layer_path_bit_for_bit(
        seed in 0usize..1000,
        capacity in 1usize..=6,
    ) {
        let model = tiny_model();
        for (schedule, layout) in oracle_inputs(seed, capacity) {
            let lowered: Vec<Network> = schedule
                .steps()
                .iter()
                .map(|s| model.lower_serving_step_with(s, &layout))
                .collect();
            let layers: u64 = lowered.iter().map(|n| n.layers().len() as u64).sum();
            for options in oracle_options() {
                let session = toy_session();
                let eval = serving_trace_with(&session, &model, &schedule, &layout, &options)
                    .expect("trace evaluates");
                let reference = toy_session();
                let expected = reference_bits(&reference, lowered.iter().cloned(), &options);
                let got: Vec<[u64; 5]> = eval.points.iter().map(point_bits).collect();
                prop_assert_eq!(got, expected);
                let stats = session.cache_stats();
                prop_assert_eq!(stats.hits + stats.misses, layers);
                prop_assert_eq!(stats.misses, reference.cache_stats().misses);
            }
        }
    }

}

/// A pre-flight session lints each memo-miss step and still matches the
/// reference; an uncached session — the `--no-cache` path — evaluates
/// every layer to the same bits and reports no lookups.
#[test]
fn preflight_and_uncached_sessions_give_identical_points() {
    let model = tiny_model();
    let options = NetworkOptions::baseline();
    for (layout, shared) in oracle_layouts() {
        let schedule = oracle_schedule(7, 4, shared);
        let cached = serving_trace_with(&toy_session(), &model, &schedule, &layout, &options)
            .expect("trace evaluates");
        let expected: Vec<[u64; 5]> = cached.points.iter().map(point_bits).collect();

        let linted = toy_session().with_preflight();
        let eval = serving_trace_with(&linted, &model, &schedule, &layout, &options)
            .expect("a sound system passes pre-flight");
        let got: Vec<[u64; 5]> = eval.points.iter().map(point_bits).collect();
        assert_eq!(got, expected);

        let uncached = toy_session().without_cache();
        let eval = serving_trace_with(&uncached, &model, &schedule, &layout, &options)
            .expect("trace evaluates");
        let got: Vec<[u64; 5]> = eval.points.iter().map(point_bits).collect();
        assert_eq!(got, expected);
        assert_eq!(uncached.cache_stats(), CacheStats::default());
    }
}

/// Copy-on-write is part of the key. On one slot with 12-token chunks
/// over 8-token pages, the prefix owner's second chunk (cached 12) and
/// each sharer's first chunk (cached 10, 2 copied tokens) pad to the
/// same attend length with the same chunk: only the copy tells them
/// apart, and the oracle must not serve one for the other.
#[test]
fn copy_on_write_separates_otherwise_equal_steps() {
    let model = tiny_model();
    let mix = RequestMix::custom("cow", vec![Request::new(96, 2); 3]).with_shared_prefix(10);
    let config = ServingConfig::new(1).with_prefill(PrefillMode::OnAdmission { chunk: Some(12) });
    let schedule = ServingSchedule::build(&mix, &config);
    let layout = KvLayout::Paged(PageTable::new(8).with_shared_prefix(10));
    let first_chunks: Vec<_> = schedule
        .steps()
        .iter()
        .filter(|s| {
            s.prefill()
                .iter()
                .any(|p| p.shared > 0 && p.cached == p.shared)
        })
        .collect();
    assert_eq!(first_chunks.len(), 2, "two sharers");
    assert_equal_keys_lower_alike(&model, &schedule, &layout);

    let options = NetworkOptions::baseline();
    let eval = serving_trace_with(&toy_session(), &model, &schedule, &layout, &options)
        .expect("trace evaluates");
    let nets = schedule
        .steps()
        .iter()
        .map(|s| model.lower_serving_step_with(s, &layout));
    let got: Vec<[u64; 5]> = eval.points.iter().map(point_bits).collect();
    assert_eq!(got, reference_bits(&toy_session(), nets, &options));
}
