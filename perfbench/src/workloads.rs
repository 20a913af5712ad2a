//! The three workloads, each through `lumen`'s public entry points.
//!
//! A workload is a [`Bench`]: `setup` builds everything one timed call
//! needs from the generated inputs, `run` is the timed entry-point call,
//! `verify` checks its outputs and digests its simulated statistics, and
//! `replay` repeats the same call one layer at a time from the
//! benchmark's own code, so the traced run can time each layer and
//! prove that the replica matches the real call bit for bit.

use crate::inputs::{DesignInput, ServingInputs};
use crate::median;
use crate::trace::Tracer;
use lumen_albireo::{AlbireoConfig, DigitalBaseline, ScalingProfile};
use lumen_core::dse::{self, DesignPoint, SweepEntry};
use lumen_core::{
    fleet_trace, scenario_trace, EvalCache, EvalSession, FleetEvaluation, FleetInstance,
    MappingStrategy, NetworkEvaluation, NetworkOptions, Percentiles, ServingEvaluation,
    ServingStepPoint, SweepRunner, System,
};
use lumen_lint::{FleetSpec, LintRegistry, LintTarget, ServingSpec};
use lumen_mapper::search::SearchConfig;
use lumen_workload::serving::{
    ArrivalProcess, Fleet, FleetRouter, InstanceAssignment, KvLayout, RequestMix, ServingModel,
    ServingScenario, ServingSchedule,
};
use lumen_workload::{LayerSignature, Network};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Decode slots of the single paged instance.
const SERVING_CAPACITY: usize = 12;
/// KV page, tokens.
const SERVING_PAGE: usize = 16;
/// Shared system-prompt prefix, tokens (deliberately not page-aligned).
const SERVING_SHARED_PREFIX: usize = 40;
/// Chunked-prefill quantum, tokens; also the KV bucket.
const CHUNK: usize = 256;
/// Requests in the paged serving trace.
const SERVING_REQUESTS: usize = 300;
/// Scheduler steps the paged trace's arrivals spread over.
const SERVING_WINDOW: usize = 900;

/// Requests in the fleet stream.
const FLEET_REQUESTS: usize = 300;
/// Scheduler steps the fleet stream's arrivals spread over.
const FLEET_WINDOW: usize = 450;
/// Decode slots of each photonic fleet instance.
const FLEET_PHOTONIC_CAPACITY: usize = 4;
/// Decode slots of each digital fleet instance.
const FLEET_DIGITAL_CAPACITY: usize = 8;

/// Share of long-document requests in both streams, percent.
const LONG_PERCENT: usize = 25;

/// Random-search candidates per layer in the design sweep.
const SEARCH_ITERATIONS: usize = 128;
/// Design points the fan-out probe evaluates.
const FANOUT_DESIGNS: usize = 4;
/// Every this-many-th step joins the fan-out probe's step sample.
const FANOUT_STEP_STRIDE: usize = 8;
/// Timed rounds per side of the fan-out probe.
const FANOUT_ROUNDS: usize = 3;

/// Checked outcome of one timed call.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Operations the call performed.
    pub operations: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// What failed.
    pub notes: Vec<String>,
    /// FNV-1a digest of the simulated statistics.
    pub digest: u64,
}

impl Verdict {
    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) -> bool {
        if !ok {
            self.notes.push(note());
        }
        ok
    }
}

/// Work counted by a replayed call; equal across replays of one input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Scheduler steps replayed.
    pub steps: u64,
    /// Layers the lowered steps hold.
    pub lowered_layers: u64,
    /// `EvalSession::evaluate_network` calls.
    pub eval_calls: u64,
    /// Layer lookups answered without a search.
    pub cache_hits: u64,
    /// Layer lookups that searched.
    pub cache_misses: u64,
    /// `System::map_layer` calls replayed for the misses.
    pub searches: u64,
}

/// One workload.
pub trait Bench {
    /// What one timed call needs, built by [`Bench::setup`].
    type Setup;
    /// What one timed call returns.
    type Output;

    /// Operations one timed call performs.
    fn operations(&self) -> u64;

    /// Builds systems, sessions, scenarios and runs the lint pre-flight.
    ///
    /// # Errors
    ///
    /// A scenario that does not validate or a pre-flight error.
    fn setup(&self, tr: &mut Tracer) -> Result<Self::Setup, String>;

    /// The timed entry-point call (plus the summary statistics a study
    /// reads off its result).
    ///
    /// # Errors
    ///
    /// The entry point's error.
    fn run(&self, setup: &mut Self::Setup, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks `out` and digests its simulated statistics.
    fn verify(&self, out: &Self::Output) -> Verdict;

    /// Repeats `run` one layer call at a time on a fresh `setup`,
    /// checking every evaluation against `out`.
    ///
    /// # Errors
    ///
    /// A failing call, or a replica result that differs from `out`.
    fn replay(
        &self,
        setup: Self::Setup,
        out: &Self::Output,
        tr: &mut Tracer,
    ) -> Result<Counts, String>;

    /// Time of `evaluate_network` on the default (machine-wide) runner
    /// over a one-worker runner, on a fixed sample of this workload.
    ///
    /// # Errors
    ///
    /// A failing evaluation.
    fn fanout_penalty(&self, setup: Self::Setup) -> Result<f64, String>;
}

/// Worker count of the library's default runner on this machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn one_worker(system: System) -> EvalSession {
    EvalSession::new(system).with_runner(SweepRunner::with_threads(1))
}

fn photonic_system() -> System {
    AlbireoConfig::new(ScalingProfile::Aggressive).build_system()
}

fn err(e: impl ToString) -> String {
    e.to_string()
}

/// The lint pre-flight the CLI runs before a serving or fleet study:
/// every session's architecture and strategy, then the scenario (and
/// fleet) description.
fn preflight(
    sessions: &[&EvalSession],
    model: &ServingModel,
    scenario: &ServingScenario,
    fleet: Option<&Fleet>,
) -> Result<(), String> {
    for session in sessions {
        let report = session.preflight(None);
        if !report.is_clean() {
            return Err(report.render_text());
        }
    }
    let mut spec = ServingSpec::from_scenario(scenario);
    if spec.max_context.is_none() {
        spec.max_context = model.max_context();
    }
    let router = fleet.map(|f| f.router().to_string()).unwrap_or_default();
    let fleet_spec = fleet.map(|f| FleetSpec {
        stream: spec.clone(),
        instances: f.instances(),
        aggregate_capacity: f.aggregate_capacity(),
        router: &router,
    });
    let mut target = LintTarget::new().with_serving(&spec);
    if let Some(fleet_spec) = &fleet_spec {
        target = target.with_fleet(fleet_spec);
    }
    let report = LintRegistry::with_default_lints().run(&target);
    if report.is_clean() {
        Ok(())
    } else {
        Err(report.render_text())
    }
}

/// 64-bit FNV-1a over the simulated statistics of a call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in an integer.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds in a float, bit for bit.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    fn percentiles(&mut self, p: &Percentiles) {
        for x in [p.p50, p.p95, p.p99] {
            self.float(x);
        }
    }

    fn serving(&mut self, eval: &ServingEvaluation) {
        self.word(eval.points.len() as u64);
        self.word(eval.total_tokens());
        self.word(eval.total_prefill_tokens());
        self.float(eval.total_backing_accesses());
        for p in &eval.points {
            self.word(p.macs);
            self.float(p.energy.picojoules());
            self.float(p.cycles);
        }
        for r in &eval.requests {
            self.word(r.generated as u64);
            self.float(r.first_token_cycles);
            self.float(r.retire_cycles);
        }
    }
}

/// Energies must be finite and positive.
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Checks one instance trace: a latency record per routed request with
/// the tokens it asked for, and finite positive step energies.
fn check_trace(
    v: &mut Verdict,
    what: &str,
    eval: &ServingEvaluation,
    requests: &[usize],
    inputs: &ServingInputs,
) -> bool {
    let mut ok = v.check(eval.requests.len() == requests.len(), || {
        format!(
            "{what}: {} latency records for {} requests",
            eval.requests.len(),
            requests.len()
        )
    });
    for (record, &global) in eval.requests.iter().zip(requests) {
        let want = inputs.requests[global].output;
        ok &= v.check(record.generated == want, || {
            format!(
                "{what}: request {global} generated {} of {want} tokens",
                record.generated
            )
        });
    }
    let energies = eval.points.iter().all(|p| positive(p.energy.picojoules()));
    ok &= v.check(
        energies && positive(eval.total_energy().picojoules()),
        || format!("{what}: a step energy is not finite and positive"),
    );
    ok
}

/// Lowers and evaluates every step of `schedule` on `session`, exactly
/// as `serving_trace_with` does, checking each step against
/// `expected`; replays the mapping search of every layer the session
/// had not seen.
#[allow(clippy::too_many_arguments)]
fn replay_steps(
    session: &EvalSession,
    model: &ServingModel,
    schedule: &ServingSchedule,
    layout: &KvLayout,
    expected: &[ServingStepPoint],
    seen: &mut HashSet<LayerSignature>,
    counts: &mut Counts,
    tr: &mut Tracer,
) -> Result<(), String> {
    if schedule.steps().len() != expected.len() {
        return Err(format!(
            "replayed schedule has {} steps, the entry point {}",
            schedule.steps().len(),
            expected.len()
        ));
    }
    let options = NetworkOptions::baseline();
    for (i, (step, point)) in schedule.steps().iter().zip(expected).enumerate() {
        let net = tr.span("workload.lower", |_| {
            model.lower_serving_step_with(step, layout)
        });
        counts.steps += 1;
        counts.lowered_layers += net.layers().len() as u64;
        let misses = session.cache_stats().misses;
        let id = tr.open("core.eval_hit");
        let eval = session.evaluate_network(&net, &options).map_err(err)?;
        tr.close(id);
        counts.eval_calls += 1;
        let missed = session.cache_stats().misses > misses;
        if missed {
            tr.rename(id, "core.eval_miss");
            replay_searches(session.system(), &net, &eval, seen, counts, tr)?;
        }
        if eval.macs != point.macs
            || eval.energy.total() != point.energy
            || eval.cycles.to_bits() != point.cycles.to_bits()
        {
            return Err(format!("replayed step {i} differs from the entry point's"));
        }
    }
    Ok(())
}

/// Replays `System::map_layer` and the nest analysis for every layer of
/// `net` whose signature is new, checking each against the session's
/// evaluation of it.
fn replay_searches(
    system: &System,
    net: &Network,
    eval: &NetworkEvaluation,
    seen: &mut HashSet<LayerSignature>,
    counts: &mut Counts,
    tr: &mut Tracer,
) -> Result<(), String> {
    for (layer, cached) in net.layers().iter().zip(&eval.per_layer) {
        if !seen.insert(layer.signature()) {
            continue;
        }
        let mapping = tr
            .span("mapper.search", |_| system.map_layer(layer))
            .map_err(err)?;
        counts.searches += 1;
        let direct = tr
            .span("mapper.analyze", |_| {
                system.evaluate_layer_with_mapping(layer, mapping)
            })
            .map_err(err)?;
        if direct.energy.total() != cached.energy.total() {
            return Err(format!(
                "replayed search of {} differs from the cached evaluation",
                layer.name()
            ));
        }
    }
    Ok(())
}

fn add_stats(counts: &mut Counts, session: &EvalSession) {
    let stats = session.cache_stats();
    counts.cache_hits += stats.hits;
    counts.cache_misses += stats.misses;
}

/// Default-runner ÷ one-worker time of `evaluate_network` over every
/// [`FANOUT_STEP_STRIDE`]-th step of `schedule`, both sessions sharing
/// one cache warmed beforehand — the per-step thread fan-out on the
/// all-hit path.
fn step_fanout_penalty(
    system: &System,
    model: &ServingModel,
    schedule: &ServingSchedule,
    layout: &KvLayout,
) -> Result<f64, String> {
    let nets: Vec<Network> = schedule
        .steps()
        .iter()
        .step_by(FANOUT_STEP_STRIDE)
        .map(|step| model.lower_serving_step_with(step, layout))
        .collect();
    let cache = EvalCache::shared();
    let session = |threads| {
        EvalSession::new(system.clone())
            .with_cache(Arc::clone(&cache))
            .with_runner(SweepRunner::with_threads(threads))
    };
    let (one, many) = (session(1), session(default_threads()));
    let options = NetworkOptions::baseline();
    let time = |s: &EvalSession| -> Result<f64, String> {
        let t = Instant::now();
        for net in &nets {
            s.evaluate_network(net, &options).map_err(err)?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    time(&one)?;
    let (mut t_one, mut t_many) = (Vec::new(), Vec::new());
    for round in 0..FANOUT_ROUNDS {
        if round % 2 == 0 {
            t_one.push(time(&one)?);
            t_many.push(time(&many)?);
        } else {
            t_many.push(time(&many)?);
            t_one.push(time(&one)?);
        }
    }
    Ok(median(&t_many) / median(&t_one))
}

// ---------------------------------------------------------------------
// serving-paged-poisson

/// One photonic Albireo instance (aggressive corner) serving GPT-2 small
/// under paged KV with a shared prefix and chunked prefill.
pub struct ServingPaged {
    inputs: ServingInputs,
    model: ServingModel,
}

/// Set-up of [`ServingPaged`].
pub struct ServingSetup {
    session: EvalSession,
    scenario: ServingScenario,
}

/// Output of [`ServingPaged`].
pub struct ServingOutput {
    eval: ServingEvaluation,
    ttft: Percentiles,
    tbt: Percentiles,
}

impl ServingPaged {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> ServingPaged {
        ServingPaged {
            inputs: ServingInputs::bimodal_poisson(
                seed,
                SERVING_REQUESTS,
                LONG_PERCENT,
                SERVING_WINDOW,
            ),
            model: ServingModel::gpt2_small(),
        }
    }
}

impl Bench for ServingPaged {
    type Setup = ServingSetup;
    type Output = ServingOutput;

    fn operations(&self) -> u64 {
        1
    }

    fn setup(&self, tr: &mut Tracer) -> Result<ServingSetup, String> {
        let system = tr.span("albireo.build_system", |_| photonic_system());
        let session = one_worker(system);
        let mix = RequestMix::try_custom("serving-paged-poisson", self.inputs.requests.clone())
            .map_err(err)?;
        let scenario = ServingScenario::builder(mix, SERVING_CAPACITY)
            .kv_bucket(CHUNK)
            .kv_page(SERVING_PAGE)
            .shared_prefix(SERVING_SHARED_PREFIX)
            .arrival(ArrivalProcess::try_explicit(self.inputs.arrivals.clone()).map_err(err)?)
            .prefill_chunk(CHUNK)
            .build()
            .map_err(err)?;
        tr.span("lint.preflight", |_| {
            preflight(&[&session], &self.model, &scenario, None)
        })?;
        Ok(ServingSetup { session, scenario })
    }

    fn run(&self, setup: &mut ServingSetup, tr: &mut Tracer) -> Result<ServingOutput, String> {
        let options = NetworkOptions::baseline();
        let eval =
            scenario_trace(&setup.session, &self.model, &setup.scenario, &options).map_err(err)?;
        let clock = setup.session.system().arch().clock();
        let (ttft, tbt) = tr.span("core.percentiles", |_| {
            (eval.ttft_percentiles(clock), eval.tbt_percentiles(clock))
        });
        Ok(ServingOutput { eval, ttft, tbt })
    }

    fn verify(&self, out: &ServingOutput) -> Verdict {
        let mut v = Verdict {
            operations: 1,
            ..Verdict::default()
        };
        let want = self.inputs.total_output_tokens();
        let mut ok = v.check(out.eval.total_tokens() == want, || {
            format!("generated {} of {want} tokens", out.eval.total_tokens())
        });
        let all: Vec<usize> = (0..self.inputs.requests.len()).collect();
        ok &= check_trace(&mut v, "trace", &out.eval, &all, &self.inputs);
        v.failed = u64::from(!ok);
        let mut d = Digest::default();
        d.serving(&out.eval);
        d.percentiles(&out.ttft);
        d.percentiles(&out.tbt);
        v.digest = d.value();
        v
    }

    fn replay(
        &self,
        setup: ServingSetup,
        out: &ServingOutput,
        tr: &mut Tracer,
    ) -> Result<Counts, String> {
        let schedule = tr.span("workload.schedule", |_| setup.scenario.schedule());
        let mut counts = Counts::default();
        replay_steps(
            &setup.session,
            &self.model,
            &schedule,
            setup.scenario.layout(),
            &out.eval.points,
            &mut HashSet::new(),
            &mut counts,
            tr,
        )?;
        add_stats(&mut counts, &setup.session);
        Ok(counts)
    }

    fn fanout_penalty(&self, setup: ServingSetup) -> Result<f64, String> {
        step_fanout_penalty(
            setup.session.system(),
            &self.model,
            &setup.scenario.schedule(),
            setup.scenario.layout(),
        )
    }
}

// ---------------------------------------------------------------------
// fleet-hetero-jsq

/// One Poisson stream routed join-shortest-queue over two photonic and
/// two digital-baseline instances, all bucketed.
pub struct FleetHetero {
    inputs: ServingInputs,
    model: ServingModel,
}

/// Set-up of [`FleetHetero`]: one session per architecture, shared by
/// its instances, and the dispatched sub-streams.
pub struct FleetSetup {
    photonic: EvalSession,
    digital: EvalSession,
    assignments: Vec<InstanceAssignment>,
}

impl FleetSetup {
    /// The session serving `instance` (photonic first, then digital).
    fn session(&self, instance: usize) -> &EvalSession {
        if instance < 2 {
            &self.photonic
        } else {
            &self.digital
        }
    }
}

/// Output of [`FleetHetero`].
pub struct FleetOutput {
    eval: FleetEvaluation,
    ttft: Percentiles,
    tbt: Percentiles,
}

impl FleetHetero {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> FleetHetero {
        FleetHetero {
            inputs: ServingInputs::bimodal_poisson(
                seed,
                FLEET_REQUESTS,
                LONG_PERCENT,
                FLEET_WINDOW,
            ),
            model: ServingModel::gpt2_small(),
        }
    }
}

impl Bench for FleetHetero {
    type Setup = FleetSetup;
    type Output = FleetOutput;

    fn operations(&self) -> u64 {
        1
    }

    fn setup(&self, tr: &mut Tracer) -> Result<FleetSetup, String> {
        let photonic = one_worker(tr.span("albireo.build_system", |_| photonic_system()));
        let digital = one_worker(tr.span("albireo.build_system", |_| {
            DigitalBaseline::new().build_system()
        }));
        let mix = RequestMix::try_custom("fleet-hetero-jsq", self.inputs.requests.clone())
            .map_err(err)?;
        let arrival = ArrivalProcess::try_explicit(self.inputs.arrivals.clone()).map_err(err)?;
        let template = |capacity| {
            ServingScenario::builder(mix.clone(), capacity)
                .kv_bucket(CHUNK)
                .arrival(arrival.clone())
                .prefill_chunk(CHUNK)
                .build()
                .map_err(err)
        };
        let (p, d) = (
            template(FLEET_PHOTONIC_CAPACITY)?,
            template(FLEET_DIGITAL_CAPACITY)?,
        );
        let fleet = Fleet::try_heterogeneous(
            p.clone(),
            vec![p.clone(), p, d.clone(), d],
            FleetRouter::JoinShortestQueue,
        )
        .map_err(err)?;
        tr.span("lint.preflight", |_| {
            preflight(
                &[&photonic, &digital],
                &self.model,
                fleet.stream(),
                Some(&fleet),
            )
        })?;
        let assignments = tr
            .span("workload.dispatch", |_| fleet.dispatch())
            .map_err(err)?;
        Ok(FleetSetup {
            photonic,
            digital,
            assignments,
        })
    }

    fn run(&self, setup: &mut FleetSetup, tr: &mut Tracer) -> Result<FleetOutput, String> {
        let instances: Vec<FleetInstance<'_>> = setup
            .assignments
            .iter()
            .map(|assignment| FleetInstance {
                session: setup.session(assignment.instance),
                model: &self.model,
                assignment,
            })
            .collect();
        let eval = fleet_trace(&instances, &NetworkOptions::baseline()).map_err(err)?;
        let (ttft, tbt) = tr.span("core.percentiles", |_| {
            (eval.ttft_percentiles(), eval.tbt_percentiles())
        });
        Ok(FleetOutput { eval, ttft, tbt })
    }

    fn verify(&self, out: &FleetOutput) -> Verdict {
        let mut v = Verdict {
            operations: 1,
            ..Verdict::default()
        };
        let n = self.inputs.requests.len();
        let mut routed: Vec<usize> = out
            .eval
            .instances
            .iter()
            .flat_map(|i| i.requests.iter().copied())
            .collect();
        routed.sort_unstable();
        let mut ok = v.check(routed == (0..n).collect::<Vec<_>>(), || {
            format!(
                "{} routed requests are not a partition of the {n} offered",
                routed.len()
            )
        });
        let want = self.inputs.total_output_tokens();
        ok &= v.check(out.eval.total_tokens() == want, || {
            format!(
                "fleet generated {} of {want} tokens",
                out.eval.total_tokens()
            )
        });
        let mut d = Digest::default();
        for inst in &out.eval.instances {
            d.word(inst.instance as u64);
            d.word(inst.requests.len() as u64);
            match &inst.evaluation {
                Some(eval) => {
                    let what = format!("instance {}", inst.instance);
                    ok &= check_trace(&mut v, &what, eval, &inst.requests, &self.inputs);
                    d.serving(eval);
                }
                None => {
                    ok &= v.check(inst.requests.is_empty(), || {
                        format!("instance {} has requests but no trace", inst.instance)
                    });
                }
            }
        }
        d.percentiles(&out.ttft);
        d.percentiles(&out.tbt);
        v.failed = u64::from(!ok);
        v.digest = d.value();
        v
    }

    fn replay(
        &self,
        setup: FleetSetup,
        out: &FleetOutput,
        tr: &mut Tracer,
    ) -> Result<Counts, String> {
        let mut counts = Counts::default();
        let mut seen = [HashSet::new(), HashSet::new()];
        for (assignment, inst) in setup.assignments.iter().zip(&out.eval.instances) {
            let (Some(scenario), Some(eval)) = (&assignment.scenario, &inst.evaluation) else {
                continue;
            };
            let schedule = tr.span("workload.schedule", |_| scenario.schedule());
            replay_steps(
                setup.session(assignment.instance),
                &self.model,
                &schedule,
                scenario.layout(),
                &eval.points,
                &mut seen[usize::from(assignment.instance >= 2)],
                &mut counts,
                tr,
            )?;
        }
        add_stats(&mut counts, &setup.photonic);
        add_stats(&mut counts, &setup.digital);
        Ok(counts)
    }

    fn fanout_penalty(&self, setup: FleetSetup) -> Result<f64, String> {
        let scenario = setup
            .assignments
            .iter()
            .find_map(|a| a.scenario.as_ref())
            .ok_or("the fleet routed no requests")?;
        step_fanout_penalty(
            setup.photonic.system(),
            &self.model,
            &scenario.schedule(),
            scenario.layout(),
        )
    }
}

// ---------------------------------------------------------------------
// dse-search-cold

/// `dse::sweep` of ResNet-18 over a GLB × IR × DRAM grid of Albireo
/// designs, each mapped by its own seeded random search.
pub struct DseSearch {
    designs: Vec<DesignInput>,
    network: Network,
}

/// Set-up of [`DseSearch`]: the design points, consumed by the sweep.
pub struct DseSetup {
    points: Vec<DesignPoint>,
}

impl DseSearch {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> DseSearch {
        DseSearch {
            designs: DesignInput::grid(seed),
            network: lumen_workload::networks::resnet18(),
        }
    }
}

impl Bench for DseSearch {
    type Setup = DseSetup;
    type Output = Vec<SweepEntry>;

    fn operations(&self) -> u64 {
        self.designs.len() as u64
    }

    fn setup(&self, tr: &mut Tracer) -> Result<DseSetup, String> {
        let mut points = Vec::with_capacity(self.designs.len());
        for design in &self.designs {
            let arch = tr.span("albireo.build_system", |_| {
                AlbireoConfig::new(ScalingProfile::Aggressive)
                    .with_glb_mebibytes(design.glb_mib)
                    .with_input_reuse(design.input_reuse)
                    .with_dram(design.dram)
                    .build_arch()
            });
            let system = System::new(
                arch,
                MappingStrategy::RandomSearch(SearchConfig {
                    iterations: SEARCH_ITERATIONS,
                    seed: design.search_seed,
                }),
            );
            tr.span("lint.preflight", |_| {
                let facts = lumen_core::strategy_facts(system.strategy());
                let target = LintTarget::new()
                    .with_arch(system.arch())
                    .with_strategy(&facts)
                    .with_network(&self.network);
                let report = LintRegistry::with_default_lints().run(&target);
                if report.is_clean() {
                    Ok(())
                } else {
                    Err(report.render_text())
                }
            })?;
            points.push(DesignPoint::new(design.label(), system));
        }
        Ok(DseSetup { points })
    }

    fn run(&self, setup: &mut DseSetup, _tr: &mut Tracer) -> Result<Vec<SweepEntry>, String> {
        dse::sweep(std::mem::take(&mut setup.points), &self.network).map_err(err)
    }

    fn verify(&self, out: &Vec<SweepEntry>) -> Verdict {
        let mut v = Verdict {
            operations: self.operations(),
            ..Verdict::default()
        };
        if !v.check(out.len() == self.designs.len(), || {
            format!(
                "{} sweep entries for {} designs",
                out.len(),
                self.designs.len()
            )
        }) {
            v.failed = v.operations;
            return v;
        }
        let macs = self.network.total_macs();
        let mut d = Digest::default();
        for (entry, design) in out.iter().zip(&self.designs) {
            let label = design.label();
            let eval = &entry.evaluation;
            let ok = v.check(entry.label == label, || {
                format!("entry {} out of order (want {label})", entry.label)
            }) & v.check(eval.macs == macs, || {
                format!("{label}: {} MACs, network has {macs}", eval.macs)
            }) & v.check(
                positive(eval.energy.total().picojoules()) && positive(eval.cycles),
                || format!("{label}: energy or cycles not finite and positive"),
            );
            v.failed += u64::from(!ok);
            d.bytes(entry.label.as_bytes());
            d.word(eval.macs);
            d.float(eval.energy.total().picojoules());
            d.float(eval.cycles);
        }
        v.digest = d.value();
        v
    }

    fn replay(
        &self,
        setup: DseSetup,
        out: &Vec<SweepEntry>,
        tr: &mut Tracer,
    ) -> Result<Counts, String> {
        let mut counts = Counts::default();
        for (point, entry) in setup.points.into_iter().zip(out) {
            let session = one_worker(point.system);
            let eval = tr
                .span("core.design_eval", |_| {
                    session.evaluate_network(&self.network, &point.options)
                })
                .map_err(err)?;
            counts.eval_calls += 1;
            let want = &entry.evaluation;
            if eval.macs != want.macs
                || eval.energy.total() != want.energy.total()
                || eval.cycles.to_bits() != want.cycles.to_bits()
            {
                return Err(format!(
                    "replayed design {} differs from the sweep's",
                    point.label
                ));
            }
            replay_searches(
                session.system(),
                &self.network,
                &eval,
                &mut HashSet::new(),
                &mut counts,
                tr,
            )?;
            add_stats(&mut counts, &session);
        }
        Ok(counts)
    }

    fn fanout_penalty(&self, setup: DseSetup) -> Result<f64, String> {
        let points: Vec<DesignPoint> = setup.points.into_iter().take(FANOUT_DESIGNS).collect();
        let time = |threads: usize| -> Result<f64, String> {
            let t = Instant::now();
            for point in &points {
                EvalSession::new(point.system.clone())
                    .with_runner(SweepRunner::with_threads(threads))
                    .evaluate_network(&self.network, &point.options)
                    .map_err(err)?;
            }
            Ok(t.elapsed().as_secs_f64())
        };
        let (mut t_one, mut t_many) = (Vec::new(), Vec::new());
        for round in 0..FANOUT_ROUNDS {
            if round % 2 == 0 {
                t_one.push(time(1)?);
                t_many.push(time(default_threads())?);
            } else {
                t_many.push(time(default_threads())?);
                t_one.push(time(1)?);
            }
        }
        Ok(median(&t_many) / median(&t_one))
    }
}
