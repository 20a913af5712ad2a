//! Serving-trace evaluation: driving a continuous-batching schedule
//! through an [`EvalSession`].
//!
//! [`serving_trace_with`] evaluates every step of an event-driven
//! [`ServingSchedule`] — decode groups and prefill chunks, lowered
//! under a [`KvLayout`] by a [`ServingModel`] — against one session.
//! It reduces the trace to per-step and aggregate serving metrics
//! (generated tokens per second, energy per token, slot occupancy and
//! MAC-weighted compute utilization) and folds the evaluated step
//! durations into per-request [`RequestLatency`] records:
//! time-to-first-token and time-between-tokens percentiles in real time
//! at the system clock. [`scenario_trace`](crate::scenario_trace) runs
//! it on a [`ServingScenario`](lumen_workload::ServingScenario)'s own
//! schedule and layout; a closed loop with
//! [`PrefillMode::Resident`](lumen_workload::PrefillMode::Resident) is
//! the saturation regime, where prompts cost nothing.
//!
//! The step networks are pure functions of each step's *composition*
//! (the padded attend-length classes with group sizes, plus each prefill
//! chunk's padded length, size and copy-on-write), so a thousand-step
//! schedule revisits far fewer distinct compositions. Steps are
//! therefore costed through a per-call step-cost oracle: a step whose
//! composition was already costed is answered from a memo without being
//! lowered, and any other step is lowered and folded layer by layer
//! against compact per-signature records, each looked up in the
//! session's content-addressed cache once. The points are bit-identical
//! to evaluating every step network with
//! [`EvalSession::evaluate_network`], and the session's
//! [`cache_stats`](EvalSession::cache_stats) still count one lookup per
//! lowered layer.
//!
//! # Examples
//!
//! ```
//! use lumen_arch::{ArchBuilder, Domain, Fanout};
//! use lumen_core::{scenario_trace, EvalSession, MappingStrategy, NetworkOptions, System};
//! use lumen_units::{Energy, Frequency};
//! use lumen_workload::serving::{PrefillMode, RequestMix, ServingModel, ServingScenario};
//! use lumen_workload::{Dim, DimSet, TensorSet};
//!
//! let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
//!     .storage("dram", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(100.0))
//!     .write_energy(Energy::from_picojoules(100.0))
//!     .done()
//!     .storage("glb", Domain::DigitalElectrical, TensorSet::all())
//!     .read_energy(Energy::from_picojoules(1.0))
//!     .write_energy(Energy::from_picojoules(1.0))
//!     .fanout(Fanout::new(64).allow(DimSet::from_dims(&[Dim::M, Dim::C, Dim::P])))
//!     .done()
//!     .compute("mac", Domain::DigitalElectrical, Energy::from_picojoules(0.05))
//!     .build()
//!     .unwrap();
//!
//! let session = EvalSession::new(System::new(arch, MappingStrategy::default()));
//! let scenario = ServingScenario::builder(RequestMix::uniform(4, 100, 4), 2)
//!     .kv_bucket(64)
//!     .prefill(PrefillMode::Resident)
//!     .build()
//!     .unwrap();
//! let result = scenario_trace(
//!     &session,
//!     &ServingModel::gpt2_small(),
//!     &scenario,
//!     &NetworkOptions::baseline(),
//! )
//! .unwrap();
//! assert_eq!(result.total_tokens(), 16);
//! assert!(result.pj_per_token() > 0.0);
//! ```

use crate::evaluator::Reroute;
use crate::network::fusion_reroute;
use crate::{CostCategory, EvalSession, LayerEvaluation, NetworkOptions, SystemError};
use lumen_units::{Energy, Frequency};
use lumen_workload::serving::{KvLayout, ServingModel, ServingSchedule, StepKey};
use lumen_workload::{LayerSignature, Network, TensorKind};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One scheduler step of a serving sweep, reduced to scalars so a long
/// trace stays cheap to hold.
#[derive(Debug, Clone)]
pub struct ServingStepPoint {
    /// Step index in the schedule.
    pub step: usize,
    /// Requests decoding this step (each generated one token).
    pub occupancy: usize,
    /// Prompt tokens prefilled this step (always 0 under
    /// [`PrefillMode::Resident`](lumen_workload::PrefillMode::Resident)).
    pub prefill_tokens: usize,
    /// True MACs of the step's lowered network (padded accounting).
    pub macs: u64,
    /// Element accesses (reads + writes + conversions) at the
    /// outermost architecture level — the backing store's traffic, the
    /// quantity bucket padding inflates and paged residency trims.
    pub backing_accesses: f64,
    /// Total energy of the step.
    pub energy: Energy,
    /// Total cycles of the step.
    pub cycles: f64,
    /// MAC-weighted compute utilization of the step, in (0, 1].
    pub utilization: f64,
}

/// Nearest-rank percentiles over a latency sample, in seconds.
///
/// All three are 0.0 for an empty sample — consistent with the
/// guarded aggregate accessors on [`ServingEvaluation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (order irrelevant).
    ///
    /// Textbook nearest rank, computed in integers: the P-th percentile
    /// of `n` sorted samples is the one at rank `ceil(P·n/100)`
    /// (1-based). The previous float formulation (`(q * n).ceil()`)
    /// drifted off by one whenever `q·n` landed an ulp above an integer
    /// — `0.95 × 20 = 19.000000000000004` rounded up to rank 20 —
    /// which exact-value tests now pin.
    pub fn from_samples(mut samples: Vec<f64>) -> Percentiles {
        samples.sort_by(f64::total_cmp);
        let rank = |percent: usize| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let rank = (percent * samples.len()).div_ceil(100).max(1);
            samples[rank - 1]
        };
        Percentiles {
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
        }
    }
}

/// The latency record of one request through an evaluated trace, in
/// cycles at the evaluated system's clock. Cycle timestamps are
/// cumulative evaluated step durations: a step's tokens all complete
/// at the step's end, and the request clock starts at the beginning of
/// the first busy step at or after the request's arrival step (idle
/// gaps are fast-forwarded — a work-conserving server starts prefill
/// the moment a request reaches an idle machine).
#[derive(Debug, Clone)]
pub struct RequestLatency {
    /// Index of the request in its mix.
    pub request: usize,
    /// When the request arrived.
    pub arrival_cycles: f64,
    /// When the request first occupied a slot (prefill or decode).
    pub admission_cycles: f64,
    /// When the request's first generated token completed.
    pub first_token_cycles: f64,
    /// When the request's last token completed.
    pub retire_cycles: f64,
    /// Tokens the request generated.
    pub generated: usize,
    /// Gaps between consecutive token completions (length
    /// `generated - 1`).
    pub token_gap_cycles: Vec<f64>,
}

impl RequestLatency {
    /// Time to first token: arrival to first generated-token
    /// completion (queueing + prefill + the first decode step).
    pub fn ttft_cycles(&self) -> f64 {
        self.first_token_cycles - self.arrival_cycles
    }

    /// Time the request queued before taking a slot.
    pub fn queue_cycles(&self) -> f64 {
        self.admission_cycles - self.arrival_cycles
    }
}

/// The reduced result of a serving sweep: per-step points plus the
/// aggregates serving actually optimizes for.
#[derive(Debug, Clone)]
pub struct ServingEvaluation {
    /// Decode slots of the schedule the sweep evaluated.
    pub capacity: usize,
    /// The KV rounding quantum the steps were lowered with: the bucket
    /// under [`KvLayout::Bucketed`], the page under [`KvLayout::Paged`].
    pub kv_bucket: usize,
    /// One point per scheduler step, execution order.
    pub points: Vec<ServingStepPoint>,
    /// Per-request latency records, ordered by request index. Under a
    /// closed loop every arrival is step 0, so TTFT measures pure
    /// queueing + prefill + first decode.
    pub requests: Vec<RequestLatency>,
}

impl ServingEvaluation {
    /// Tokens generated over the whole trace.
    pub fn total_tokens(&self) -> u64 {
        self.points.iter().map(|p| p.occupancy as u64).sum()
    }

    /// Total MACs of the trace (padded accounting).
    pub fn total_macs(&self) -> u64 {
        self.points.iter().map(|p| p.macs).sum()
    }

    /// Total energy of the trace.
    pub fn total_energy(&self) -> Energy {
        self.points
            .iter()
            .fold(Energy::ZERO, |acc, p| acc + p.energy)
    }

    /// Total cycles of the trace.
    pub fn total_cycles(&self) -> f64 {
        self.points.iter().map(|p| p.cycles).sum()
    }

    /// Prompt tokens prefilled over the whole trace.
    pub fn total_prefill_tokens(&self) -> u64 {
        self.points.iter().map(|p| p.prefill_tokens as u64).sum()
    }

    /// Element accesses at the outermost (backing-store) architecture
    /// level over the whole trace — the DRAM-traffic axis of the
    /// bucketed-vs-paged comparison.
    pub fn total_backing_accesses(&self) -> f64 {
        self.points.iter().map(|p| p.backing_accesses).sum()
    }

    /// Aggregate serving throughput in generated tokens per second:
    /// every step's tokens over every step's wall time at `clock`.
    /// 0.0 for an empty or zero-cycle trace, like every other
    /// aggregate here — a degenerate trace reports zeros, never NaN.
    pub fn tokens_per_second(&self, clock: Frequency) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / (cycles * clock.period().seconds())
    }

    /// Aggregate energy per generated token, in picojoules; 0.0 for a
    /// trace that generated no tokens.
    pub fn pj_per_token(&self) -> f64 {
        let tokens = self.total_tokens();
        if tokens == 0 {
            return 0.0;
        }
        self.total_energy().picojoules() / tokens as f64
    }

    /// Aggregate energy per MAC, in picojoules; 0.0 for an empty
    /// trace.
    pub fn pj_per_mac(&self) -> f64 {
        let macs = self.total_macs();
        if macs == 0 {
            return 0.0;
        }
        self.total_energy().picojoules() / macs as f64
    }

    /// Mean decode-slot occupancy over the trace: in (0, 1] for a
    /// trace with steps, 0.0 for an empty one.
    pub fn mean_occupancy(&self) -> f64 {
        let steps = self.points.len();
        if steps == 0 {
            return 0.0;
        }
        self.total_tokens() as f64 / (steps * self.capacity) as f64
    }

    /// MAC-weighted compute utilization over the whole trace; 0.0 for
    /// an empty trace.
    pub fn average_utilization(&self) -> f64 {
        let total = self.total_macs() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.points
            .iter()
            .map(|p| p.utilization * p.macs as f64 / total)
            .sum()
    }

    /// Time-to-first-token percentiles over all requests, in seconds
    /// of wall time at `clock`.
    pub fn ttft_percentiles(&self, clock: Frequency) -> Percentiles {
        let period = clock.period().seconds();
        Percentiles::from_samples(
            self.requests
                .iter()
                .map(|r| r.ttft_cycles() * period)
                .collect(),
        )
    }

    /// Time-between-tokens percentiles, pooled over every consecutive
    /// token pair of every request, in seconds at `clock`.
    pub fn tbt_percentiles(&self, clock: Frequency) -> Percentiles {
        let period = clock.period().seconds();
        Percentiles::from_samples(
            self.requests
                .iter()
                .flat_map(|r| r.token_gap_cycles.iter().map(|g| g * period))
                .collect(),
        )
    }
}

/// Step membership on the wall clock, the input latency accounting
/// needs alongside the evaluated per-step cycles.
struct StepMembers {
    wall: usize,
    decode: Vec<usize>,
    prefill: Vec<usize>,
}

/// Folds evaluated step durations into per-request latency records.
/// `arrivals` maps request index to arrival step.
fn request_latencies(
    arrivals: &[usize],
    steps: &[StepMembers],
    cycles: &[f64],
) -> Vec<RequestLatency> {
    let requests = steps
        .iter()
        .flat_map(|s| s.prefill.iter().chain(&s.decode))
        .max()
        .map_or(0, |&r| r + 1);
    let mut records: Vec<Option<RequestLatency>> = vec![None; requests];
    // Start time per emitted step, to resolve arrival steps — which may
    // fall in a fast-forwarded idle gap — onto the cycle clock of the
    // first busy step at or after them.
    let mut starts = Vec::with_capacity(steps.len());
    let mut now = 0.0;
    for (step, &dur) in steps.iter().zip(cycles) {
        let (start, end) = (now, now + dur);
        starts.push(start);
        now = end;
        let admit = |request| RequestLatency {
            request,
            arrival_cycles: 0.0,
            admission_cycles: start,
            first_token_cycles: f64::NAN,
            retire_cycles: end,
            generated: 0,
            token_gap_cycles: Vec::new(),
        };
        for &request in &step.prefill {
            records[request].get_or_insert_with(|| admit(request));
        }
        for &request in &step.decode {
            // Every decoding slot completes one token at step end.
            let record = records[request].get_or_insert_with(|| admit(request));
            if record.generated == 0 {
                record.first_token_cycles = end;
            } else {
                record.token_gap_cycles.push(end - record.retire_cycles);
            }
            record.generated += 1;
            record.retire_cycles = end;
        }
    }
    let mut records: Vec<RequestLatency> = records.into_iter().flatten().collect();
    for record in &mut records {
        let wall = arrivals.get(record.request).copied().unwrap_or(0);
        // First emitted step at or after the arrival step (wall steps
        // are increasing): its start is when the server could first see
        // the request.
        let first = steps.partition_point(|s| s.wall < wall);
        record.arrival_cycles = starts.get(first).copied().unwrap_or(0.0);
    }
    records
}

/// What one evaluated step contributes to its [`ServingStepPoint`],
/// plus the step's lowered layer count — the lookups a memo hit
/// answers at once.
#[derive(Debug, Clone, Copy)]
struct StepCost {
    macs: u64,
    backing_accesses: f64,
    energy: Energy,
    cycles: f64,
    utilization: f64,
    layers: u64,
}

impl StepCost {
    fn point(&self, step: usize, occupancy: usize, prefill_tokens: usize) -> ServingStepPoint {
        ServingStepPoint {
            step,
            occupancy,
            prefill_tokens,
            macs: self.macs,
            backing_accesses: self.backing_accesses,
            energy: self.energy,
            cycles: self.cycles,
            utilization: self.utilization,
        }
    }
}

/// One evaluated `(signature, reroute)`, reduced to what the step fold
/// reads. Energy labels are interned ids, so folding a record neither
/// clones a string nor compares one.
#[derive(Debug)]
struct LayerRecord {
    cycles: u64,
    /// The evaluated (batched) layer's MACs — the utilization weight.
    macs: u64,
    utilization: f64,
    /// Accesses at the outermost level, when the analysis has one.
    backing_accesses: Option<f64>,
    energy: Vec<(usize, CostCategory, Option<TensorKind>, Energy)>,
}

/// The step-cost oracle behind [`serving_trace_with`]: one per call,
/// answering a step's [`StepCost`] from
///
/// - a **step memo** keyed on the step's [`StepKey`] — under one
///   model, layout and option set, equal keys lower to identical
///   signature sequences, so a hit skips lowering and evaluation
///   outright and credits the step's layer count to the session's hit
///   counters;
/// - else a **compact fold** of the lowered step against a table of
///   [`LayerRecord`]s keyed by `(signature, reroute)`. A pair the table
///   has not seen goes through the session's cache (which counts the
///   hit or miss exactly as [`EvalSession::evaluate_network`] would);
///   a pair it has seen is a hit. The accumulation replays
///   `evaluate_network`'s — execution order, `EnergyBreakdown::merge`'s
///   zero-skip and first-insertion item order, the `1/batch` scale, the
///   fusion reroutes — so every point is bit-identical to the
///   per-layer path.
///
/// Both tables are off when the session has no cache: `--no-cache`
/// then evaluates every layer of every step.
struct StepOracle<'a> {
    session: &'a EvalSession,
    options: &'a NetworkOptions,
    memo: Option<HashMap<StepKey, StepCost>>,
    slots: Option<HashMap<(LayerSignature, Reroute), usize>>,
    records: Vec<LayerRecord>,
    labels: HashMap<String, usize>,
}

impl<'a> StepOracle<'a> {
    fn new(session: &'a EvalSession, options: &'a NetworkOptions) -> StepOracle<'a> {
        let cached = session.cache().is_some();
        StepOracle {
            session,
            options,
            memo: cached.then(HashMap::new),
            slots: cached.then(HashMap::new),
            records: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// The cost of the step keyed `key`, lowering it with `lower` only
    /// on a memo miss.
    fn cost(
        &mut self,
        key: StepKey,
        lower: impl FnOnce() -> Network,
    ) -> Result<StepCost, SystemError> {
        if let Some(cost) = self.memo.as_ref().and_then(|memo| memo.get(&key)) {
            self.session.credit_hits(cost.layers);
            return Ok(*cost);
        }
        let cost = self.fold(&lower())?;
        if let Some(memo) = &mut self.memo {
            memo.insert(key, cost);
        }
        Ok(cost)
    }

    fn fold(&mut self, network: &Network) -> Result<StepCost, SystemError> {
        self.session.preflight_gate(network)?;
        let batch = self.options.batch.max(1);
        let arch = self.session.system().arch();
        let last = network.layers().len().saturating_sub(1);
        if self.slots.is_none() {
            self.records.clear();
        }
        let mut ids = Vec::with_capacity(network.layers().len());
        let (mut macs, mut hits) = (0u64, 0u64);
        for (i, layer) in network.layers().iter().enumerate() {
            macs += layer.macs();
            let batched = if batch > 1 {
                Cow::Owned(layer.clone().with_batch(batch))
            } else {
                Cow::Borrowed(layer)
            };
            let reroute = fusion_reroute(arch, self.options.fusion.as_ref(), i, last);
            let id = match &mut self.slots {
                Some(slots) => match slots.entry((batched.signature(), reroute)) {
                    Entry::Occupied(slot) => {
                        hits += 1;
                        *slot.get()
                    }
                    Entry::Vacant(slot) => {
                        let eval = self.session.cached_eval(&batched, &slot.key().1)?;
                        let id = self.records.len();
                        self.records.push(record(&mut self.labels, &eval));
                        *slot.insert(id)
                    }
                },
                None => {
                    let eval = self.session.cached_eval(&batched, &reroute)?;
                    self.records.push(record(&mut self.labels, &eval));
                    self.records.len() - 1
                }
            };
            ids.push(id);
        }
        self.session.credit_hits(hits);

        let mut items: Vec<(usize, CostCategory, Option<TensorKind>, Energy)> = Vec::new();
        let mut cycles = 0u64;
        for &id in &ids {
            let record = &self.records[id];
            cycles += record.cycles;
            for &(label, category, tensor, energy) in &record.energy {
                // `EnergyBreakdown::merge`: zero items are skipped and
                // repeats sum into the first insertion.
                if energy == Energy::ZERO {
                    continue;
                }
                match items
                    .iter_mut()
                    .find(|i| i.0 == label && i.1 == category && i.2 == tensor)
                {
                    Some(item) => item.3 += energy,
                    None => items.push((label, category, tensor, energy)),
                }
            }
        }
        let scale = 1.0 / batch as f64;
        let records = || ids.iter().map(|&id| &self.records[id]);
        let evaluated_macs: f64 = records().map(|r| r.macs as f64).sum();
        Ok(StepCost {
            macs,
            backing_accesses: records().filter_map(|r| r.backing_accesses).sum(),
            energy: items.iter().map(|i| i.3 * scale).sum(),
            cycles: cycles as f64 * scale,
            utilization: records()
                .map(|r| r.utilization * r.macs as f64 / evaluated_macs)
                .sum(),
            layers: ids.len() as u64,
        })
    }
}

/// Reduces a layer evaluation to its [`LayerRecord`], interning its
/// energy labels into `labels`.
fn record(labels: &mut HashMap<String, usize>, eval: &LayerEvaluation) -> LayerRecord {
    let energy = eval
        .energy
        .items()
        .iter()
        .map(|item| {
            let label = match labels.get(&item.label) {
                Some(&id) => id,
                None => {
                    let id = labels.len();
                    labels.insert(item.label.clone(), id);
                    id
                }
            };
            (label, item.category, item.tensor, item.energy)
        })
        .collect();
    LayerRecord {
        cycles: eval.analysis.cycles,
        macs: eval.analysis.macs,
        utilization: eval.analysis.utilization,
        backing_accesses: eval
            .analysis
            .levels
            .first()
            .map(lumen_mapper::LevelTraffic::total_accesses),
        energy,
    }
}

/// Evaluates every emitted step of an event-driven [`ServingSchedule`]
/// — decode groups *and* prefill chunks, lowered by
/// [`ServingModel::lower_serving_step_with`] under `layout` — through
/// `session`, in execution order against the session's shared cache,
/// and folds the evaluated step durations into per-request latency
/// records: TTFT/TBT are read off
/// [`ServingEvaluation::ttft_percentiles`] /
/// [`ServingEvaluation::tbt_percentiles`] in real time at the system
/// clock.
///
/// A request's prompt costs MACs, energy and cycles in the step(s) that
/// prefill it, so every point's MACs equal
/// [`ServingModel::serving_step_macs_with`]. Under
/// [`KvLayout::Paged`], attend lengths pad to the page instead of the
/// bucket and shared-prefix copy-on-write is charged on each sharer's
/// first private chunk. Because a page divides the usual bucket, the
/// paged trace's backing-store traffic
/// ([`ServingEvaluation::total_backing_accesses`]) is bounded above by
/// the bucketed trace's — the delta is the padding waste the page
/// table eliminates.
///
/// # Errors
///
/// [`SystemError::NoMapping`] for the first step (in execution order)
/// with an unmappable layer.
pub fn serving_trace_with(
    session: &EvalSession,
    model: &ServingModel,
    schedule: &ServingSchedule,
    layout: &KvLayout,
    options: &NetworkOptions,
) -> Result<ServingEvaluation, SystemError> {
    let mut oracle = StepOracle::new(session, options);
    let points = schedule
        .steps()
        .iter()
        .enumerate()
        .map(|(step, state)| {
            let key = ServingModel::step_key(state, layout);
            let cost = oracle.cost(key, || model.lower_serving_step_with(state, layout))?;
            Ok(cost.point(step, state.decode().len(), state.prefill_tokens()))
        })
        .collect::<Result<Vec<_>, SystemError>>()?;
    let members: Vec<StepMembers> = schedule
        .steps()
        .iter()
        .map(|state| StepMembers {
            wall: state.wall(),
            decode: state.decode().iter().map(|s| s.request).collect(),
            prefill: state.prefill().iter().map(|s| s.request).collect(),
        })
        .collect();
    let cycles: Vec<f64> = points.iter().map(|p| p.cycles).collect();
    let requests = request_latencies(schedule.arrivals(), &members, &cycles);
    Ok(ServingEvaluation {
        capacity: schedule.capacity(),
        kv_bucket: layout.quantum(),
        points,
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappingStrategy, System};
    use lumen_arch::{ArchBuilder, Domain, Fanout};
    use lumen_workload::serving::{PageTable, PrefillMode, RequestMix, ServingConfig};
    use lumen_workload::{Dim, DimSet, TensorSet};

    fn session() -> EvalSession {
        let arch = ArchBuilder::new("toy", Frequency::from_gigahertz(1.0))
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
            .unwrap();
        EvalSession::new(System::new(arch, MappingStrategy::default()))
    }

    /// The closed-loop, FIFO, resident-prefill schedule of `mix`.
    fn resident(mix: &RequestMix, capacity: usize) -> ServingSchedule {
        let config = ServingConfig::new(capacity).with_prefill(PrefillMode::Resident);
        ServingSchedule::build(mix, &config)
    }

    fn bucketed(bucket: usize) -> KvLayout {
        KvLayout::Bucketed { bucket }
    }

    /// A one-request step membership: `request` decoding at `wall`.
    fn decoding(wall: usize, request: usize) -> StepMembers {
        StepMembers {
            wall,
            decode: vec![request],
            prefill: Vec::new(),
        }
    }

    #[test]
    fn arrivals_in_an_idle_gap_start_at_the_next_busy_step() {
        // Busy at walls 0, 1, 5, 6; walls 2–4 were fast-forwarded.
        let steps = [
            decoding(0, 0),
            decoding(1, 0),
            decoding(5, 1),
            decoding(6, 1),
        ];
        let cycles = [10.0, 20.0, 30.0, 40.0];
        let records = request_latencies(&[0, 3], &steps, &cycles);
        assert_eq!(records.len(), 2);
        // Request 1 arrived at wall 3, inside the gap: its clock starts
        // when the wall-5 step does, after 30 cycles of work.
        let r = &records[1];
        assert_eq!(r.request, 1);
        assert_eq!(r.arrival_cycles, 30.0);
        assert_eq!(r.admission_cycles, 30.0);
        assert_eq!(r.first_token_cycles, 60.0);
        assert_eq!(r.token_gap_cycles, vec![40.0]);
        assert_eq!(r.ttft_cycles(), 30.0);
    }

    #[test]
    fn arrivals_after_the_last_busy_step_fall_back_to_the_origin() {
        let steps = [decoding(0, 0), decoding(1, 0)];
        let records = request_latencies(&[9], &steps, &[5.0, 5.0]);
        // No step at or after wall 9: the record keeps the trace origin.
        assert_eq!(records[0].arrival_cycles, 0.0);
        assert_eq!(records[0].retire_cycles, 10.0);
        assert_eq!(records[0].generated, 2);
    }

    #[test]
    fn preflight_gates_memo_missing_steps() {
        // A negative read energy passes the builder but not the lint.
        let arch = ArchBuilder::new("bad", Frequency::from_gigahertz(1.0))
            .storage("dram", Domain::DigitalElectrical, TensorSet::all())
            .read_energy(Energy::from_picojoules(-5.0))
            .done()
            .compute("mac", Domain::DigitalElectrical, Energy::ZERO)
            .build()
            .unwrap();
        let session =
            EvalSession::new(System::new(arch, MappingStrategy::default())).with_preflight();
        let schedule = resident(&RequestMix::uniform(2, 16, 2), 2);
        let model = ServingModel::gpt2_small();
        let options = NetworkOptions::baseline();
        let err =
            serving_trace_with(&session, &model, &schedule, &bucketed(64), &options).unwrap_err();
        assert!(matches!(err, SystemError::Preflight { .. }), "{err}");
        assert_eq!(session.cache_stats().misses, 0, "nothing was searched");
    }

    #[test]
    fn sweep_aggregates_match_schedule() {
        let session = session();
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(4, 100, 4);
        let schedule = resident(&mix, 2);
        let layout = bucketed(64);
        let result = serving_trace_with(
            &session,
            &model,
            &schedule,
            &layout,
            &NetworkOptions::baseline(),
        )
        .unwrap();
        assert_eq!(result.points.len(), schedule.total_steps());
        assert_eq!(result.total_tokens(), mix.total_output_tokens());
        assert!((result.mean_occupancy() - schedule.mean_occupancy()).abs() < 1e-12);
        // Per-step MACs match the lowering's closed form.
        for (point, step) in result.points.iter().zip(schedule.steps()) {
            assert_eq!(point.macs, model.serving_step_macs_with(step, &layout));
            assert!(point.energy > Energy::ZERO);
            assert!(point.cycles > 0.0);
            assert!(point.utilization > 0.0 && point.utilization <= 1.0 + 1e-9);
        }
        assert!(result.pj_per_token() > 0.0);
        assert!(result.pj_per_mac() > 0.0);
        assert!(result.tokens_per_second(Frequency::from_gigahertz(1.0)) > 0.0);
        let util = result.average_utilization();
        assert!(util > 0.0 && util <= 1.0 + 1e-9);
        // The uniform full-occupancy trace revisits one composition:
        // mapping searches stay a tiny fraction of the layer evals.
        let stats = session.cache_stats();
        assert!(stats.hit_rate() > 0.8, "hit rate {:.3}", stats.hit_rate());
    }

    #[test]
    fn empty_and_degenerate_traces_report_zeros_not_nan() {
        let empty = ServingEvaluation {
            capacity: 4,
            kv_bucket: 64,
            points: Vec::new(),
            requests: Vec::new(),
        };
        let clock = Frequency::from_gigahertz(1.0);
        // All five aggregates guard the division the same way.
        assert_eq!(empty.tokens_per_second(clock), 0.0);
        assert_eq!(empty.pj_per_token(), 0.0);
        assert_eq!(empty.pj_per_mac(), 0.0);
        assert_eq!(empty.mean_occupancy(), 0.0);
        assert_eq!(empty.average_utilization(), 0.0);
        let p = empty.ttft_percentiles(clock);
        assert_eq!((p.p50, p.p95, p.p99), (0.0, 0.0, 0.0));
        assert_eq!(empty.tbt_percentiles(clock).p99, 0.0);

        // A trace whose steps carry no work (all-zero point) stays
        // finite too.
        let degenerate = ServingEvaluation {
            capacity: 1,
            kv_bucket: 64,
            points: vec![ServingStepPoint {
                step: 0,
                occupancy: 0,
                prefill_tokens: 0,
                macs: 0,
                backing_accesses: 0.0,
                energy: Energy::ZERO,
                cycles: 0.0,
                utilization: 0.0,
            }],
            requests: Vec::new(),
        };
        assert_eq!(degenerate.tokens_per_second(clock), 0.0);
        assert_eq!(degenerate.pj_per_token(), 0.0);
        assert_eq!(degenerate.pj_per_mac(), 0.0);
        assert_eq!(degenerate.mean_occupancy(), 0.0);
        assert_eq!(degenerate.average_utilization(), 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = Percentiles::from_samples((1..=100).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        let single = Percentiles::from_samples(vec![7.0]);
        assert_eq!((single.p50, single.p95, single.p99), (7.0, 7.0, 7.0));
        let two = Percentiles::from_samples(vec![3.0, 1.0]);
        assert_eq!(two.p50, 1.0);
        assert_eq!(two.p99, 3.0);
    }

    #[test]
    fn percentiles_match_the_textbook_ranks_exactly() {
        // n = 20 is the float-drift regression: 0.95 × 20 =
        // 19.000000000000004, whose ceil() is 20 — one rank too high.
        // Textbook nearest rank: ceil(95·20/100) = 19.
        let p = Percentiles::from_samples((1..=20).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (10.0, 19.0, 20.0));
        // Same drift class at n = 40: ceil(0.95·40) must be 38, and
        // p50 of an even count is the lower of the middle pair.
        let p = Percentiles::from_samples((1..=40).map(f64::from).collect());
        assert_eq!((p.p50, p.p95, p.p99), (20.0, 38.0, 40.0));
        // Two samples: rank(50) = ceil(100/100) = 1, rank(95) =
        // ceil(190/100) = 2.
        let p = Percentiles::from_samples(vec![1.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (1.0, 3.0, 3.0));
        // Three samples: p50 is the true median.
        let p = Percentiles::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!((p.p50, p.p95, p.p99), (3.0, 5.0, 5.0));
        // Unsorted input and an exact-boundary count (n = 200, all
        // ranks integral before rounding).
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let p = Percentiles::from_samples(v);
        assert_eq!((p.p50, p.p95, p.p99), (100.0, 190.0, 198.0));
    }

    #[test]
    fn paged_layout_trims_backing_traffic_and_macs() {
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(2, 100, 6);
        let config =
            ServingConfig::new(2).with_prefill(PrefillMode::OnAdmission { chunk: Some(64) });
        let schedule = ServingSchedule::build(&mix, &config);
        let options = NetworkOptions::baseline();

        let bucketed =
            serving_trace_with(&session(), &model, &schedule, &bucketed(256), &options).unwrap();
        assert!(bucketed.total_backing_accesses() > 0.0);
        let paged = serving_trace_with(
            &session(),
            &model,
            &schedule,
            &KvLayout::Paged(PageTable::new(16)),
            &options,
        )
        .unwrap();
        assert_eq!(paged.kv_bucket, 16);
        // Page 16 divides bucket 256: every paged attend length is ≤
        // its bucketed counterpart, so MACs and backing traffic are
        // bounded by the bucketed trace's.
        assert!(paged.total_macs() <= bucketed.total_macs());
        assert!(paged.total_backing_accesses() <= bucketed.total_backing_accesses());
        assert!(
            paged.total_backing_accesses() < bucketed.total_backing_accesses(),
            "kv 100..106 pads to 256 under the bucket but to ≤112 under page 16"
        );
        // Same schedule, same tokens — only the residency accounting
        // moved.
        assert_eq!(paged.total_tokens(), bucketed.total_tokens());
        assert_eq!(
            paged.total_prefill_tokens(),
            bucketed.total_prefill_tokens()
        );
    }

    #[test]
    fn shared_prefix_saves_prefill_work_and_charges_cow() {
        let model = ServingModel::gpt2_small();
        let config =
            ServingConfig::new(4).with_prefill(PrefillMode::OnAdmission { chunk: Some(64) });
        let options = NetworkOptions::baseline();
        // 42 is deliberately page-misaligned at page 16: 32 full shared
        // tokens + a 10-token tail each sharer copies.
        let table = PageTable::new(16).with_shared_prefix(42);
        let plain_mix = RequestMix::uniform(4, 128, 4);
        let shared_mix = RequestMix::uniform(4, 128, 4).with_shared_prefix(42);

        let plain = serving_trace_with(
            &session(),
            &model,
            &ServingSchedule::build(&plain_mix, &config),
            &KvLayout::Paged(PageTable::new(16)),
            &options,
        )
        .unwrap();
        let shared = serving_trace_with(
            &session(),
            &model,
            &ServingSchedule::build(&shared_mix, &config),
            &KvLayout::Paged(table),
            &options,
        )
        .unwrap();
        // Three sharers skip 42 prompt tokens each.
        assert_eq!(
            plain.total_prefill_tokens() - shared.total_prefill_tokens(),
            3 * 42
        );
        assert!(shared.total_macs() < plain.total_macs());
        assert!(shared.total_energy() < plain.total_energy());
        // Decode output is untouched.
        assert_eq!(shared.total_tokens(), plain.total_tokens());
    }

    #[test]
    fn trace_charges_prefill_and_records_latencies() {
        let session = session();
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(1, 100, 4);
        let config = ServingConfig::new(1).with_prefill(PrefillMode::OnAdmission { chunk: None });
        let schedule = ServingSchedule::build(&mix, &config);
        let options = NetworkOptions::baseline();
        let result =
            serving_trace_with(&session, &model, &schedule, &bucketed(64), &options).unwrap();

        // One prefill step + four decode steps.
        assert_eq!(result.points.len(), 5);
        assert_eq!(result.total_prefill_tokens(), 100);
        assert_eq!(result.total_tokens(), 4);
        // The one-request totals are exactly prefill + decode closed
        // forms — the accounting the resident-prefill path never had.
        // The resident single-slot schedule decodes at kv 100..=103.
        let decode_only = resident(&mix, 1);
        let decode: u64 = decode_only
            .steps()
            .iter()
            .map(|s| model.serving_step_macs_with(s, &bucketed(64)))
            .sum();
        assert_eq!(
            result.total_macs(),
            model.prefill_macs(100, None, 64) + decode
        );

        assert_eq!(result.requests.len(), 1);
        let r = &result.requests[0];
        assert_eq!(r.generated, 4);
        assert_eq!(r.arrival_cycles, 0.0);
        assert_eq!(r.admission_cycles, 0.0);
        // First token completes after prefill + one decode step.
        let prefill_cycles = result.points[0].cycles;
        assert!(r.ttft_cycles() > prefill_cycles);
        assert_eq!(r.token_gap_cycles.len(), 3);
        assert!(r.token_gap_cycles.iter().all(|&g| g > 0.0));
        assert!(r.retire_cycles <= result.total_cycles() + 1e-9);

        let clock = Frequency::from_gigahertz(1.0);
        let ttft = result.ttft_percentiles(clock);
        assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p99);
        let tbt = result.tbt_percentiles(clock);
        assert!(tbt.p50 > 0.0 && tbt.p99 >= tbt.p50);
    }

    #[test]
    fn resident_prefill_under_counts_the_same_mix() {
        // The bugfix demonstrated head-on: the same one-request trace
        // costs strictly more once prefill is charged, by exactly the
        // prefill closed form.
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(1, 100, 4);
        let charged = serving_trace_with(
            &session(),
            &model,
            &ServingSchedule::build(
                &mix,
                &ServingConfig::new(1).with_prefill(PrefillMode::OnAdmission { chunk: None }),
            ),
            &bucketed(64),
            &NetworkOptions::baseline(),
        )
        .unwrap();
        let uncharged = serving_trace_with(
            &session(),
            &model,
            &resident(&mix, 1),
            &bucketed(64),
            &NetworkOptions::baseline(),
        )
        .unwrap();
        assert_eq!(
            charged.total_macs() - uncharged.total_macs(),
            model.prefill_macs(100, None, 64),
            "the resident path under-counts by exactly the prefill work"
        );
        assert!(charged.total_energy() > uncharged.total_energy());
        assert!(charged.total_cycles() > uncharged.total_cycles());
    }

    #[test]
    fn occupancy_improves_energy_per_token() {
        // Same mix, one slot vs eight slots: higher occupancy shares the
        // projection weight traffic across the group, so energy per
        // token at capacity 8 must not exceed the serial schedule's.
        let model = ServingModel::gpt2_small();
        let mix = RequestMix::uniform(8, 100, 2);
        let serial = serving_trace_with(
            &session(),
            &model,
            &resident(&mix, 1),
            &bucketed(64),
            &NetworkOptions::baseline(),
        )
        .unwrap();
        let batched = serving_trace_with(
            &session(),
            &model,
            &resident(&mix, 8),
            &bucketed(64),
            &NetworkOptions::baseline(),
        )
        .unwrap();
        assert_eq!(serial.total_tokens(), batched.total_tokens());
        assert!((serial.mean_occupancy() - 1.0).abs() < 1e-12);
        assert!((batched.mean_occupancy() - 1.0).abs() < 1e-12);
        assert!(
            batched.pj_per_token() <= serial.pj_per_token() * 1.0001,
            "batched {:.1} vs serial {:.1} pJ/token",
            batched.pj_per_token(),
            serial.pj_per_token()
        );
    }
}
