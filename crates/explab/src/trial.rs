//! One trial: a guest/host pair measured end to end.
//!
//! [`run_trial`] drives the batched evaluation pipeline for a single pair —
//! planner prediction, construction, independent verification
//! ([`embeddings::verify`]), congestion under dimension-ordered routing, the
//! chain report, and one `netsim` run per applicable workload — and collects
//! everything into a flat [`TrialRecord`] that serializes to one JSON line.
//!
//! A pair the paper's constructions do not cover is a first-class outcome
//! ([`TrialOutcome::Unsupported`]), not an error: sweeps over whole families
//! must keep going and report coverage honestly.

use embeddings::auto::{embed, predicted_dilation};
use embeddings::chain::{ChainReport, ChainStep};
use embeddings::congestion::congestion_sequential;
use embeddings::lower_bound::wirelength_lower_bound;
use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig, ShardedOutcome};
use embeddings::optim::{CongestionObjective, Objective, OptimizerConfig, WirelengthObjective};
use embeddings::verify::verify_sequential;
use embeddings::{Embedding, Plan};
use netsim::chaos::{simulate_chaos, ChaosRouting, FaultPlan};
use netsim::optimize::MakespanObjective;
use netsim::sim::{simulate, Placement};
use netsim::traffic::multi_tenant;
use netsim::{patterns, Network, Workload};
use topology::Grid;

use crate::json::{array, Object};
use crate::plan::{ChaosSpec, ObjectiveKind, OptimSpec, WirelengthSpec, WorkloadSpec};

/// The input of one trial, produced by expanding a plan.
#[derive(Clone, Debug)]
pub struct TrialSpec {
    /// Position of the trial in the expanded plan (stable across worker
    /// counts; the JSONL line order).
    pub id: usize,
    /// The name of the family that generated the pair.
    pub family: &'static str,
    /// The guest graph.
    pub guest: Grid,
    /// The host graph.
    pub host: Grid,
    /// The trial's private seed, derived from the plan seed and `id`.
    pub seed: u64,
    /// Simulated rounds per workload.
    pub rounds: usize,
    /// The workloads to simulate.
    pub workloads: Vec<WorkloadSpec>,
    /// When set, refine the placement with the local-search optimizer and
    /// record constructive-vs-optimized measurements.
    pub optimize: Option<OptimSpec>,
    /// When set, anneal hypercube-guest trials under the wirelength
    /// objective and record the constructive / annealed / Tang-bound
    /// comparison (Table 11). Silently skipped for non-hypercube guests.
    pub wirelength: Option<WirelengthSpec>,
    /// When set, re-simulate the placement under seeded link loss and
    /// multi-tenant contention and record degraded-operation rows.
    pub chaos: Option<ChaosSpec>,
}

/// One workload's simulation results.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    /// The workload name (see [`WorkloadSpec::name`]).
    pub workload: &'static str,
    /// Messages delivered over all rounds.
    pub messages: u64,
    /// Sum of route lengths.
    pub total_hops: u64,
    /// Longest route.
    pub max_hops: u64,
    /// Mean hops per message.
    pub average_hops: f64,
    /// Makespan in cycles under one-message-per-link arbitration.
    pub cycles: u64,
}

/// One annealing shard's walk in a trial's provenance trail: which seed it
/// ran and what it found, so the JSONL records show not just the winning
/// table but the full sharded search that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSummary {
    /// The shard index (`0..shards`; shard 0 is the sequential walk).
    pub shard: u32,
    /// The seed the shard annealed with.
    pub seed: u64,
    /// The `shard_config` style the shard ran: `"base"` for the unmodified
    /// config, otherwise the portfolio palette entry (`"kcycle"`,
    /// `"block"`, `"hot"`, `"hot-compound"`).
    pub style: &'static str,
    /// The shard's best primary cost (e.g. max congestion).
    pub best_primary: u64,
    /// The shard's best secondary (tie-break) cost.
    pub best_secondary: u64,
    /// Accepted moves in the shard's walk.
    pub accepted: u64,
    /// Times the shard's best-so-far cost strictly improved.
    pub improvements: u64,
}

/// Independent measurements of the optimizer-refined placement, taken with
/// the same `verify`/`congestion` sweeps as the constructive embedding —
/// the comparison never trusts the optimizer's own bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimizedMetrics {
    /// The objective the optimizer refined under.
    pub objective: &'static str,
    /// Proposed annealing steps per shard.
    pub steps: u64,
    /// Accepted moves (of the winning shard's walk).
    pub accepted: u64,
    /// Times the best-so-far cost strictly improved (winning shard).
    pub improvements: u64,
    /// Independently-seeded annealing walks run for this trial.
    pub shards: u32,
    /// The shard whose table won the lexicographic reduce.
    pub winner_shard: u32,
    /// The winning shard's seed.
    pub winner_seed: u64,
    /// Every shard's walk, ordered by shard index.
    pub shard_reports: Vec<ShardSummary>,
    /// Max link congestion of the refined placement (independent re-sweep).
    pub max_congestion: u64,
    /// Mean load over used host links of the refined placement.
    pub average_congestion: f64,
    /// Measured dilation of the refined placement.
    pub measured_dilation: u64,
    /// Mean host distance over guest edges of the refined placement.
    pub average_dilation: f64,
    /// Whether the refined mapping verified as injective (every optimizer
    /// move is a permutation, so this must always hold).
    pub injective: bool,
}

/// The wirelength stage's measurements for a hypercube-guest trial: the
/// constructive placement's total routed wirelength, the best wirelength a
/// sharded annealing search under [`WirelengthObjective`] found, and Tang's
/// exact analytic minimum (arXiv:2302.13237), side by side. Both measured
/// wirelengths come from independent `congestion` re-sweeps, never from the
/// optimizer's own bookkeeping; both must stay at or above `bound`, and the
/// annealed value must not exceed the constructive one — violations fold
/// into [`TrialRecord::bound_ok`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WirelengthMetrics {
    /// Proposed annealing steps per shard.
    pub steps: u64,
    /// Independently-seeded annealing walks run for this trial.
    pub shards: u32,
    /// The shard whose table won the lexicographic reduce.
    pub winner_shard: u32,
    /// The winning shard's seed.
    pub winner_seed: u64,
    /// Total routed wirelength of the paper's constructive placement.
    pub constructive: u64,
    /// Total routed wirelength of the annealed placement (independent
    /// re-sweep of the winning table).
    pub optimized: u64,
    /// Tang's exact minimum wirelength for the pair.
    pub bound: u64,
    /// Whether the annealed mapping verified as injective (every optimizer
    /// move is a permutation, so this must always hold).
    pub injective: bool,
}

impl WirelengthMetrics {
    /// Whether the row is consistent: injective annealed table, both
    /// measurements at or above Tang's bound, and annealing never worse
    /// than the constructive start.
    pub fn is_consistent(&self) -> bool {
        self.injective
            && self.constructive >= self.bound
            && self.optimized >= self.bound
            && self.optimized <= self.constructive
    }
}

/// One faulted (or baseline) simulation's counters: the [`netsim::SimStats`]
/// fields a degraded-operation row needs, flattened for serialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosRun {
    /// Messages injected over all rounds.
    pub messages: u64,
    /// Messages that reached their destination.
    pub delivered: u64,
    /// Messages dropped as [`netsim::chaos::RouteOutcome::Unreachable`].
    pub dropped: u64,
    /// Sum of delivered route lengths.
    pub total_hops: u64,
    /// Hops taken beyond the pristine shortest paths (detour overhead).
    pub detour_hops: u64,
    /// Makespan in cycles under one-message-per-link arbitration.
    pub cycles: u64,
}

impl ChaosRun {
    fn from_stats(stats: &netsim::SimStats) -> ChaosRun {
        ChaosRun {
            messages: stats.messages,
            delivered: stats.delivered,
            dropped: stats.dropped,
            total_hops: stats.total_hops,
            detour_hops: stats.detour_hops,
            cycles: stats.cycles,
        }
    }

    /// Delivered messages as a fraction of injected ones (`1.0` when the
    /// run injected nothing).
    pub fn delivered_fraction(&self) -> f64 {
        if self.messages == 0 {
            1.0
        } else {
            self.delivered as f64 / self.messages as f64
        }
    }
}

/// One link-loss level of a trial's fault-tolerance sweep: the guest's
/// neighbor-exchange traffic re-simulated with the detour router under a
/// seeded [`FaultPlan`] failing `loss_percent`% of the host's links.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRow {
    /// The share of host links the row's fault plan failed (0 = the
    /// pristine baseline, which must match the unfaulted simulator).
    pub loss_percent: u32,
    /// The run under the paper's constructive placement.
    pub constructive: ChaosRun,
    /// The run under the annealed placement, when the optimizer stage ran.
    pub optimized: Option<ChaosRun>,
}

/// One multi-tenant contention row: `tenants` rotated copies of the
/// constructive placement composed onto the shared host via
/// [`multi_tenant`], simulated together on a pristine network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRow {
    /// How many guest copies shared the host.
    pub tenants: u32,
    /// Messages injected per round by the composed workload.
    pub messages: u64,
    /// Makespan of the composed traffic.
    pub cycles: u64,
    /// Makespan of tenant 0 running alone (the contention-free floor;
    /// `cycles >= solo_cycles` always, by FIFO link arbitration).
    pub solo_cycles: u64,
}

/// The degraded-operation measurements of one trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosMetrics {
    /// One row per loss level, ascending, starting with the 0% baseline.
    pub fault_rows: Vec<FaultRow>,
    /// One row per tenant count, ascending.
    pub tenant_rows: Vec<TenantRow>,
}

/// The measurements of a supported pair.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialMetrics {
    /// The construction name the planner chose.
    pub construction: String,
    /// The trial's placement as a serialized [`embeddings::Plan`] (the
    /// `plan v1 …` text format): every record carries enough to rebuild
    /// its exact mapping offline with [`embeddings::Plan::to_embedding`],
    /// or to seed the `embd` placement service.
    pub plan: String,
    /// The dilation the paper's theorem guarantees for the pair.
    pub predicted_dilation: u64,
    /// The dilation measured by independent verification.
    pub measured_dilation: u64,
    /// The mean host distance over guest edges.
    pub average_dilation: f64,
    /// Whether the mapping verified as injective (always expected).
    pub injective: bool,
    /// The number of guest edges measured.
    pub guest_edges: u64,
    /// Maximum routed paths sharing one host link.
    pub max_congestion: u64,
    /// Mean load over used host links.
    pub average_congestion: f64,
    /// Distinct host links carrying at least one path.
    pub used_host_links: u64,
    /// The per-step chain report (single-step for directly planned pairs).
    pub chain: ChainReport,
    /// One entry per applicable workload.
    pub workloads: Vec<WorkloadResult>,
    /// Constructive-vs-optimized comparison, when the plan enables the
    /// optimizer stage.
    pub optimized: Option<OptimizedMetrics>,
    /// Constructive / annealed / Tang-bound wirelength comparison, when the
    /// plan enables the wirelength stage and the guest is a hypercube.
    pub wirelength: Option<WirelengthMetrics>,
    /// Degraded-operation rows, when the plan enables the chaos stage.
    pub chaos: Option<ChaosMetrics>,
}

/// What happened to a trial.
#[derive(Clone, Debug, PartialEq)]
pub enum TrialOutcome {
    /// The pair was embedded and measured.
    Supported(Box<TrialMetrics>),
    /// The pair falls outside the paper's constructions (or failed to
    /// measure); the reason is the planner's error message.
    Unsupported {
        /// Why the pair could not be measured.
        reason: String,
    },
}

/// The full, JSONL-serializable result of one trial.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialRecord {
    /// Trial id (the position in the expanded plan).
    pub id: usize,
    /// The generating family's name.
    pub family: &'static str,
    /// The guest graph, rendered (e.g. `"(4, 2, 3)-torus"`).
    pub guest: String,
    /// The host graph, rendered.
    pub host: String,
    /// The number of nodes on each side.
    pub nodes: u64,
    /// The trial's derived seed.
    pub seed: u64,
    /// Supported measurements or the unsupported reason.
    pub outcome: TrialOutcome,
}

impl TrialRecord {
    /// Whether the trial was measured (as opposed to unsupported).
    pub fn is_supported(&self) -> bool {
        matches!(self.outcome, TrialOutcome::Supported(_))
    }

    /// The metrics of a supported trial.
    pub fn metrics(&self) -> Option<&TrialMetrics> {
        match &self.outcome {
            TrialOutcome::Supported(metrics) => Some(metrics),
            TrialOutcome::Unsupported { .. } => None,
        }
    }

    /// Whether the trial honors the theorem's bound: unsupported trials
    /// vacuously do; supported trials must measure a dilation within the
    /// prediction *and* a chain within its multiplicative bound *and* verify
    /// injective. When the optimizer stage ran, the refined placement must
    /// additionally verify injective, and under the congestion objective its
    /// independently measured max congestion must not exceed the
    /// constructive embedding's (the optimizer's monotone guarantee,
    /// re-checked from the outside). When the wirelength stage ran, both the
    /// constructive and the annealed wirelength must respect Tang's exact
    /// lower bound and the annealed one must not exceed the constructive
    /// one (see [`WirelengthMetrics::is_consistent`]). When the chaos stage
    /// ran, every fault
    /// row must conserve messages (`delivered + dropped == messages`), the
    /// 0% baseline row must reproduce the unfaulted neighbor-exchange
    /// simulation bit for bit (no drops, no detours, the same makespan),
    /// and every contention row must cost at least its solo floor.
    pub fn bound_ok(&self) -> bool {
        match self.metrics() {
            None => true,
            Some(m) => {
                let constructive_ok = m.injective
                    && m.measured_dilation <= m.predicted_dilation
                    && m.chain.within_bound();
                let optimized_ok = match &m.optimized {
                    None => true,
                    Some(o) => {
                        o.injective
                            && (o.objective != "congestion" || o.max_congestion <= m.max_congestion)
                    }
                };
                let wirelength_ok = m
                    .wirelength
                    .as_ref()
                    .is_none_or(WirelengthMetrics::is_consistent);
                constructive_ok && optimized_ok && wirelength_ok && chaos_ok(m)
            }
        }
    }

    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut object = Object::new()
            .u64("id", self.id as u64)
            .string("family", self.family)
            .string("guest", &self.guest)
            .string("host", &self.host)
            .u64("nodes", self.nodes)
            .u64("seed", self.seed)
            .bool("supported", self.is_supported())
            .bool("bound_ok", self.bound_ok());
        match &self.outcome {
            TrialOutcome::Unsupported { reason } => {
                object = object.string("reason", reason);
            }
            TrialOutcome::Supported(m) => {
                let steps = array(m.chain.steps.iter().map(|step| {
                    Object::new()
                        .string("name", &step.name)
                        .string("guest", &step.guest)
                        .string("host", &step.host)
                        .u64("dilation", step.dilation)
                        .finish()
                }));
                let chain = Object::new()
                    .raw("steps", steps)
                    .u64("product_bound", m.chain.product_bound)
                    .u64("composed_dilation", m.chain.composed_dilation)
                    .bool("within_bound", m.chain.within_bound())
                    .finish();
                let workloads = array(m.workloads.iter().map(|w| {
                    Object::new()
                        .string("workload", w.workload)
                        .u64("messages", w.messages)
                        .u64("total_hops", w.total_hops)
                        .u64("max_hops", w.max_hops)
                        .f64("average_hops", w.average_hops)
                        .u64("cycles", w.cycles)
                        .finish()
                }));
                object = object
                    .string("construction", &m.construction)
                    .string("plan", &m.plan)
                    .u64("predicted_dilation", m.predicted_dilation)
                    .u64("measured_dilation", m.measured_dilation)
                    .f64("average_dilation", m.average_dilation)
                    .bool("injective", m.injective)
                    .u64("guest_edges", m.guest_edges)
                    .u64("max_congestion", m.max_congestion)
                    .f64("average_congestion", m.average_congestion)
                    .u64("used_host_links", m.used_host_links)
                    .raw("chain", chain)
                    .raw("workloads", workloads);
                if let Some(o) = &m.optimized {
                    let shard_reports = array(o.shard_reports.iter().map(|s| {
                        Object::new()
                            .u64("shard", u64::from(s.shard))
                            .u64("seed", s.seed)
                            .string("style", s.style)
                            .u64("best_primary", s.best_primary)
                            .u64("best_secondary", s.best_secondary)
                            .u64("accepted", s.accepted)
                            .u64("improvements", s.improvements)
                            .finish()
                    }));
                    let optimized = Object::new()
                        .string("objective", o.objective)
                        .u64("steps", o.steps)
                        .u64("accepted", o.accepted)
                        .u64("improvements", o.improvements)
                        .u64("shards", u64::from(o.shards))
                        .u64("winner_shard", u64::from(o.winner_shard))
                        .u64("winner_seed", o.winner_seed)
                        .raw("shard_reports", shard_reports)
                        .u64("max_congestion", o.max_congestion)
                        .f64("average_congestion", o.average_congestion)
                        .u64("measured_dilation", o.measured_dilation)
                        .f64("average_dilation", o.average_dilation)
                        .bool("injective", o.injective)
                        .finish();
                    object = object.raw("optimized", optimized);
                }
                if let Some(w) = &m.wirelength {
                    let wirelength = Object::new()
                        .u64("steps", w.steps)
                        .u64("shards", u64::from(w.shards))
                        .u64("winner_shard", u64::from(w.winner_shard))
                        .u64("winner_seed", w.winner_seed)
                        .u64("constructive", w.constructive)
                        .u64("optimized", w.optimized)
                        .u64("bound", w.bound)
                        .bool("injective", w.injective)
                        .finish();
                    object = object.raw("wirelength", wirelength);
                }
                if let Some(c) = &m.chaos {
                    let run_json = |run: &ChaosRun| {
                        Object::new()
                            .u64("messages", run.messages)
                            .u64("delivered", run.delivered)
                            .u64("dropped", run.dropped)
                            .u64("total_hops", run.total_hops)
                            .u64("detour_hops", run.detour_hops)
                            .u64("cycles", run.cycles)
                            .f64("delivered_fraction", run.delivered_fraction())
                            .finish()
                    };
                    let faults = array(c.fault_rows.iter().map(|row| {
                        let mut fault = Object::new()
                            .u64("loss_percent", u64::from(row.loss_percent))
                            .raw("constructive", run_json(&row.constructive));
                        if let Some(optimized) = &row.optimized {
                            fault = fault.raw("optimized", run_json(optimized));
                        }
                        fault.finish()
                    }));
                    let tenants = array(c.tenant_rows.iter().map(|row| {
                        Object::new()
                            .u64("tenants", u64::from(row.tenants))
                            .u64("messages", row.messages)
                            .u64("cycles", row.cycles)
                            .u64("solo_cycles", row.solo_cycles)
                            .finish()
                    }));
                    let chaos = Object::new()
                        .raw("faults", faults)
                        .raw("tenants", tenants)
                        .finish();
                    object = object.raw("chaos", chaos);
                }
            }
        }
        object.finish()
    }
}

/// The chaos half of [`TrialRecord::bound_ok`]: message conservation on
/// every fault row, bit-identity of the 0% baseline with the unfaulted
/// neighbor-exchange run, and contention never cheaper than running solo.
fn chaos_ok(m: &TrialMetrics) -> bool {
    let Some(c) = &m.chaos else {
        return true;
    };
    let conserves = |run: &ChaosRun| run.delivered + run.dropped == run.messages;
    let rows_ok = c
        .fault_rows
        .iter()
        .all(|row| conserves(&row.constructive) && row.optimized.as_ref().is_none_or(conserves));
    let baseline_ok = c.fault_rows.first().is_none_or(|row| {
        let pristine = |run: &ChaosRun| run.dropped == 0 && run.detour_hops == 0;
        let matches_neighbor = match m.workloads.iter().find(|w| w.workload == "neighbor") {
            None => true,
            Some(w) => {
                row.constructive.messages == w.messages
                    && row.constructive.total_hops == w.total_hops
                    && row.constructive.cycles == w.cycles
            }
        };
        row.loss_percent == 0
            && pristine(&row.constructive)
            && row.optimized.as_ref().is_none_or(pristine)
            && matches_neighbor
    });
    let tenants_ok = c
        .tenant_rows
        .iter()
        .all(|row| row.cycles >= row.solo_cycles);
    rows_ok && baseline_ok && tenants_ok
}

/// Builds the workload a spec denotes for a guest of `guest.size()` tasks,
/// or `None` when the spec does not apply to that guest.
pub fn build_workload(spec: WorkloadSpec, guest: &Grid, seed: u64) -> Option<Workload> {
    let n = guest.size();
    match spec {
        WorkloadSpec::Neighbor => Some(Workload::from_task_graph(guest)),
        WorkloadSpec::Tornado => (n >= 3).then(|| patterns::tornado(n)),
        WorkloadSpec::Transpose => {
            if guest.dim() < 2 {
                return None;
            }
            let rows = u64::from(guest.shape().radix(0));
            Some(patterns::transpose(rows, n / rows))
        }
        WorkloadSpec::BitReversal => {
            (n.is_power_of_two() && n >= 4).then(|| patterns::bit_reversal(n.trailing_zeros()))
        }
        WorkloadSpec::AllToAll => (n <= 64).then(|| patterns::all_to_all(n)),
        WorkloadSpec::Random => Some(Workload::uniform_random(n, 2 * n as usize, seed)),
    }
}

/// Runs one trial to completion. Never panics on unsupported pairs — they
/// come back as [`TrialOutcome::Unsupported`].
pub fn run_trial(spec: &TrialSpec) -> TrialRecord {
    let record = |outcome: TrialOutcome| TrialRecord {
        id: spec.id,
        family: spec.family,
        guest: spec.guest.to_string(),
        host: spec.host.to_string(),
        nodes: spec.guest.size(),
        seed: spec.seed,
        outcome,
    };

    let predicted = match predicted_dilation(&spec.guest, &spec.host) {
        Ok(predicted) => predicted,
        Err(error) => {
            return record(TrialOutcome::Unsupported {
                reason: error.to_string(),
            });
        }
    };
    let embedding = match embed(&spec.guest, &spec.host) {
        Ok(embedding) => embedding,
        Err(error) => {
            return record(TrialOutcome::Unsupported {
                reason: error.to_string(),
            });
        }
    };

    // Independent verification and congestion on the batched sequential
    // sweeps: bit-identical to the parallel paths by construction, and the
    // executor already parallelizes across trials.
    let verification = verify_sequential(&embedding);
    let congestion = match congestion_sequential(&embedding) {
        Ok(congestion) => congestion,
        Err(error) => {
            return record(TrialOutcome::Unsupported {
                reason: format!("congestion measurement failed: {error}"),
            });
        }
    };

    // The single-step chain report, assembled from the verification sweep:
    // `EmbeddingChain::through(guest, &[], host)` would invoke the same
    // planner and sweep the same edges two more times for identical numbers
    // (for a one-step chain, step dilation = composed dilation = measured
    // dilation). Multi-step chains with real waypoints go through
    // `EmbeddingChain::report` (see `report::chain_tables`).
    let chain = ChainReport {
        steps: vec![ChainStep {
            name: embedding.name().to_string(),
            guest: spec.guest.to_string(),
            host: spec.host.to_string(),
            dilation: verification.dilation,
        }],
        product_bound: verification.dilation,
        composed_dilation: verification.dilation,
    };

    let optimized = match spec.optimize {
        None => None,
        Some(optim_spec) => match optimize_trial(spec, &embedding, optim_spec) {
            Ok(result) => Some(result),
            Err(error) => {
                return record(TrialOutcome::Unsupported {
                    reason: format!("optimizer failed: {error}"),
                });
            }
        },
    };

    let wirelength = match spec.wirelength {
        // The Tang bound only covers hypercube guests; the stage silently
        // skips other pairs so mixed-family sweeps keep a single plan.
        Some(wl_spec) if spec.guest.is_hypercube() => {
            match wirelength_trial(spec, &embedding, congestion.total_path_length, wl_spec) {
                Ok(result) => Some(result),
                Err(error) => {
                    return record(TrialOutcome::Unsupported {
                        reason: format!("wirelength stage failed: {error}"),
                    });
                }
            }
        }
        _ => None,
    };

    let network = Network::new(spec.host.clone());
    let placement = Placement::from_embedding(&embedding);
    let mut workloads = Vec::with_capacity(spec.workloads.len());
    for &workload_spec in &spec.workloads {
        let Some(workload) = build_workload(workload_spec, &spec.guest, spec.seed) else {
            continue;
        };
        let stats = simulate(&network, &workload, &placement, spec.rounds);
        workloads.push(WorkloadResult {
            workload: workload_spec.name(),
            messages: stats.messages,
            total_hops: stats.total_hops,
            max_hops: stats.max_hops,
            average_hops: stats.average_hops(),
            cycles: stats.cycles,
        });
    }

    let (optimized, optimized_placement) = match optimized {
        None => (None, None),
        Some((metrics, refined)) => (Some(metrics), Some(refined)),
    };
    let chaos = spec.chaos.as_ref().map(|chaos_spec| {
        chaos_metrics(
            spec,
            chaos_spec,
            &network,
            &placement,
            optimized_placement.as_ref(),
        )
    });

    record(TrialOutcome::Supported(Box::new(TrialMetrics {
        construction: embedding.name().to_string(),
        // The plan is described from the already-built embedding (not
        // re-planned): same fields `Plan::closed_form` would record.
        plan: Plan::describing(&spec.guest, &spec.host, embedding.name(), predicted).to_text(),
        predicted_dilation: predicted,
        measured_dilation: verification.dilation,
        average_dilation: verification.average_dilation,
        injective: verification.injective,
        guest_edges: verification.edges,
        max_congestion: congestion.max_congestion,
        average_congestion: congestion.average_congestion,
        used_host_links: congestion.used_host_edges,
        chain,
        workloads,
        optimized,
        wirelength,
        chaos,
    })))
}

/// Runs the chaos stage of one trial: the guest's neighbor-exchange traffic
/// re-simulated with the detour router under a seeded [`FaultPlan`] per
/// loss level (the 0% baseline first — it must reproduce the unfaulted
/// simulator bit for bit), plus one multi-tenant contention row per tenant
/// count. Everything is a pure function of the spec: the fault seeds derive
/// from the trial seed and the loss level, so records stay bit-identical
/// for any worker count.
fn chaos_metrics(
    spec: &TrialSpec,
    chaos_spec: &ChaosSpec,
    network: &Network,
    constructive: &Placement,
    optimized: Option<&Placement>,
) -> ChaosMetrics {
    let neighbor = Workload::from_task_graph(&spec.guest);

    // The 0% baseline plus the plan's loss levels, ascending and deduplicated.
    let mut losses = vec![0u32];
    losses.extend(chaos_spec.loss_percents.iter().copied().filter(|&l| l > 0));
    losses.sort_unstable();
    losses.dedup();
    let fault_rows = losses
        .into_iter()
        .map(|loss| {
            let plan = if loss == 0 {
                FaultPlan::none()
            } else {
                // Decorrelate the fault draws from the trial's workload and
                // optimizer seeds, and from the other loss levels.
                let seed = crate::executor::splitmix64(
                    spec.seed ^ 0xfa17_ed11_4b5e_5eed ^ u64::from(loss),
                );
                FaultPlan::random_link_percent(network.grid(), loss, seed)
            };
            let run = |placement: &Placement| {
                ChaosRun::from_stats(&simulate_chaos(
                    network,
                    &neighbor,
                    placement,
                    spec.rounds,
                    &plan,
                    ChaosRouting::Detour,
                ))
            };
            FaultRow {
                loss_percent: loss,
                constructive: run(constructive),
                optimized: optimized.map(run),
            }
        })
        .collect();

    // K tenants = K copies of the constructive placement, each rotated by a
    // multiple of n/K host nodes (adding a constant offset modulo n keeps
    // every table injective), composed onto the shared pristine host.
    let host_nodes = network.size();
    let compose = |tenants: u32| {
        let placements: Vec<Placement> = (0..tenants)
            .map(|tenant| {
                let offset = u64::from(tenant) * (host_nodes / u64::from(tenants)).max(1);
                let table = (0..constructive.tasks())
                    .map(|task| (constructive.node_of(task) + offset) % host_nodes)
                    .collect();
                Placement::try_from_table(table).expect("a rotated injective table is injective")
            })
            .collect();
        let guests: Vec<(&Workload, &Placement)> =
            placements.iter().map(|p| (&neighbor, p)).collect();
        let composed = multi_tenant(host_nodes, &guests).expect("rotated tenants stay on the host");
        simulate(
            network,
            &composed,
            &Placement::identity(host_nodes),
            spec.rounds,
        )
    };
    let solo_cycles = compose(1).cycles;
    let mut tenant_counts = chaos_spec.tenants.clone();
    tenant_counts.sort_unstable();
    tenant_counts.dedup();
    let tenant_rows = tenant_counts
        .into_iter()
        .filter(|&k| k >= 2)
        .map(|tenants| {
            let stats = compose(tenants);
            TenantRow {
                tenants,
                messages: stats.messages,
                cycles: stats.cycles,
                solo_cycles,
            }
        })
        .collect();

    ChaosMetrics {
        fault_rows,
        tenant_rows,
    }
}

/// Runs the optimizer stage of one trial: refine the constructive placement
/// under the plan's objective with `optim_spec.shards` independently-seeded
/// annealing walks (seeded from the trial seed, so the stage is a pure
/// function of the spec and bit-identical for any worker count), then
/// re-measure the winning refined embedding with the same independent sweeps
/// used for the constructive one. Also returns the refined placement, so the
/// chaos stage can degrade it alongside the constructive one.
fn optimize_trial(
    spec: &TrialSpec,
    embedding: &Embedding,
    optim_spec: OptimSpec,
) -> embeddings::error::Result<(OptimizedMetrics, Placement)> {
    let config = ShardedConfig {
        base: OptimizerConfig {
            // Decorrelate the optimizer walks from the random-workload draws
            // that also consume the trial seed; per-shard seeds derive from
            // this base via `optim::parallel::shard_seed`.
            seed: crate::executor::splitmix64(spec.seed ^ 0x0971_a71e_5eed_c0de),
            steps: optim_spec.steps,
            ..OptimizerConfig::default()
        },
        shards: optim_spec.shards,
        strategy: if optim_spec.portfolio {
            ShardStrategy::Portfolio
        } else {
            ShardStrategy::Restarts
        },
        // Shards run sequentially inside each trial: the executor already
        // parallelizes across trials (spawning shard threads on top would
        // oversubscribe the cores and pay a scope spawn per trial), and the
        // result is worker-count invariant either way.
        workers: 1,
    };
    // One factory for every objective kind: each shard builds its own
    // boxed objective on its worker thread (objectives carry mutable
    // incremental state and must never be shared across walks).
    let factory = || -> embeddings::error::Result<Box<dyn Objective>> {
        Ok(match optim_spec.objective {
            ObjectiveKind::Congestion => {
                Box::new(CongestionObjective::new(&spec.guest, &spec.host)?)
            }
            // The unit-weight wirelength is the total dilation.
            ObjectiveKind::Dilation | ObjectiveKind::Wirelength => {
                Box::new(WirelengthObjective::new(&spec.guest, &spec.host)?)
            }
            ObjectiveKind::Makespan => Box::new(
                MakespanObjective::new(
                    Network::new(spec.host.clone()),
                    Workload::from_task_graph(&spec.guest),
                    spec.rounds.max(1),
                )
                .map_err(|e| embeddings::EmbeddingError::Unsupported {
                    details: e.to_string(),
                })?,
            ),
        })
    };
    let sharded: ShardedOutcome = optimize_sharded(embedding, factory, &config)?;
    let outcome = &sharded.outcome;
    let verification = verify_sequential(&outcome.embedding);
    let congestion = congestion_sequential(&outcome.embedding)?;
    let winner = &sharded.shards[sharded.winner as usize];
    let placement = Placement::from_embedding(&outcome.embedding);
    let metrics = OptimizedMetrics {
        objective: optim_spec.objective.name(),
        steps: outcome.report.steps,
        accepted: outcome.report.accepted,
        improvements: outcome.report.improvements,
        shards: optim_spec.shards.max(1),
        winner_shard: sharded.winner,
        winner_seed: winner.seed,
        shard_reports: sharded
            .shards
            .iter()
            .map(|s| ShardSummary {
                shard: s.shard,
                seed: s.seed,
                style: s.style,
                best_primary: s.report.best.primary,
                best_secondary: s.report.best.secondary,
                accepted: s.report.accepted,
                improvements: s.report.improvements,
            })
            .collect(),
        max_congestion: congestion.max_congestion,
        average_congestion: congestion.average_congestion,
        measured_dilation: verification.dilation,
        average_dilation: verification.average_dilation,
        injective: verification.injective,
    };
    Ok((metrics, placement))
}

/// Runs the wirelength stage of one trial: anneal the constructive placement
/// under the unit-weight [`WirelengthObjective`] with `wl_spec.shards`
/// independently-seeded walks, re-measure the winner with the same
/// `verify`/`congestion` sweeps used everywhere else, and put both
/// measurements next to Tang's exact analytic minimum. Like the optimizer
/// stage, everything is a pure function of the spec (its seed decorrelates
/// from the optimizer and workload draws via a distinct constant), so
/// records stay bit-identical for any worker count.
fn wirelength_trial(
    spec: &TrialSpec,
    embedding: &Embedding,
    constructive_wirelength: u64,
    wl_spec: WirelengthSpec,
) -> embeddings::error::Result<WirelengthMetrics> {
    let bound = wirelength_lower_bound(&spec.guest, &spec.host)?;
    let config = ShardedConfig {
        base: OptimizerConfig {
            seed: crate::executor::splitmix64(spec.seed ^ 0x7a96_2023_0d1e_57a1),
            steps: wl_spec.steps,
            ..OptimizerConfig::default()
        },
        shards: wl_spec.shards,
        // The wirelength stage stays a pure restart race (Table 11 compares
        // seeds, not styles); sequential shards for the same reason as
        // `optimize_trial`: the executor parallelizes across trials.
        strategy: ShardStrategy::Restarts,
        workers: 1,
    };
    let factory = || -> embeddings::error::Result<Box<dyn Objective>> {
        Ok(Box::new(WirelengthObjective::new(&spec.guest, &spec.host)?))
    };
    let sharded: ShardedOutcome = optimize_sharded(embedding, factory, &config)?;
    let refined = &sharded.outcome.embedding;
    let verification = verify_sequential(refined);
    let congestion = congestion_sequential(refined)?;
    let winner = &sharded.shards[sharded.winner as usize];
    Ok(WirelengthMetrics {
        steps: wl_spec.steps,
        shards: wl_spec.shards.max(1),
        winner_shard: sharded.winner,
        winner_seed: winner.seed,
        constructive: constructive_wirelength,
        // DOR routes are shortest paths, so the congestion sweep's total
        // path length *is* the refined table's wirelength.
        optimized: congestion.total_path_length,
        bound,
        injective: verification.injective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn shape(radices: &[u32]) -> Shape {
        Shape::new(radices.to_vec()).unwrap()
    }

    fn spec(guest: Grid, host: Grid) -> TrialSpec {
        TrialSpec {
            id: 0,
            family: "test",
            guest,
            host,
            seed: 42,
            rounds: 1,
            workloads: vec![WorkloadSpec::Neighbor, WorkloadSpec::Tornado],
            optimize: None,
            wirelength: None,
            chaos: None,
        }
    }

    #[test]
    fn supported_trial_measures_everything() {
        let record = run_trial(&spec(
            Grid::ring(24).unwrap(),
            Grid::mesh(shape(&[4, 2, 3])),
        ));
        let metrics = record.metrics().expect("supported");
        assert_eq!(metrics.predicted_dilation, 1);
        assert_eq!(metrics.measured_dilation, 1);
        assert!(metrics.injective);
        assert_eq!(metrics.guest_edges, 24);
        assert!(metrics.max_congestion >= 1);
        assert_eq!(metrics.chain.steps.len(), 1);
        assert!(metrics.chain.within_bound());
        assert_eq!(metrics.workloads.len(), 2);
        assert!(record.bound_ok());
        // Unit dilation: neighbor exchange is all single hops.
        let neighbor = &metrics.workloads[0];
        assert_eq!(neighbor.workload, "neighbor");
        assert_eq!(neighbor.max_hops, 1);
        assert_eq!(neighbor.messages, 48);
    }

    #[test]
    fn unsupported_trial_records_the_reason() {
        let record = run_trial(&spec(
            Grid::mesh(shape(&[4, 9])),
            Grid::mesh(shape(&[6, 6])),
        ));
        assert!(!record.is_supported());
        assert!(record.bound_ok(), "unsupported is vacuously within bound");
        match &record.outcome {
            TrialOutcome::Unsupported { reason } => {
                assert!(!reason.is_empty());
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
        let json = record.to_json_line();
        assert!(json.contains("\"supported\":false"));
        assert!(json.contains("\"reason\""));
    }

    #[test]
    fn json_lines_are_flat_and_complete() {
        let record = run_trial(&spec(
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        ));
        let json = record.to_json_line();
        for key in [
            "\"id\":0",
            "\"family\":\"test\"",
            "\"predicted_dilation\"",
            "\"measured_dilation\"",
            "\"max_congestion\"",
            "\"chain\"",
            "\"workloads\"",
            "\"bound_ok\":true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains('\n'));
    }

    #[test]
    fn dumped_plans_rebuild_the_trial_mapping() {
        // Every supported record's `plan` field must parse back into a Plan
        // whose rebuilt embedding is the trial's mapping, node for node.
        let guest = Grid::torus(shape(&[4, 2, 3]));
        let host = Grid::mesh(shape(&[4, 6]));
        let record = run_trial(&spec(guest.clone(), host.clone()));
        let TrialOutcome::Supported(metrics) = &record.outcome else {
            panic!("expected a supported trial");
        };
        let plan = Plan::parse(&metrics.plan).unwrap();
        assert_eq!(plan.guest(), &guest);
        assert_eq!(plan.construction(), metrics.construction);
        assert_eq!(plan.dilation(), metrics.predicted_dilation);
        let rebuilt = plan.to_embedding().unwrap();
        let direct = embed(&guest, &host).unwrap();
        for v in 0..guest.size() {
            assert_eq!(rebuilt.map_index(v), direct.map_index(v));
        }
        // And the JSONL line carries it.
        assert!(record.to_json_line().contains("\"plan\":\"plan v1 "));
    }

    #[test]
    fn chaos_rows_measure_degraded_operation() {
        let mut spec = spec(Grid::torus(shape(&[4, 4])), Grid::torus(shape(&[4, 4])));
        spec.chaos = Some(ChaosSpec {
            loss_percents: vec![50, 10], // unsorted on purpose
            tenants: vec![2],
        });
        spec.optimize = Some(OptimSpec {
            objective: ObjectiveKind::Congestion,
            steps: 50,
            shards: 1,
            portfolio: false,
        });
        let record = run_trial(&spec);
        let metrics = record.metrics().expect("supported");
        let chaos = metrics.chaos.as_ref().expect("chaos stage ran");

        // Rows come back ascending with the implicit 0% baseline first.
        let losses: Vec<u32> = chaos.fault_rows.iter().map(|r| r.loss_percent).collect();
        assert_eq!(losses, vec![0, 10, 50]);
        for row in &chaos.fault_rows {
            let c = &row.constructive;
            assert_eq!(c.delivered + c.dropped, c.messages);
            let o = row.optimized.as_ref().expect("optimizer stage ran");
            assert_eq!(o.delivered + o.dropped, o.messages);
        }
        // The baseline reproduces the unfaulted neighbor-exchange run.
        let baseline = &chaos.fault_rows[0].constructive;
        let neighbor = &metrics.workloads[0];
        assert_eq!(baseline.dropped, 0);
        assert_eq!(baseline.detour_hops, 0);
        assert_eq!(baseline.messages, neighbor.messages);
        assert_eq!(baseline.cycles, neighbor.cycles);
        // Half the links gone on a 16-node torus: traffic must degrade.
        let half = &chaos.fault_rows[2].constructive;
        assert!(half.dropped > 0 || half.detour_hops > 0);

        // Two tenants at least double the traffic and never beat the floor.
        assert_eq!(chaos.tenant_rows.len(), 1);
        let row = &chaos.tenant_rows[0];
        assert_eq!(row.tenants, 2);
        assert_eq!(row.messages, 2 * neighbor.messages);
        assert!(row.cycles >= row.solo_cycles);

        assert!(record.bound_ok());
        let json = record.to_json_line();
        assert!(json.contains("\"chaos\":{\"faults\":["));
        assert!(json.contains("\"tenants\":["));
        assert!(json.contains("\"delivered_fraction\""));
    }

    #[test]
    fn workload_applicability_gates() {
        let ring = Grid::ring(24).unwrap();
        let cube = Grid::hypercube(4).unwrap();
        assert!(build_workload(WorkloadSpec::Transpose, &ring, 0).is_none());
        assert!(build_workload(WorkloadSpec::Transpose, &cube, 0).is_some());
        assert!(build_workload(WorkloadSpec::BitReversal, &ring, 0).is_none());
        assert!(build_workload(WorkloadSpec::BitReversal, &cube, 0).is_some());
        assert!(build_workload(WorkloadSpec::AllToAll, &ring, 0).is_some());
        let big = Grid::torus(shape(&[10, 10]));
        assert!(build_workload(WorkloadSpec::AllToAll, &big, 0).is_none());
        let random = build_workload(WorkloadSpec::Random, &ring, 7).unwrap();
        assert_eq!(random.messages_per_round(), 48);
        assert_eq!(
            build_workload(WorkloadSpec::Random, &ring, 7),
            Some(Workload::uniform_random(24, 48, 7))
        );
    }
}
