//! `sweep`: `explab::executor::run` of a fixed subset of the built-in
//! `report` plan on 2 workers.
//!
//! The subset keeps the report plan's settings (workloads, sharded
//! congestion annealing, sharded wirelength annealing, chaos rows) and every
//! one of its families, each at a smaller size (111 trials), so a pass
//! takes a few seconds and a run holds several. The annealing passes still
//! dominate, and the hypercube families still sit at the end of the trial
//! list, where the executor's static split gives them all to one worker.
//! The workload seed picks the plan seed from a recorded list; each plan
//! seed's JSONL digest is recorded next to it, and every pass must
//! reproduce it with 0 bound violations.
//!
//! Throughput is trials completed per second and latency the wall time of
//! a pass (one `executor::run`), both from the fastest pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use embeddings::auto::{embed, predicted_dilation};
use embeddings::congestion::congestion_sequential;
use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig};
use embeddings::optim::{CongestionObjective, OptimizerConfig, WirelengthObjective};
use embeddings::verify::verify_sequential;
use embeddings::Embedding;
use explab::executor::{expand, run as run_sweep, splitmix64, SweepOutcome};
use explab::plan::{Family, ObjectiveKind, SweepPlan, WorkloadSpec};
use explab::trial::{build_workload, run_trial, ChaosRun, TrialMetrics, TrialSpec};
use netsim::chaos::{simulate_chaos, ChaosRouting, FaultPlan};
use netsim::traffic::multi_tenant;
use netsim::{simulate, Network, Placement, Workload};

use crate::cores;
use crate::report::{report_passes, Config, Outcome, SetupTimer};
use crate::stats::percentile;
use crate::trace::{SpanId, Tracer};

/// Executor workers.
const WORKERS: usize = 2;

/// `(plan seed, FNV-1a digest of the sweep's JSONL)` for the full-size
/// subset plan. A run uses entry `workload seed mod len`.
const RECORDED: [(u64, u64); 4] = [
    (1987, 0xa30b_fb08_70d9_f6eb),
    (1988, 0xafd9_42a3_7143_6c64),
    (1989, 0x9b78_5932_80bf_61c3),
    (1990, 0xebca_98fa_1cf9_37af),
];

/// The same for the tiny (`smoke`-based) plan of the benchmark's tests.
const RECORDED_TINY: [(u64, u64); 2] = [(7, 0x5201_7d01_2457_b98d), (8, 0x6d2d_b000_699a_d008)];

/// The plan a run sweeps: the report plan's settings over smaller
/// families (the `smoke` plan for `--size tiny`), with the given seed.
fn plan(seed: u64, tiny: bool) -> SweepPlan {
    let mut plan = SweepPlan::builtin(if tiny { "smoke" } else { "report" })
        .expect("the built-in plans exist");
    if !tiny {
        plan.name = "report-subset".into();
        plan.families = vec![
            Family::Paper,
            Family::RingInto {
                max_size: 12,
                max_dim: 3,
            },
            Family::TorusToMesh {
                max_size: 10,
                max_dim: 3,
            },
            Family::SameShape {
                max_size: 12,
                max_dim: 3,
            },
            Family::Hypercube { max_dim: 4 },
            Family::HypercubeTorus { max_dim: 4 },
            Family::Random {
                count: 4,
                max_size: 40,
                max_dim: 3,
            },
        ];
    }
    plan.seed = seed;
    plan
}

/// The plan seed and recorded digest a run uses.
fn recorded(cfg: &Config) -> (u64, u64) {
    let table: &[(u64, u64)] = if cfg.tiny { &RECORDED_TINY } else { &RECORDED };
    table[(cfg.seed % table.len() as u64) as usize]
}

/// FNV-1a, 64-bit: a stable digest of the JSONL bytes.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks one sweep's records: no bound violations and the recorded
/// digest. Returns the number of violating trials and the digest.
fn check_sweep(
    outcome: &SweepOutcome,
    expected: u64,
    cfg: &Config,
    out: &mut Outcome,
) -> (u64, u64) {
    let violations = outcome.bound_violations().len() as u64;
    out.check(violations == 0, || {
        format!("{violations} trials violate their bounds")
    });
    let expected = if cfg.corrupt_reference {
        expected ^ 1
    } else {
        expected
    };
    let actual = digest(&outcome.to_jsonl());
    out.check(actual == expected, || {
        format!(
            "JSONL digest {actual:#018x} differs from the recorded {expected:#018x} \
             for plan {} seed {}",
            outcome.plan_name, outcome.seed
        )
    });
    (violations, actual)
}

/// Runs one sweep, counting violating or panicking trials as failed.
/// Returns the JSONL digest (0 when the sweep panicked).
fn sweep_pass(
    plan: &SweepPlan,
    trials: u64,
    expected: u64,
    cfg: &Config,
    out: &mut Outcome,
) -> u64 {
    out.attempted += trials;
    match catch_unwind(AssertUnwindSafe(|| run_sweep(plan, WORKERS))) {
        Ok(outcome) => {
            let (violations, digest) = check_sweep(&outcome, expected, cfg, out);
            out.failed += violations;
            digest
        }
        Err(_) => {
            out.failed += trials;
            out.check(false, || "the sweep panicked".to_string());
            0
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (plan_seed, expected) = recorded(cfg);
    // Set-up is single-threaded: its batches rotate over the cores (see
    // `cores`); the passes use both.
    let mut turn = 0;
    let mut build = || {
        cores::rotate(&mut turn);
        let plan = plan(plan_seed, cfg.tiny);
        let trials = expand(&plan).len() as u64;
        (plan, trials)
    };
    let mut setup = SetupTimer::new(cfg);
    let (plan, trials) = setup.batch(3, &mut build);
    cores::unpin();
    let mut pass_s = Vec::new();
    let mut rates = Vec::new();
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        if !pass_s.is_empty() {
            setup.batch(1, &mut build);
            cores::unpin();
        }
        let start = Instant::now();
        let jsonl_digest = sweep_pass(&plan, trials, expected, cfg, &mut out);
        let seconds = start.elapsed().as_secs_f64();
        if pass_s.is_empty() {
            out.count("explab.jsonl_digest", jsonl_digest);
        }
        pass_s.push(seconds);
        rates.push(trials as f64 / seconds);
    }
    out.count("explab.trials", trials);
    out.count("explab.plan_seed", plan_seed);
    report_passes(&mut out, setup.times(), &rates, &pass_s);
    out.figure("sweep_trials_per_s", "trials/s", &rates);
    Ok(out)
}

/// The traced run: per-layer metrics of explab and the layers under it.
///
/// 1. One untraced `executor::run` (the reference records and wall time).
/// 2. Every trial again through `run_trial` on one thread, timed: trial
///    percentiles and the executor's busy ratio. Each record must equal
///    the executor's.
/// 3. Every trial replayed phase by phase through the layers' public
///    functions, with a span per phase. Each replayed result must equal
///    the trial's record.
pub fn profile(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (plan_seed, expected) = recorded(cfg);
    let plan = plan(plan_seed, cfg.tiny);
    let specs = expand(&plan);

    let start = Instant::now();
    let reference = run_sweep(&plan, WORKERS);
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted += specs.len() as u64;
    out.failed += check_sweep(&reference, expected, cfg, &mut out).0;

    let mut trial_s = Vec::with_capacity(specs.len());
    for spec in &specs {
        let start = Instant::now();
        let record = run_trial(spec);
        trial_s.push(start.elapsed().as_secs_f64());
        out.check(record == reference.records[spec.id], || {
            format!(
                "trial {} differs between run_trial and the executor",
                spec.id
            )
        });
    }
    let busy_s: f64 = trial_s.iter().sum();
    let mut sorted = trial_s.clone();
    sorted.sort_by(f64::total_cmp);
    out.metric("explab.trial_p50_ms", percentile(&sorted, 50.0) * 1e3, "ms");
    out.metric("explab.trial_p99_ms", percentile(&sorted, 99.0) * 1e3, "ms");
    out.metric(
        "explab.busy_ratio",
        busy_s / (WORKERS as f64 * wall_s),
        "ratio",
    );

    let root = tracer.span("sweep.replay", None, 0, |root| {
        for spec in &specs {
            tracer.span("explab.trial", Some(root), spec.id as u64, |trial| {
                replay(spec, &reference, tracer, trial, &mut out);
            });
        }
        root
    });
    let replay_s = tracer.seconds(root);
    let self_s = tracer.self_seconds_under(root);
    let mut phases_s = 0.0;
    for phase in [
        "plan",
        "verify",
        "congestion",
        "anneal",
        "wirelength",
        "netsim",
        "chaos",
    ] {
        let name = format!("explab.phase.{phase}");
        let seconds = self_s.get(name.as_str()).copied().unwrap_or(0.0);
        phases_s += seconds;
        out.metric(&format!("{name}_s"), seconds, "s");
    }
    out.metric(
        "sweep.trace.overhead_ratio",
        (replay_s - busy_s) / busy_s,
        "ratio",
    );
    out.metric(
        "sweep.trace.residue_ratio",
        (replay_s - phases_s) / replay_s,
        "ratio",
    );
    Ok(out)
}

/// A fault-row run, flattened like explab's record.
fn chaos_run(stats: &netsim::SimStats) -> ChaosRun {
    ChaosRun {
        messages: stats.messages,
        delivered: stats.delivered,
        dropped: stats.dropped,
        total_hops: stats.total_hops,
        detour_hops: stats.detour_hops,
        cycles: stats.cycles,
    }
}

/// Replays one trial phase by phase under `parent`, comparing each phase's
/// result with the executor's record.
fn replay(
    spec: &TrialSpec,
    reference: &SweepOutcome,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) {
    let id = spec.id as u64;
    let phase = |name: &'static str, f: &mut dyn FnMut()| {
        tracer.span(name, Some(parent), id, |_| f());
    };
    let record = &reference.records[spec.id];
    let mut embedding: Option<Embedding> = None;
    phase("explab.phase.plan", &mut || {
        embedding = predicted_dilation(&spec.guest, &spec.host)
            .and_then(|_| embed(&spec.guest, &spec.host))
            .ok();
    });
    let mut mismatch = |what: &str| {
        out.check(false, || {
            format!("trial {}: replayed {what} differs from the record", spec.id)
        })
    };
    let (Some(embedding), Some(m)) = (embedding, record.metrics()) else {
        if record.is_supported() {
            mismatch("support");
        }
        return;
    };
    phase("explab.phase.verify", &mut || {
        let v = verify_sequential(&embedding);
        if (v.dilation, v.injective) != (m.measured_dilation, m.injective) {
            mismatch("verification");
        }
    });
    phase(
        "explab.phase.congestion",
        &mut || match congestion_sequential(&embedding) {
            Ok(c) if c.max_congestion == m.max_congestion => {}
            _ => mismatch("congestion"),
        },
    );
    let mut optimized: Option<Placement> = None;
    phase("explab.phase.anneal", &mut || {
        optimized = replay_anneal(spec, &embedding, m, &mut mismatch);
    });
    phase("explab.phase.wirelength", &mut || {
        replay_wirelength(spec, &embedding, m, &mut mismatch);
    });
    let network = Network::new(spec.host.clone());
    let placement = Placement::from_embedding(&embedding);
    phase("explab.phase.netsim", &mut || {
        let cycles: Vec<u64> = spec
            .workloads
            .iter()
            .filter_map(|&w| build_workload(w, &spec.guest, spec.seed))
            .map(|w| simulate(&network, &w, &placement, spec.rounds).cycles)
            .collect();
        let recorded: Vec<u64> = m.workloads.iter().map(|w| w.cycles).collect();
        if cycles != recorded {
            mismatch("workload makespans");
        }
    });
    phase("explab.phase.chaos", &mut || {
        replay_chaos(
            spec,
            &network,
            &placement,
            optimized.as_ref(),
            m,
            &mut mismatch,
        );
    });
}

/// The optimizer stage: sharded annealing under the plan's objective, the
/// winner re-measured, compared with the record. Returns the refined
/// placement for the chaos rows.
fn replay_anneal(
    spec: &TrialSpec,
    embedding: &Embedding,
    m: &TrialMetrics,
    mismatch: &mut dyn FnMut(&str),
) -> Option<Placement> {
    let optim = spec.optimize?;
    let config = ShardedConfig {
        base: OptimizerConfig {
            seed: splitmix64(spec.seed ^ 0x0971_a71e_5eed_c0de),
            steps: optim.steps,
            ..OptimizerConfig::default()
        },
        shards: optim.shards,
        strategy: if optim.portfolio {
            ShardStrategy::Portfolio
        } else {
            ShardStrategy::Restarts
        },
        workers: 1,
    };
    let sharded = match optim.objective {
        ObjectiveKind::Congestion => optimize_sharded(
            embedding,
            || CongestionObjective::new(&spec.guest, &spec.host),
            &config,
        ),
        ObjectiveKind::Wirelength | ObjectiveKind::Dilation | ObjectiveKind::Makespan => {
            mismatch("objective kind (only congestion plans are replayed)");
            return None;
        }
    };
    let Ok(sharded) = sharded else {
        mismatch("optimizer outcome");
        return None;
    };
    let refined = &sharded.outcome.embedding;
    let verification = verify_sequential(refined);
    let congestion = congestion_sequential(refined).ok();
    let recorded = m
        .optimized
        .as_ref()
        .map(|o| (o.winner_shard, o.max_congestion, o.injective));
    let replayed = congestion.map(|c| (sharded.winner, c.max_congestion, verification.injective));
    if replayed != recorded {
        mismatch("optimized placement");
    }
    Some(Placement::from_embedding(refined))
}

/// The wirelength stage of hypercube guests, compared with the record.
fn replay_wirelength(
    spec: &TrialSpec,
    embedding: &Embedding,
    m: &TrialMetrics,
    mismatch: &mut dyn FnMut(&str),
) {
    let Some(wl) = spec.wirelength.filter(|_| spec.guest.is_hypercube()) else {
        return;
    };
    let config = ShardedConfig {
        base: OptimizerConfig {
            seed: splitmix64(spec.seed ^ 0x7a96_2023_0d1e_57a1),
            steps: wl.steps,
            ..OptimizerConfig::default()
        },
        shards: wl.shards,
        strategy: ShardStrategy::Restarts,
        workers: 1,
    };
    let replayed = optimize_sharded(
        embedding,
        || WirelengthObjective::new(&spec.guest, &spec.host),
        &config,
    )
    .ok()
    .and_then(|sharded| {
        verify_sequential(&sharded.outcome.embedding);
        congestion_sequential(&sharded.outcome.embedding)
            .ok()
            .map(|c| c.total_path_length)
    });
    if replayed != m.wirelength.as_ref().map(|w| w.optimized) {
        mismatch("annealed wirelength");
    }
}

/// The chaos stage: fault rows for the constructive and refined placements
/// and the multi-tenant rows, compared with the record.
fn replay_chaos(
    spec: &TrialSpec,
    network: &Network,
    placement: &Placement,
    optimized: Option<&Placement>,
    m: &TrialMetrics,
    mismatch: &mut dyn FnMut(&str),
) {
    let (Some(chaos), Some(recorded)) = (spec.chaos.as_ref(), m.chaos.as_ref()) else {
        return;
    };
    let neighbor = build_workload(WorkloadSpec::Neighbor, &spec.guest, spec.seed)
        .expect("the neighbor exchange applies to every guest");
    let mut losses = vec![0u32];
    losses.extend(chaos.loss_percents.iter().copied().filter(|&l| l > 0));
    losses.sort_unstable();
    losses.dedup();
    let mut rows = Vec::new();
    for loss in losses {
        let plan = if loss == 0 {
            FaultPlan::none()
        } else {
            let seed = splitmix64(spec.seed ^ 0xfa17_ed11_4b5e_5eed ^ u64::from(loss));
            FaultPlan::random_link_percent(network.grid(), loss, seed)
        };
        let run = |p: &Placement| {
            chaos_run(&simulate_chaos(
                network,
                &neighbor,
                p,
                spec.rounds,
                &plan,
                ChaosRouting::Detour,
            ))
        };
        rows.push((run(placement), optimized.map(run)));
    }
    let recorded_rows: Vec<(ChaosRun, Option<ChaosRun>)> = recorded
        .fault_rows
        .iter()
        .map(|r| (r.constructive, r.optimized))
        .collect();
    if rows != recorded_rows {
        mismatch("fault rows");
    }

    let host_nodes = network.size();
    let compose = |tenants: u32| -> u64 {
        let placements: Vec<Placement> = (0..tenants)
            .map(|tenant| {
                let offset = u64::from(tenant) * (host_nodes / u64::from(tenants)).max(1);
                let table = (0..placement.tasks())
                    .map(|task| (placement.node_of(task) + offset) % host_nodes)
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
        .cycles
    };
    let solo = compose(1);
    let tenants: Vec<(u64, u64)> = recorded
        .tenant_rows
        .iter()
        .map(|row| (compose(row.tenants), solo))
        .collect();
    let recorded_tenants: Vec<(u64, u64)> = recorded
        .tenant_rows
        .iter()
        .map(|row| (row.cycles, row.solo_cycles))
        .collect();
    if tenants != recorded_tenants {
        mismatch("tenant rows");
    }
}
