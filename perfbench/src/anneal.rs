//! `anneal`: single long annealing walks from the constructive start, with
//! no embd or explab in the loop.
//!
//! On `torus:16x16x16 → mesh:64x64` (4096 nodes, dilation 8): congestion
//! with pairwise moves, wirelength with pairwise moves, and congestion with
//! `MoveMix::compound()`. Makespan with pairwise moves runs on
//! `torus:8x8x8 → mesh:16x32`, where a walk still gets through enough moves.
//!
//! A pass runs the four walks. Throughput is the geometric mean of the four
//! walks' proposed moves per second; latency is the wall time of a pass;
//! both come from the fastest pass (see `report::report_passes`).
//! Every walk is checked: the reported best cost equals a fresh objective's
//! `rebuild` of the returned table, and the table is a permutation.

use std::time::Instant;

use embeddings::auto::embed;
use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig};
use embeddings::optim::{
    CongestionObjective, Cost, MoveMix, Objective, OptimOutcome, Optimizer, OptimizerConfig,
    WirelengthObjective,
};
use embeddings::plan::parse_grid_spec;
use embeddings::Embedding;
use netsim::{MakespanObjective, Network, Workload};
use topology::parallel::splitmix64;
use topology::Grid;

use crate::cores;
use crate::report::{report_passes, Config, Outcome, SetupTimer};
use crate::stats::geomean;
use crate::trace::{SpanId, Tracer};

/// The objective a walk anneals under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Congestion,
    Wirelength,
    Makespan,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Congestion => "congestion",
            Kind::Wirelength => "wirelength",
            Kind::Makespan => "makespan",
        }
    }
}

/// One walk of a pass.
#[derive(Clone, Copy, Debug)]
struct Walk {
    name: &'static str,
    kind: Kind,
    mix: MoveMix,
    steps: u64,
}

fn walks(tiny: bool) -> [Walk; 4] {
    let steps = |full: u64, small: u64| if tiny { small } else { full };
    [
        Walk {
            name: "congestion",
            kind: Kind::Congestion,
            mix: MoveMix::pairwise(),
            steps: steps(10_000, 2_000),
        },
        Walk {
            name: "wirelength",
            kind: Kind::Wirelength,
            mix: MoveMix::pairwise(),
            steps: steps(15_000, 2_000),
        },
        Walk {
            name: "compound",
            kind: Kind::Congestion,
            mix: MoveMix::compound(),
            steps: steps(800, 500),
        },
        Walk {
            name: "makespan",
            kind: Kind::Makespan,
            mix: MoveMix::pairwise(),
            steps: steps(250, 200),
        },
    ]
}

/// A placed pair: the constructive embedding the walks start from.
struct Pair {
    guest: Grid,
    host: Grid,
    embedding: Embedding,
}

/// The objective kinds, in the order [`Prepared`] holds their objectives.
const KINDS: [Kind; 3] = [Kind::Congestion, Kind::Wirelength, Kind::Makespan];

/// Everything a pass needs, built at set-up: the two pairs and one
/// objective per kind (the congestion walks share theirs; every walk
/// rebuilds its objective's state first).
struct Prepared {
    large: Pair,
    makespan: Pair,
    objectives: Vec<Box<dyn Objective>>,
}

fn pair(guest: &str, host: &str) -> Result<Pair, String> {
    let guest = parse_grid_spec(guest).map_err(|e| e.to_string())?;
    let host = parse_grid_spec(host).map_err(|e| e.to_string())?;
    let embedding = embed(&guest, &host).map_err(|e| e.to_string())?;
    Ok(Pair {
        guest,
        host,
        embedding,
    })
}

fn new_objective(kind: Kind, pair: &Pair) -> Result<Box<dyn Objective>, String> {
    Ok(match kind {
        Kind::Congestion => {
            Box::new(CongestionObjective::new(&pair.guest, &pair.host).map_err(|e| e.to_string())?)
        }
        Kind::Wirelength => {
            Box::new(WirelengthObjective::new(&pair.guest, &pair.host).map_err(|e| e.to_string())?)
        }
        Kind::Makespan => Box::new(
            MakespanObjective::new(
                Network::new(pair.host.clone()),
                Workload::from_task_graph(&pair.guest),
                1,
            )
            .map_err(|e| e.to_string())?,
        ),
    })
}

fn prepare(tiny: bool) -> Result<Prepared, String> {
    let (large, makespan) = if tiny {
        (
            pair("torus:4x4x4", "mesh:8x8")?,
            pair("torus:4x2x3", "mesh:4x6")?,
        )
    } else {
        (
            pair("torus:16x16x16", "mesh:64x64")?,
            pair("torus:8x8x8", "mesh:16x32")?,
        )
    };
    let mut prepared = Prepared {
        large,
        makespan,
        objectives: Vec::new(),
    };
    for kind in KINDS {
        let pair = prepared.pair(kind);
        let mut objective = new_objective(kind, pair)?;
        // The objective's state for the constructive start, as a walk
        // builds it before its first move.
        objective.rebuild(&pair.embedding.to_table().map_err(|e| e.to_string())?);
        prepared.objectives.push(objective);
    }
    Ok(prepared)
}

impl Prepared {
    fn pair(&self, kind: Kind) -> &Pair {
        match kind {
            Kind::Makespan => &self.makespan,
            _ => &self.large,
        }
    }

    fn objective(&mut self, kind: Kind) -> &mut dyn Objective {
        let index = KINDS.iter().position(|&k| k == kind).expect("every kind");
        self.objectives[index].as_mut()
    }
}

fn walk_config(walk: &Walk, seed: u64) -> OptimizerConfig {
    OptimizerConfig {
        seed,
        steps: walk.steps,
        mix: walk.mix,
        ..OptimizerConfig::default()
    }
}

/// The seed of walk `index` in pass `pass`: a function of the workload seed.
fn walk_seed(seed: u64, pass: usize, index: usize) -> u64 {
    splitmix64(seed ^ 0xa22e_a100 ^ ((pass as u64) << 8) ^ index as u64)
}

/// Checks a finished walk: the best cost equals a fresh objective's rebuild
/// of the returned table, which must be a permutation. Returns whether the
/// walk passed.
fn check_walk(
    walk: &Walk,
    pair: &Pair,
    outcome: &OptimOutcome,
    cfg: &Config,
    out: &mut Outcome,
) -> bool {
    let mut seen = vec![false; outcome.table.len()];
    let permutation = outcome
        .table
        .iter()
        .all(|&x| (x as usize) < seen.len() && !std::mem::replace(&mut seen[x as usize], true));
    out.check(permutation, || {
        format!("{} walk returned a non-permutation", walk.name)
    });
    let rebuilt = match new_objective(walk.kind, pair) {
        Ok(mut fresh) => fresh.rebuild(&outcome.table),
        Err(error) => {
            out.check(false, || format!("{}: {error}", walk.name));
            return false;
        }
    };
    let mut reference = rebuilt;
    if cfg.corrupt_reference {
        reference.secondary += 1;
    }
    let same = outcome.report.best == reference;
    out.check(same, || {
        format!(
            "{} walk reported {:?} but a fresh rebuild gives {:?}",
            walk.name, outcome.report.best, reference
        )
    });
    permutation && same
}

/// Runs one walk and checks it, counting a failed operation for an
/// objective error or a rebuild mismatch.
fn run_walk(
    prepared: &mut Prepared,
    walk: &Walk,
    seed: u64,
    cfg: &Config,
    out: &mut Outcome,
    wrap: Option<&mut Timing>,
) -> Option<OptimOutcome> {
    out.attempted += 1;
    let optimizer = Optimizer::new(walk_config(walk, seed));
    let embedding = prepared.pair(walk.kind).embedding.clone();
    let objective = prepared.objective(walk.kind);
    let result = match wrap {
        Some(timing) => {
            let mut timed = TimedObjective {
                inner: objective,
                timing,
            };
            optimizer.optimize(&embedding, &mut timed)
        }
        None => optimizer.optimize(&embedding, objective),
    };
    match result {
        Ok(outcome) => {
            if !check_walk(walk, prepared.pair(walk.kind), &outcome, cfg, out) {
                out.failed += 1;
            }
            Some(outcome)
        }
        Err(error) => {
            out.failed += 1;
            out.check(false, || format!("{} walk failed: {error}", walk.name));
            None
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up batches and passes rotate over the cores (see `cores`).
    let _unpin = cores::Unpin;
    let mut turn = 0;
    let mut setup = SetupTimer::new(cfg);
    let mut prepared = setup.batch(3, || {
        cores::rotate(&mut turn);
        prepare(cfg.tiny)
    })?;
    let walks = walks(cfg.tiny);
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); walks.len()];
    let mut pass_s = Vec::new();
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        if !pass_s.is_empty() {
            setup.batch(1, || {
                cores::rotate(&mut turn);
                prepare(cfg.tiny)
            })?;
        }
        let pass = pass_s.len();
        cores::pin_to(pass);
        let pass_start = Instant::now();
        for (index, walk) in walks.iter().enumerate() {
            let start = Instant::now();
            let outcome = run_walk(
                &mut prepared,
                walk,
                walk_seed(cfg.seed, pass, index),
                cfg,
                &mut out,
                None,
            );
            let seconds = start.elapsed().as_secs_f64();
            rates[index].push(walk.steps as f64 / seconds);
            if let (0, Some(outcome)) = (pass, outcome) {
                out.count(
                    &format!("optim.accepted.{}", walk.name),
                    outcome.report.accepted,
                );
                out.count(
                    &format!("optim.best_primary.{}", walk.name),
                    outcome.report.best.primary,
                );
            }
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    // Per pass, the geometric mean of the four walks' rates.
    let pass_rates: Vec<f64> = (0..pass_s.len())
        .map(|pass| geomean(&rates.iter().map(|r| r[pass]).collect::<Vec<_>>()))
        .collect();
    report_passes(&mut out, setup.times(), &pass_rates, &pass_s);
    for (walk, samples) in walks.iter().zip(&rates) {
        out.figure(&format!("{}_moves_per_s", walk.name), "moves/s", samples);
    }
    Ok(out)
}

/// Time and call counts a [`TimedObjective`] accumulates.
#[derive(Default)]
struct Timing {
    objective_ns: u64,
    transpositions: u64,
}

/// A timing wrapper around a real objective, through the public
/// [`Objective`] trait: it forwards every call (keeping the inner
/// objective's own compound-move override) and accumulates the time spent
/// inside the objective and the transpositions it applied.
struct TimedObjective<'a> {
    inner: &'a mut dyn Objective,
    timing: &'a mut Timing,
}

impl TimedObjective<'_> {
    fn timed(&mut self, transpositions: u64, f: impl FnOnce(&mut dyn Objective) -> Cost) -> Cost {
        let start = Instant::now();
        let cost = f(&mut *self.inner);
        self.timing.objective_ns += start.elapsed().as_nanos() as u64;
        self.timing.transpositions += transpositions;
        cost
    }
}

impl Objective for TimedObjective<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rebuild(&mut self, table: &[u64]) -> Cost {
        self.timed(0, |inner| inner.rebuild(table))
    }

    fn apply_swap(&mut self, table: &[u64], a: u64, b: u64) -> Cost {
        self.timed(1, |inner| inner.apply_swap(table, a, b))
    }

    fn apply_disjoint_swaps(&mut self, table: &mut [u64], swaps: &[(u64, u64)]) -> Cost {
        self.timed(swaps.len() as u64, |inner| {
            inner.apply_disjoint_swaps(table, swaps)
        })
    }
}

/// The traced run: per-layer metrics of `embeddings::optim` and the
/// fork–join pool.
pub fn profile(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut prepared = prepare(cfg.tiny)?;
    let walks = walks(cfg.tiny);

    // Objective construction, per kind.
    for kind in KINDS {
        let start = Instant::now();
        std::hint::black_box(new_objective(kind, prepared.pair(kind))?);
        out.metric(
            &format!("optim.objective_build_ms.{}", kind.name()),
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
    }

    // The pass untraced, then traced with the same seeds.
    let start = Instant::now();
    for (index, walk) in walks.iter().enumerate() {
        run_walk(
            &mut prepared,
            walk,
            walk_seed(cfg.seed, 0, index),
            cfg,
            &mut out,
            None,
        );
    }
    let untraced_s = start.elapsed().as_secs_f64();
    let mut timings: Vec<Timing> = walks.iter().map(|_| Timing::default()).collect();
    let mut walk_spans: Vec<SpanId> = Vec::new();
    let mut accepted = Vec::new();
    let root = tracer.span("anneal.pass", None, 0, |root| {
        for (index, walk) in walks.iter().enumerate() {
            let (span, outcome) = tracer.span("optim.optimize", Some(root), index as u64, |span| {
                let outcome = run_walk(
                    &mut prepared,
                    walk,
                    walk_seed(cfg.seed, 0, index),
                    cfg,
                    &mut out,
                    Some(&mut timings[index]),
                );
                (span, outcome)
            });
            walk_spans.push(span);
            accepted.push(outcome.map_or(0, |o| o.report.accepted));
        }
        root
    });
    let traced_s = tracer.seconds(root);
    out.metric(
        "anneal.trace.overhead_ratio",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    );
    let self_s = tracer.self_seconds_under(root);
    out.metric(
        "anneal.trace.residue_ratio",
        self_s.get("anneal.pass").copied().unwrap_or(0.0) / traced_s,
        "ratio",
    );
    for (index, walk) in walks.iter().enumerate() {
        let steps = walk.steps as f64;
        let objective_s = timings[index].objective_ns as f64 / 1e9;
        let walk_s = tracer.seconds(walk_spans[index]);
        let name = walk.name;
        out.metric(
            &format!("optim.objective_us_per_move.{name}"),
            objective_s / steps * 1e6,
            "us",
        );
        out.metric(
            &format!("optim.walk_self_us_per_move.{name}"),
            (walk_s - objective_s) / steps * 1e6,
            "us",
        );
        out.metric(
            &format!("optim.transpositions_per_move.{name}"),
            timings[index].transpositions as f64 / steps,
            "count",
        );
        out.metric(
            &format!("optim.accept_ratio.{name}"),
            accepted[index] as f64 / steps,
            "ratio",
        );
    }

    // Fork–join pool: one congestion walk alone, then two shards of it on
    // two workers. Perfect scaling reads 1.0.
    let walk = walks[0];
    let sharded = |shards: u32, workers: usize| -> Result<f64, String> {
        let config = ShardedConfig {
            base: walk_config(&walk, walk_seed(cfg.seed, 1, 0)),
            shards,
            strategy: ShardStrategy::Restarts,
            workers,
        };
        let large = &prepared.large;
        let start = Instant::now();
        std::hint::black_box(
            optimize_sharded(
                &large.embedding,
                || CongestionObjective::new(&large.guest, &large.host),
                &config,
            )
            .map_err(|e| e.to_string())?,
        );
        Ok(start.elapsed().as_secs_f64())
    };
    let single_s = sharded(1, 1)?;
    let double_s = sharded(2, 2)?;
    out.metric("topology.parallel_efficiency", single_s / double_s, "ratio");
    Ok(out)
}
