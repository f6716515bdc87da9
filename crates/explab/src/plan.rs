//! Declarative sweep plans: which shape pairs to evaluate, under which
//! workloads.
//!
//! A [`SweepPlan`] is a seed plus a list of [`Family`] generators (each
//! expands into concrete guest/host [`Grid`] pairs) and a list of
//! [`WorkloadSpec`]s (each builds a `netsim` workload over the guest's
//! tasks). Plans come from three places: the built-ins of
//! [`SweepPlan::builtin`], a plan file parsed by [`SweepPlan::parse`], or
//! library code constructing the types directly (see
//! `examples/sweep_small.rs`).
//!
//! # Plan file format
//!
//! Line-oriented, `#` starts a comment:
//!
//! ```text
//! name = my-sweep
//! seed = 42
//! rounds = 1
//! workloads = neighbor, tornado, transpose
//! optimize = congestion      # none (default) | congestion | dilation | wirelength | makespan
//! optim_steps = 800          # annealing steps per shard
//! optim_shards = 4           # independently-seeded annealing walks per trial
//! optim_portfolio = true     # vary shard move mixes/temperatures (needs optimize)
//! wirelength = 600           # anneal hypercube guests toward Tang's bound (none disables)
//! wirelength_shards = 4      # independently-seeded wirelength walks (needs wirelength)
//! chaos = 1, 5, 10           # link-loss percentages for fault-tolerance rows
//! chaos_tenants = 2, 4       # multi-tenant contention sizes (needs chaos)
//! family paper
//! family ring_into max_size=32 max_dim=3
//! family torus_to_mesh max_size=24 max_dim=3
//! family same_shape max_size=32 max_dim=3
//! family hypercube max_dim=5
//! family hypercube_torus max_dim=5
//! family random count=16 max_size=40 max_dim=3
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::families::{distinct_shapes_of_size, grids_of_size, shapes_of_size};
use topology::{GraphKind, Grid, Shape};

use crate::error::{ExplabError, Result};

/// A generator of guest/host shape pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// The paper's worked instances: the summary-table pairs of Sections 3–5.
    Paper,
    /// `ring(n)` into every distinct mesh and torus of size `n`, for every
    /// `n ≤ max_size` — the Section 3 basic-embedding family.
    RingInto {
        /// Largest ring size to sweep.
        max_size: u64,
        /// Largest host dimension.
        max_dim: usize,
    },
    /// Every distinct torus shape into every distinct mesh shape of the same
    /// size, for every size `≤ max_size` — the paper's headline direction.
    TorusToMesh {
        /// Largest pair size to sweep.
        max_size: u64,
        /// Largest shape dimension on either side.
        max_dim: usize,
    },
    /// Each torus into the mesh of the *identical* shape (Lemma 36: dilation
    /// 2 whenever some dimension exceeds 2).
    SameShape {
        /// Largest pair size to sweep.
        max_size: u64,
        /// Largest shape dimension.
        max_dim: usize,
    },
    /// `hypercube(d)` into every distinct mesh and torus of size `2^d`, for
    /// `2 ≤ d ≤ max_dim`.
    Hypercube {
        /// Largest hypercube dimension to sweep.
        max_dim: usize,
    },
    /// `hypercube(d)` into every distinct non-binary *torus* of size `2^d`,
    /// for `2 ≤ d ≤ max_dim` — the cross-paper family behind EXPERIMENTS.md
    /// Table 11: every member has an exact Tang minimum-wirelength bound
    /// (`embeddings::lower_bound::wirelength_lower_bound`), so the
    /// `wirelength` plan key can compare the 1987 constructive embeddings and
    /// sharded-annealed tables against the closed form.
    HypercubeTorus {
        /// Largest hypercube dimension to sweep.
        max_dim: usize,
    },
    /// `count` random same-size pairs: a random size in `[4, max_size]`, a
    /// random ordered shape of that size for each side, and random kinds.
    /// Fully determined by the seed. A parameterization that cannot produce
    /// shapes (e.g. `max_dim = 0`) yields fewer — possibly zero — pairs
    /// rather than retrying forever.
    Random {
        /// How many pairs to draw.
        count: usize,
        /// Largest pair size to draw from.
        max_size: u64,
        /// Largest shape dimension on either side.
        max_dim: usize,
    },
}

fn shape(radices: &[u32]) -> Shape {
    Shape::new(radices.to_vec()).expect("static shapes are valid")
}

impl Family {
    /// The family's name, as used in plan files and trial records.
    pub fn name(&self) -> &'static str {
        match self {
            Family::Paper => "paper",
            Family::RingInto { .. } => "ring_into",
            Family::TorusToMesh { .. } => "torus_to_mesh",
            Family::SameShape { .. } => "same_shape",
            Family::Hypercube { .. } => "hypercube",
            Family::HypercubeTorus { .. } => "hypercube_torus",
            Family::Random { .. } => "random",
        }
    }

    /// Expands the family into concrete guest/host pairs. `seed` only
    /// matters for [`Family::Random`]; every other family is a pure
    /// enumeration.
    pub fn pairs(&self, seed: u64) -> Vec<(Grid, Grid)> {
        match *self {
            Family::Paper => paper_pairs(),
            Family::RingInto { max_size, max_dim } => {
                let mut out = Vec::new();
                for n in 4..=max_size {
                    let ring = Grid::ring(n).expect("n >= 4");
                    for host in grids_of_size(GraphKind::Mesh, n, max_dim)
                        .into_iter()
                        .chain(grids_of_size(GraphKind::Torus, n, max_dim))
                    {
                        // Skip the identity ring-in-ring pair but keep
                        // ring-in-line (dilation 2) and everything else.
                        if host.is_ring() {
                            continue;
                        }
                        out.push((ring.clone(), host));
                    }
                }
                out
            }
            Family::TorusToMesh { max_size, max_dim } => {
                let mut out = Vec::new();
                for n in 4..=max_size {
                    let guests = distinct_shapes_of_size(n, max_dim);
                    for guest_shape in &guests {
                        for host_shape in &guests {
                            out.push((
                                Grid::torus(guest_shape.clone()),
                                Grid::mesh(host_shape.clone()),
                            ));
                        }
                    }
                }
                out
            }
            Family::SameShape { max_size, max_dim } => {
                let mut out = Vec::new();
                for n in 4..=max_size {
                    for s in distinct_shapes_of_size(n, max_dim) {
                        out.push((Grid::torus(s.clone()), Grid::mesh(s)));
                    }
                }
                out
            }
            Family::Hypercube { max_dim } => {
                let mut out = Vec::new();
                for d in 2..=max_dim {
                    let cube = match Grid::hypercube(d) {
                        Ok(cube) => cube,
                        Err(_) => break,
                    };
                    let n = cube.size();
                    for host in grids_of_size(GraphKind::Mesh, n, d)
                        .into_iter()
                        .chain(grids_of_size(GraphKind::Torus, n, d))
                    {
                        // The hypercube itself appears as the all-2s shape on
                        // both lists; skip the identity pairs.
                        if host.shape().is_binary() {
                            continue;
                        }
                        out.push((cube.clone(), host));
                    }
                }
                out
            }
            Family::HypercubeTorus { max_dim } => {
                let mut out = Vec::new();
                for d in 2..=max_dim {
                    let cube = match Grid::hypercube(d) {
                        Ok(cube) => cube,
                        Err(_) => break,
                    };
                    let n = cube.size();
                    for host in grids_of_size(GraphKind::Torus, n, d) {
                        // The all-2s torus is the hypercube itself; skip the
                        // identity pair (its bound is just the edge count).
                        if host.shape().is_binary() {
                            continue;
                        }
                        out.push((cube.clone(), host));
                    }
                }
                out
            }
            Family::Random {
                count,
                max_size,
                max_dim,
            } => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_fa71_11e5);
                let mut out = Vec::with_capacity(count);
                // Sizes without a usable shape (e.g. `max_dim = 0`, or a
                // prime too large for one radix) are redrawn; the attempt
                // budget keeps a family that can never produce shapes from
                // spinning forever — it yields fewer (possibly zero) pairs
                // instead.
                let mut attempts = count.saturating_mul(64).max(1024);
                // The smallest pair has 4 nodes; a tighter cap can't be
                // honored, so it produces nothing rather than pairs larger
                // than the caller asked for.
                if max_size < 4 {
                    attempts = 0;
                }
                while out.len() < count && attempts > 0 {
                    attempts -= 1;
                    let n = rng.gen_range(4u64..=max_size);
                    let shapes = shapes_of_size(n, max_dim);
                    if shapes.is_empty() {
                        continue;
                    }
                    let guest = shapes[rng.gen_range(0..shapes.len())].clone();
                    let host = shapes[rng.gen_range(0..shapes.len())].clone();
                    let guest_kind = if rng.gen_bool(0.5) {
                        GraphKind::Torus
                    } else {
                        GraphKind::Mesh
                    };
                    let host_kind = if rng.gen_bool(0.5) {
                        GraphKind::Torus
                    } else {
                        GraphKind::Mesh
                    };
                    out.push((Grid::new(guest_kind, guest), Grid::new(host_kind, host)));
                }
                out
            }
        }
    }
}

/// The paper's summary-table pairs (Sections 3–5), the rows EXPERIMENTS.md
/// reproduces in detail.
fn paper_pairs() -> Vec<(Grid, Grid)> {
    vec![
        (Grid::line(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        (Grid::ring(24).unwrap(), Grid::mesh(shape(&[4, 2, 3]))),
        (Grid::ring(24).unwrap(), Grid::torus(shape(&[4, 2, 3]))),
        (Grid::ring(9).unwrap(), Grid::mesh(shape(&[3, 3]))),
        (
            Grid::torus(shape(&[4, 2, 3])),
            Grid::mesh(shape(&[4, 2, 3])),
        ),
        (
            Grid::torus(shape(&[4, 6])),
            Grid::mesh(shape(&[2, 2, 2, 3])),
        ),
        (
            Grid::torus(shape(&[4, 6])),
            Grid::torus(shape(&[2, 2, 2, 3])),
        ),
        (
            Grid::torus(shape(&[9, 15])),
            Grid::mesh(shape(&[3, 3, 3, 5])),
        ),
        (Grid::hypercube(4).unwrap(), Grid::mesh(shape(&[4, 4]))),
        (Grid::hypercube(4).unwrap(), Grid::ring(16).unwrap()),
        (Grid::torus(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6]))),
        (Grid::mesh(shape(&[4, 2, 3])), Grid::mesh(shape(&[4, 6]))),
        (Grid::mesh(shape(&[3, 3, 6])), Grid::mesh(shape(&[6, 9]))),
        (Grid::mesh(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))),
    ]
}

/// A workload generator applied to every trial's guest graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Neighbor exchange over the guest's edges — the traffic whose hop count
    /// the dilation theorems bound.
    Neighbor,
    /// Tornado traffic (worst case for minimal routing on rings/toruses).
    Tornado,
    /// Matrix transpose over the guest's first dimension × the rest.
    /// Inapplicable to 1-dimensional guests.
    Transpose,
    /// Bit-reversal permutation. Applicable only when the guest size is a
    /// power of two.
    BitReversal,
    /// All-to-all personalized exchange. Applicable only up to 64 tasks (the
    /// message count is quadratic).
    AllToAll,
    /// Uniformly random pairs, two messages per task, seeded per trial.
    Random,
}

/// Which objective the optimizer refines a trial's placement table under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Minimize max link congestion (ties: total routed path length);
    /// incremental delta evaluation, the default.
    Congestion,
    /// Minimize total path length / average dilation (ties: max dilation):
    /// the unit-weight wirelength objective, recorded as `dilation`.
    Dilation,
    /// Minimize the unit-weight wirelength — the total routed path length
    /// over guest edges, the quantity Tang's bound speaks about (ties: max
    /// per-edge distance); incremental delta evaluation.
    Wirelength,
    /// Minimize the simulated makespan of the guest's neighbor-exchange
    /// workload; every move re-simulates, so prefer small step counts.
    Makespan,
}

impl ObjectiveKind {
    /// The objective's name, as used in plan files and trial records.
    pub fn name(&self) -> &'static str {
        match self {
            ObjectiveKind::Congestion => "congestion",
            ObjectiveKind::Dilation => "dilation",
            ObjectiveKind::Wirelength => "wirelength",
            ObjectiveKind::Makespan => "makespan",
        }
    }

    /// Parses an objective name.
    pub fn from_name(name: &str) -> Option<ObjectiveKind> {
        [
            ObjectiveKind::Congestion,
            ObjectiveKind::Dilation,
            ObjectiveKind::Wirelength,
            ObjectiveKind::Makespan,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// The optimizer stage of a plan: refine every supported trial's placement
/// under `objective`, running `shards` independently-seeded annealing walks
/// of `steps` moves each and keeping the lexicographically best result
/// (seeded per trial and per shard, so records stay bit-identical for any
/// worker count — see `embeddings::optim::parallel`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimSpec {
    /// The objective to refine under.
    pub objective: ObjectiveKind,
    /// Proposed moves per shard.
    pub steps: u64,
    /// Independently-seeded walks per trial (`optim_shards`; 1 = the
    /// sequential optimizer).
    pub shards: u32,
    /// Whether the non-zero shards run the `embeddings::optim::parallel`
    /// portfolio palette (per-shard move mixes and temperature schedules)
    /// instead of seed-only restarts (`optim_portfolio`). Shard 0 always
    /// runs the base config, so the sequential baseline stays comparable.
    pub portfolio: bool,
}

/// The chaos stage of a plan: degraded-operation measurements for every
/// supported trial, produced by `netsim::chaos`.
///
/// For each percentage in `loss_percents` the trial's host network gets a
/// seeded [`netsim::chaos::FaultPlan`] failing that share of its links, and
/// the guest's neighbor-exchange workload is re-simulated with the detour
/// router under both the constructive and (when optimization is on) the
/// annealed placement — plus the implicit pristine 0% baseline row, which
/// must reproduce the unfaulted simulator bit for bit. For each `K` in
/// `tenants`, `K` rotated copies of the constructive placement are composed
/// onto the shared host with [`netsim::traffic::multi_tenant`] and the
/// contention makespan is compared against the single-tenant run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Link-loss percentages (each > 0; the 0% baseline row is implicit).
    pub loss_percents: Vec<u32>,
    /// Multi-tenant sizes `K ≥ 2` to compose onto the shared host.
    pub tenants: Vec<u32>,
}

/// Every workload spec, in the order used by plan listings.
pub const ALL_WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec::Neighbor,
    WorkloadSpec::Tornado,
    WorkloadSpec::Transpose,
    WorkloadSpec::BitReversal,
    WorkloadSpec::AllToAll,
    WorkloadSpec::Random,
];

impl WorkloadSpec {
    /// The spec's name, as used in plan files and trial records.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Neighbor => "neighbor",
            WorkloadSpec::Tornado => "tornado",
            WorkloadSpec::Transpose => "transpose",
            WorkloadSpec::BitReversal => "bitrev",
            WorkloadSpec::AllToAll => "alltoall",
            WorkloadSpec::Random => "random",
        }
    }

    /// Parses a spec name.
    pub fn from_name(name: &str) -> Option<WorkloadSpec> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == name)
    }
}

/// The wirelength stage of a plan: for every supported trial whose guest is
/// a hypercube, measure the constructive embedding's wirelength (the total
/// routed path length), anneal the placement under the unit-weight
/// [`embeddings::optim::WirelengthObjective`] with `shards`
/// independently-seeded walks of `steps` moves each, and compare both
/// numbers against Tang's exact minimum
/// (`embeddings::lower_bound::wirelength_lower_bound`) — EXPERIMENTS.md
/// Table 11. A measured wirelength below the bound is a bound violation and
/// fails the trial's `bound_ok`. Non-hypercube guests skip the stage (the
/// closed form does not apply to them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WirelengthSpec {
    /// Proposed annealing moves per shard.
    pub steps: u64,
    /// Independently-seeded walks per trial (`wirelength_shards`; 1 = the
    /// sequential optimizer).
    pub shards: u32,
}

/// The optimizer step count a plan file gets when `optimize` is set without
/// an explicit `optim_steps`.
pub const DEFAULT_OPTIM_STEPS: u64 = 800;

/// The shard count a plan file gets when `optimize` is set without an
/// explicit `optim_shards`.
pub const DEFAULT_OPTIM_SHARDS: u32 = 1;

/// Whether a plan file's optimizer stage runs portfolio shards when
/// `optimize` is set without an explicit `optim_portfolio`.
pub const DEFAULT_OPTIM_PORTFOLIO: bool = false;

/// The shard count a plan file gets when `wirelength` is set without an
/// explicit `wirelength_shards`.
pub const DEFAULT_WIRELENGTH_SHARDS: u32 = 1;

/// A declarative sweep: families × workloads, a seed, and a round count for
/// the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepPlan {
    /// The plan's name (echoed in reports and JSONL records).
    pub name: String,
    /// The master seed; per-trial seeds are derived from it and the trial id.
    pub seed: u64,
    /// Simulated rounds per workload.
    pub rounds: usize,
    /// The shape-pair generators.
    pub families: Vec<Family>,
    /// The workloads run on every supported pair.
    pub workloads: Vec<WorkloadSpec>,
    /// When set, every supported trial additionally refines its placement
    /// with the seeded local-search optimizer and records
    /// constructive-vs-optimized measurements.
    pub optimize: Option<OptimSpec>,
    /// When set, every supported hypercube-guest trial additionally anneals
    /// its placement toward Tang's exact minimum-wirelength bound and
    /// records constructive/annealed/bound wirelengths (Table 11).
    pub wirelength: Option<WirelengthSpec>,
    /// When set, every supported trial additionally records degraded-
    /// operation measurements (fault-tolerance and multi-tenant contention
    /// rows) via `netsim::chaos`.
    pub chaos: Option<ChaosSpec>,
}

impl SweepPlan {
    /// The names of the built-in plans.
    pub const BUILTIN_NAMES: [&'static str; 3] = ["smoke", "report", "bench"];

    /// Looks up a built-in plan by name.
    ///
    /// * `smoke` — a seconds-scale sweep over tiny (≤ 16-node) families, used
    ///   by the CI smoke job;
    /// * `report` — the plan behind `lab report` / the checked-in
    ///   EXPERIMENTS.md;
    /// * `bench` — the fixed small family the `explab_throughput` rows of
    ///   `emb_bench::workloads` time, and `benchgate BENCH_explab.json`
    ///   gates.
    ///
    /// # Errors
    ///
    /// Returns [`ExplabError::UnknownPlan`] for any other name.
    pub fn builtin(name: &str) -> Result<SweepPlan> {
        match name {
            // Every smoke shape has at most 64 nodes, so the CI smoke job
            // stays seconds-scale even on one core.
            "smoke" => Ok(SweepPlan {
                name: "smoke".into(),
                seed: 7,
                rounds: 1,
                families: vec![
                    Family::Hypercube { max_dim: 4 },
                    Family::HypercubeTorus { max_dim: 4 },
                    Family::RingInto {
                        max_size: 16,
                        max_dim: 3,
                    },
                    Family::SameShape {
                        max_size: 16,
                        max_dim: 3,
                    },
                    Family::TorusToMesh {
                        max_size: 12,
                        max_dim: 3,
                    },
                ],
                workloads: vec![WorkloadSpec::Neighbor, WorkloadSpec::Tornado],
                optimize: Some(OptimSpec {
                    objective: ObjectiveKind::Congestion,
                    steps: 200,
                    shards: 2,
                    portfolio: true,
                }),
                wirelength: Some(WirelengthSpec {
                    steps: 200,
                    shards: 2,
                }),
                chaos: Some(ChaosSpec {
                    loss_percents: vec![10],
                    tenants: vec![2],
                }),
            }),
            "report" => Ok(SweepPlan {
                name: "report".into(),
                seed: 1987, // the paper's publication year
                rounds: 1,
                families: vec![
                    Family::Paper,
                    Family::RingInto {
                        max_size: 32,
                        max_dim: 3,
                    },
                    Family::TorusToMesh {
                        max_size: 24,
                        max_dim: 3,
                    },
                    Family::SameShape {
                        max_size: 36,
                        max_dim: 3,
                    },
                    Family::Hypercube { max_dim: 6 },
                    Family::HypercubeTorus { max_dim: 6 },
                    Family::Random {
                        count: 24,
                        max_size: 40,
                        max_dim: 3,
                    },
                ],
                workloads: vec![
                    WorkloadSpec::Neighbor,
                    WorkloadSpec::Tornado,
                    WorkloadSpec::Transpose,
                    WorkloadSpec::BitReversal,
                ],
                optimize: Some(OptimSpec {
                    objective: ObjectiveKind::Congestion,
                    steps: 1_200,
                    shards: 4,
                    portfolio: true,
                }),
                wirelength: Some(WirelengthSpec {
                    steps: 1_200,
                    shards: 4,
                }),
                chaos: Some(ChaosSpec {
                    loss_percents: vec![1, 5, 10],
                    tenants: vec![2, 4],
                }),
            }),
            "bench" => Ok(SweepPlan {
                name: "bench".into(),
                seed: 11,
                rounds: 1,
                families: vec![
                    Family::RingInto {
                        max_size: 24,
                        max_dim: 3,
                    },
                    Family::SameShape {
                        max_size: 24,
                        max_dim: 3,
                    },
                ],
                workloads: vec![WorkloadSpec::Neighbor],
                // The bench plan feeds the `explab_throughput` baseline;
                // keeping it optimizer-free (and chaos-free) keeps
                // BENCH_explab.json comparable across PRs (the optimizer and
                // the chaos router have their own workload rows).
                optimize: None,
                wirelength: None,
                chaos: None,
            }),
            other => Err(ExplabError::UnknownPlan { name: other.into() }),
        }
    }

    /// Parses a plan file (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// Returns [`ExplabError::PlanParse`] with the offending line, or
    /// [`ExplabError::InvalidPlan`] if the parsed plan has no families.
    pub fn parse(text: &str) -> Result<SweepPlan> {
        let mut plan = SweepPlan {
            name: "custom".into(),
            seed: 0,
            rounds: 1,
            families: Vec::new(),
            workloads: vec![WorkloadSpec::Neighbor],
            optimize: None,
            wirelength: None,
            chaos: None,
        };
        let mut optim_steps: Option<u64> = None;
        let mut optim_shards: Option<u32> = None;
        let mut optim_portfolio: Option<bool> = None;
        let mut wirelength_shards: Option<u32> = None;
        let mut chaos_tenants: Option<Vec<u32>> = None;
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            if let Some(rest) = content.strip_prefix("family ") {
                plan.families.push(parse_family(rest.trim(), line)?);
                continue;
            }
            let (key, value) = content
                .split_once('=')
                .ok_or_else(|| ExplabError::PlanParse {
                    line,
                    message: format!("expected `key = value` or `family …`, got {content:?}"),
                })?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => plan.name = value.to_string(),
                "seed" => {
                    plan.seed = value.parse().map_err(|_| ExplabError::PlanParse {
                        line,
                        message: format!("seed must be a u64, got {value:?}"),
                    })?;
                }
                "rounds" => {
                    plan.rounds = value.parse().map_err(|_| ExplabError::PlanParse {
                        line,
                        message: format!("rounds must be a usize, got {value:?}"),
                    })?;
                }
                "workloads" => {
                    let mut specs = Vec::new();
                    for name in value.split(',') {
                        let name = name.trim();
                        let spec = WorkloadSpec::from_name(name).ok_or_else(|| {
                            ExplabError::PlanParse {
                                line,
                                message: format!("unknown workload {name:?}"),
                            }
                        })?;
                        specs.push(spec);
                    }
                    plan.workloads = specs;
                }
                "optimize" => {
                    plan.optimize = match value {
                        "none" => None,
                        name => {
                            let objective = ObjectiveKind::from_name(name).ok_or_else(|| {
                                ExplabError::PlanParse {
                                    line,
                                    message: format!(
                                        "optimize must be none, congestion, dilation, \
                                         wirelength or makespan, got {name:?}"
                                    ),
                                }
                            })?;
                            Some(OptimSpec {
                                objective,
                                steps: DEFAULT_OPTIM_STEPS,
                                shards: DEFAULT_OPTIM_SHARDS,
                                portfolio: DEFAULT_OPTIM_PORTFOLIO,
                            })
                        }
                    };
                }
                "optim_steps" => {
                    let steps = value.parse().map_err(|_| ExplabError::PlanParse {
                        line,
                        message: format!("optim_steps must be a u64, got {value:?}"),
                    })?;
                    optim_steps = Some(steps);
                }
                "wirelength" => {
                    plan.wirelength = match value {
                        "none" => None,
                        steps => {
                            let steps: u64 = steps.parse().map_err(|_| ExplabError::PlanParse {
                                line,
                                message: format!(
                                    "wirelength must be none or an annealing step \
                                         count, got {value:?}"
                                ),
                            })?;
                            Some(WirelengthSpec {
                                steps,
                                shards: DEFAULT_WIRELENGTH_SHARDS,
                            })
                        }
                    };
                }
                "wirelength_shards" => {
                    let shards: u32 = value.parse().map_err(|_| ExplabError::PlanParse {
                        line,
                        message: format!("wirelength_shards must be a u32, got {value:?}"),
                    })?;
                    if shards == 0 {
                        return Err(ExplabError::PlanParse {
                            line,
                            message: "wirelength_shards must be at least 1".into(),
                        });
                    }
                    wirelength_shards = Some(shards);
                }
                "chaos" => {
                    plan.chaos = match value {
                        "none" => None,
                        list => {
                            let mut loss_percents = Vec::new();
                            for entry in list.split(',').map(str::trim) {
                                let percent: u32 =
                                    entry.parse().map_err(|_| ExplabError::PlanParse {
                                        line,
                                        message: format!(
                                            "chaos must be none or a list of loss \
                                             percentages, got {entry:?}"
                                        ),
                                    })?;
                                if percent == 0 || percent > 100 {
                                    return Err(ExplabError::PlanParse {
                                        line,
                                        message: format!(
                                            "chaos loss percentages must be in 1..=100, \
                                             got {percent}"
                                        ),
                                    });
                                }
                                loss_percents.push(percent);
                            }
                            Some(ChaosSpec {
                                loss_percents,
                                tenants: Vec::new(),
                            })
                        }
                    };
                }
                "chaos_tenants" => {
                    let mut tenants = Vec::new();
                    for entry in value.split(',').map(str::trim) {
                        let k: u32 = entry.parse().map_err(|_| ExplabError::PlanParse {
                            line,
                            message: format!(
                                "chaos_tenants must be a list of tenant counts, got {entry:?}"
                            ),
                        })?;
                        if k < 2 {
                            return Err(ExplabError::PlanParse {
                                line,
                                message: format!(
                                    "chaos_tenants entries must be at least 2, got {k}"
                                ),
                            });
                        }
                        tenants.push(k);
                    }
                    chaos_tenants = Some(tenants);
                }
                "optim_shards" => {
                    let shards: u32 = value.parse().map_err(|_| ExplabError::PlanParse {
                        line,
                        message: format!("optim_shards must be a u32, got {value:?}"),
                    })?;
                    if shards == 0 {
                        return Err(ExplabError::PlanParse {
                            line,
                            message: "optim_shards must be at least 1".into(),
                        });
                    }
                    optim_shards = Some(shards);
                }
                "optim_portfolio" => {
                    let portfolio = match value {
                        "true" => true,
                        "false" => false,
                        _ => {
                            return Err(ExplabError::PlanParse {
                                line,
                                message: format!(
                                    "optim_portfolio must be true or false, got {value:?}"
                                ),
                            });
                        }
                    };
                    optim_portfolio = Some(portfolio);
                }
                other => {
                    return Err(ExplabError::PlanParse {
                        line,
                        message: format!("unknown key {other:?}"),
                    });
                }
            }
        }
        match (&mut plan.optimize, optim_steps) {
            (Some(spec), Some(steps)) => spec.steps = steps,
            (None, Some(_)) => {
                return Err(ExplabError::InvalidPlan {
                    message: "optim_steps requires an `optimize = <objective>` line".into(),
                });
            }
            _ => {}
        }
        match (&mut plan.optimize, optim_shards) {
            (Some(spec), Some(shards)) => spec.shards = shards,
            (None, Some(_)) => {
                return Err(ExplabError::InvalidPlan {
                    message: "optim_shards requires an `optimize = <objective>` line".into(),
                });
            }
            _ => {}
        }
        match (&mut plan.optimize, optim_portfolio) {
            (Some(spec), Some(portfolio)) => spec.portfolio = portfolio,
            (None, Some(_)) => {
                return Err(ExplabError::InvalidPlan {
                    message: "optim_portfolio requires an `optimize = <objective>` line".into(),
                });
            }
            _ => {}
        }
        match (&mut plan.wirelength, wirelength_shards) {
            (Some(spec), Some(shards)) => spec.shards = shards,
            (None, Some(_)) => {
                return Err(ExplabError::InvalidPlan {
                    message: "wirelength_shards requires a `wirelength = <steps>` line".into(),
                });
            }
            _ => {}
        }
        match (&mut plan.chaos, chaos_tenants) {
            (Some(spec), Some(tenants)) => spec.tenants = tenants,
            (None, Some(_)) => {
                return Err(ExplabError::InvalidPlan {
                    message: "chaos_tenants requires a `chaos = <percent list>` line".into(),
                });
            }
            _ => {}
        }
        if plan.families.is_empty() {
            return Err(ExplabError::InvalidPlan {
                message: "a plan needs at least one `family` line".into(),
            });
        }
        Ok(plan)
    }
}

/// Parses one `family` line body: a family name followed by `key=value`
/// arguments.
fn parse_family(body: &str, line: usize) -> Result<Family> {
    let mut parts = body.split_whitespace();
    let name = parts.next().ok_or_else(|| ExplabError::PlanParse {
        line,
        message: "missing family name".into(),
    })?;
    let mut args: Vec<(&str, &str)> = Vec::new();
    for part in parts {
        let (key, value) = part.split_once('=').ok_or_else(|| ExplabError::PlanParse {
            line,
            message: format!("family argument {part:?} is not key=value"),
        })?;
        args.push((key, value));
    }
    let get = |key: &str, default: u64| -> Result<u64> {
        match args.iter().find(|(k, _)| *k == key) {
            None => Ok(default),
            Some((_, value)) => value.parse().map_err(|_| ExplabError::PlanParse {
                line,
                message: format!("family argument {key}={value:?} is not an integer"),
            }),
        }
    };
    let family = match name {
        "paper" => Family::Paper,
        "ring_into" => Family::RingInto {
            max_size: get("max_size", 16)?,
            max_dim: get("max_dim", 3)? as usize,
        },
        "torus_to_mesh" => Family::TorusToMesh {
            max_size: get("max_size", 12)?,
            max_dim: get("max_dim", 3)? as usize,
        },
        "same_shape" => Family::SameShape {
            max_size: get("max_size", 16)?,
            max_dim: get("max_dim", 3)? as usize,
        },
        "hypercube" => Family::Hypercube {
            max_dim: get("max_dim", 5)? as usize,
        },
        "hypercube_torus" => Family::HypercubeTorus {
            max_dim: get("max_dim", 5)? as usize,
        },
        "random" => Family::Random {
            count: get("count", 8)? as usize,
            max_size: get("max_size", 24)?,
            max_dim: get("max_dim", 3)? as usize,
        },
        other => {
            return Err(ExplabError::PlanParse {
                line,
                message: format!("unknown family {other:?}"),
            });
        }
    };
    // Reject arguments the family does not understand.
    let known: &[&str] = match family {
        Family::Paper => &[],
        Family::RingInto { .. } | Family::TorusToMesh { .. } | Family::SameShape { .. } => {
            &["max_size", "max_dim"]
        }
        Family::Hypercube { .. } | Family::HypercubeTorus { .. } => &["max_dim"],
        Family::Random { .. } => &["count", "max_size", "max_dim"],
    };
    if let Some((key, _)) = args.iter().find(|(k, _)| !known.contains(k)) {
        return Err(ExplabError::PlanParse {
            line,
            message: format!("family {name:?} does not take argument {key:?}"),
        });
    }
    Ok(family)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_plans_exist_and_expand() {
        for name in SweepPlan::BUILTIN_NAMES {
            let plan = SweepPlan::builtin(name).unwrap();
            assert_eq!(plan.name, name);
            assert!(!plan.families.is_empty());
            let pairs: usize = plan.families.iter().map(|f| f.pairs(plan.seed).len()).sum();
            assert!(pairs > 0, "{name} expands to no pairs");
        }
        assert!(SweepPlan::builtin("nope").is_err());
    }

    #[test]
    fn paper_family_pairs_have_equal_sizes() {
        for (guest, host) in Family::Paper.pairs(0) {
            assert_eq!(guest.size(), host.size(), "{guest} -> {host}");
        }
    }

    #[test]
    fn ring_into_family_covers_meshes_and_toruses() {
        let pairs = Family::RingInto {
            max_size: 8,
            max_dim: 3,
        }
        .pairs(0);
        assert!(pairs.iter().all(|(g, _)| g.is_ring()));
        assert!(pairs.iter().any(|(_, h)| h.is_mesh()));
        assert!(pairs.iter().any(|(_, h)| h.is_torus() && !h.is_ring()));
        assert!(pairs.iter().all(|(g, h)| g.size() == h.size()));
    }

    #[test]
    fn hypercube_torus_family_pairs_all_carry_the_tang_bound() {
        let pairs = Family::HypercubeTorus { max_dim: 5 }.pairs(0);
        // d=2: (4); d=3: (8),(4,2); d=4: (16),(8,2),(4,4),(4,2,2);
        // d=5: (32),(16,2),(8,4),(8,2,2),(4,4,2),(4,2,2,2).
        assert_eq!(pairs.len(), 1 + 2 + 4 + 6);
        for (guest, host) in &pairs {
            assert!(guest.is_hypercube(), "{guest}");
            assert!(host.is_torus() && !host.shape().is_binary(), "{host}");
            assert_eq!(guest.size(), host.size());
            // Every member is covered by the closed form.
            let bound = embeddings::lower_bound::wirelength_lower_bound(guest, host).unwrap();
            assert!(bound > 0, "{guest} -> {host}");
        }
    }

    #[test]
    fn wirelength_plan_keys_parse_and_validate() {
        let plan =
            SweepPlan::parse("family paper\nwirelength = 300\nwirelength_shards = 3").unwrap();
        assert_eq!(
            plan.wirelength,
            Some(WirelengthSpec {
                steps: 300,
                shards: 3,
            })
        );
        // The shard default applies without the explicit key; `none`
        // disables the stage.
        let defaulted = SweepPlan::parse("family paper\nwirelength = 500").unwrap();
        assert_eq!(
            defaulted.wirelength,
            Some(WirelengthSpec {
                steps: 500,
                shards: DEFAULT_WIRELENGTH_SHARDS,
            })
        );
        assert_eq!(
            SweepPlan::parse("family paper\nwirelength = none")
                .unwrap()
                .wirelength,
            None
        );
        // The wirelength stage is independent of `optimize = wirelength`,
        // which refines under the same objective but feeds Tables 7/8.
        let combined =
            SweepPlan::parse("family paper\noptimize = wirelength\nwirelength = 100").unwrap();
        assert_eq!(combined.optimize.unwrap().objective.name(), "wirelength");
        assert!(combined.wirelength.is_some());
        // Shards without the stage, zero shards, and junk are rejected.
        assert!(SweepPlan::parse("family paper\nwirelength_shards = 2").is_err());
        assert!(SweepPlan::parse("family paper\nwirelength = 100\nwirelength_shards = 0").is_err());
        assert!(SweepPlan::parse("family paper\nwirelength = lots").is_err());
    }

    #[test]
    fn random_family_without_producible_shapes_terminates_empty() {
        let family = Family::Random {
            count: 4,
            max_size: 10,
            max_dim: 0,
        };
        assert!(family.pairs(1).is_empty());
        // A size cap below the smallest possible pair likewise yields
        // nothing instead of pairs larger than the cap.
        let capped = Family::Random {
            count: 4,
            max_size: 3,
            max_dim: 3,
        };
        assert!(capped.pairs(1).is_empty());
    }

    #[test]
    fn random_family_is_seed_deterministic() {
        let family = Family::Random {
            count: 10,
            max_size: 24,
            max_dim: 3,
        };
        assert_eq!(family.pairs(5), family.pairs(5));
        assert_ne!(family.pairs(5), family.pairs(6));
        assert_eq!(family.pairs(5).len(), 10);
    }

    #[test]
    fn plan_files_round_trip_the_builtins_shape() {
        let text = "
            # a comment
            name = parsed
            seed = 99
            rounds = 2
            workloads = neighbor, bitrev
            family paper
            family ring_into max_size=12 max_dim=2
            family random count=3 max_size=16 max_dim=3
        ";
        let plan = SweepPlan::parse(text).unwrap();
        assert_eq!(plan.name, "parsed");
        assert_eq!(plan.seed, 99);
        assert_eq!(plan.rounds, 2);
        assert_eq!(
            plan.workloads,
            vec![WorkloadSpec::Neighbor, WorkloadSpec::BitReversal]
        );
        assert_eq!(plan.families.len(), 3);
        assert_eq!(
            plan.families[1],
            Family::RingInto {
                max_size: 12,
                max_dim: 2
            }
        );
    }

    #[test]
    fn plan_parse_errors_name_the_line() {
        let err = SweepPlan::parse("seed = x\nfamily paper").unwrap_err();
        assert!(matches!(err, ExplabError::PlanParse { line: 1, .. }));
        let err = SweepPlan::parse("family nope").unwrap_err();
        assert!(matches!(err, ExplabError::PlanParse { line: 1, .. }));
        let err = SweepPlan::parse("family paper max_size=4").unwrap_err();
        assert!(matches!(err, ExplabError::PlanParse { line: 1, .. }));
        let err = SweepPlan::parse("workloads = warp\nfamily paper").unwrap_err();
        assert!(matches!(err, ExplabError::PlanParse { line: 1, .. }));
        let err = SweepPlan::parse("# only comments").unwrap_err();
        assert!(matches!(err, ExplabError::InvalidPlan { .. }));
    }

    #[test]
    fn optimizer_plan_keys_parse_and_validate() {
        let plan = SweepPlan::parse(
            "family paper\noptimize = makespan\noptim_steps = 64\noptim_shards = 3\n\
             optim_portfolio = true",
        )
        .unwrap();
        assert_eq!(
            plan.optimize,
            Some(OptimSpec {
                objective: ObjectiveKind::Makespan,
                steps: 64,
                shards: 3,
                portfolio: true,
            })
        );
        // Defaults apply without the explicit keys.
        let defaulted = SweepPlan::parse("family paper\noptimize = congestion").unwrap();
        assert_eq!(
            defaulted.optimize,
            Some(OptimSpec {
                objective: ObjectiveKind::Congestion,
                steps: DEFAULT_OPTIM_STEPS,
                shards: DEFAULT_OPTIM_SHARDS,
                portfolio: DEFAULT_OPTIM_PORTFOLIO,
            })
        );
        // Shards without an objective, zero shards, and junk are rejected.
        assert!(SweepPlan::parse("family paper\noptim_shards = 2").is_err());
        assert!(SweepPlan::parse("family paper\noptimize = congestion\noptim_shards = 0").is_err());
        assert!(SweepPlan::parse("family paper\noptimize = congestion\noptim_shards = x").is_err());
        // Portfolio without an objective, and junk values, are rejected.
        assert!(SweepPlan::parse("family paper\noptim_portfolio = true").is_err());
        assert!(
            SweepPlan::parse("family paper\noptimize = congestion\noptim_portfolio = maybe")
                .is_err()
        );
    }

    #[test]
    fn chaos_plan_keys_parse_and_validate() {
        let plan =
            SweepPlan::parse("family paper\nchaos = 1, 5, 10\nchaos_tenants = 2, 4").unwrap();
        assert_eq!(
            plan.chaos,
            Some(ChaosSpec {
                loss_percents: vec![1, 5, 10],
                tenants: vec![2, 4],
            })
        );
        // Loss rates alone are fine; `none` disables the stage.
        let loss_only = SweepPlan::parse("family paper\nchaos = 5").unwrap();
        assert_eq!(
            loss_only.chaos,
            Some(ChaosSpec {
                loss_percents: vec![5],
                tenants: vec![],
            })
        );
        assert_eq!(
            SweepPlan::parse("family paper\nchaos = none")
                .unwrap()
                .chaos,
            None
        );
        // Tenants without chaos, out-of-range rates, and junk are rejected.
        assert!(SweepPlan::parse("family paper\nchaos_tenants = 2").is_err());
        assert!(SweepPlan::parse("family paper\nchaos = 0").is_err());
        assert!(SweepPlan::parse("family paper\nchaos = 101").is_err());
        assert!(SweepPlan::parse("family paper\nchaos = x").is_err());
        assert!(SweepPlan::parse("family paper\nchaos = 5\nchaos_tenants = 1").is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for spec in ALL_WORKLOADS {
            assert_eq!(WorkloadSpec::from_name(spec.name()), Some(spec));
        }
        assert_eq!(WorkloadSpec::from_name("warp"), None);
    }
}
