//! `degraded`: netsim neighbor-exchange traffic for two placed pairs at 0%,
//! 5% and 10% seeded link loss, routed with `ChaosRouting::Detour`; the 0%
//! level also runs through the pristine `simulate`.
//!
//! * `short` = `torus:128x128 → mesh:16x16x8x8` (dilation 1, 65,536
//!   messages): per-message fixed cost of the routers dominates.
//! * `long` = `torus:8x8x8x8 → mesh:64x64` (dilation 16, 32,768 messages):
//!   detours, BFS escapes and cycle arbitration dominate.
//!
//! A pass simulates both pairs at every level. Throughput is the geometric
//! mean over the two pairs of routed (delivered + dropped) messages per
//! second over the three loss levels; latency is the wall time of a pass;
//! both come from the fastest pass (see `report::report_passes`).

use std::time::Instant;

use embeddings::auto::embed;
use embeddings::congestion::congestion_sequential;
use embeddings::plan::parse_grid_spec;
use embeddings::verify::verify_sequential;
use embeddings::Embedding;
use netsim::chaos::{simulate_chaos, ChaosRouting, DetourRouter, FaultPlan};
use netsim::{simulate, Network, Placement, SimStats, Workload};
use topology::parallel::splitmix64;

use crate::cores;
use crate::report::{report_passes, Config, Outcome, SetupTimer};
use crate::stats::geomean;
use crate::trace::{SpanId, Tracer};

/// Link-loss levels, in percent; 0 is the pristine-equivalent row.
const LEVELS: [u32; 3] = [0, 5, 10];

/// The two placed pairs: name, guest spec, host spec.
fn pair_specs(tiny: bool) -> [(&'static str, &'static str, &'static str); 2] {
    if tiny {
        [
            ("short", "torus:16x16", "mesh:4x4x4x4"),
            ("long", "torus:4x4x4", "mesh:8x8"),
        ]
    } else {
        [
            ("short", "torus:128x128", "mesh:16x16x8x8"),
            ("long", "torus:8x8x8x8", "mesh:64x64"),
        ]
    }
}

/// One pair, ready to simulate.
struct Prepared {
    /// `short` or `long`.
    name: &'static str,
    /// The constructive embedding of the pair.
    embedding: Embedding,
    network: Network,
    workload: Workload,
    placement: Placement,
    /// One fault plan per entry of [`LEVELS`].
    plans: Vec<FaultPlan>,
}

/// The fault plan seed of a pair and level: a function of the workload
/// seed only.
fn fault_seed(seed: u64, pair: usize, level: u32) -> u64 {
    splitmix64(seed ^ 0xdeca_f5a1_0000 ^ ((pair as u64) << 8) ^ u64::from(level))
}

/// Builds both pairs: embedding, network, neighbor-exchange workload,
/// placement and the seeded fault plans (with their masks built once, so
/// mask construction is part of set-up).
fn prepare(cfg: &Config) -> Result<Vec<Prepared>, String> {
    pair_specs(cfg.tiny)
        .iter()
        .enumerate()
        .map(|(index, &(name, guest, host))| {
            let guest = parse_grid_spec(guest).map_err(|e| e.to_string())?;
            let host = parse_grid_spec(host).map_err(|e| e.to_string())?;
            let embedding = embed(&guest, &host).map_err(|e| format!("{name}: {e}"))?;
            let network = Network::new(host.clone());
            let workload = Workload::from_task_graph(&guest);
            let placement = Placement::from_embedding(&embedding);
            let plans: Vec<FaultPlan> = LEVELS
                .iter()
                .map(|&level| {
                    if level == 0 {
                        FaultPlan::none()
                    } else {
                        FaultPlan::random_link_percent(
                            &host,
                            level,
                            fault_seed(cfg.seed, index, level),
                        )
                    }
                })
                .collect();
            for plan in &plans {
                std::hint::black_box(plan.mask_at(&host, 0));
            }
            Ok(Prepared {
                name,
                embedding,
                network,
                workload,
                placement,
                plans,
            })
        })
        .collect()
}

/// One pass's measurements for one pair.
struct PairPass {
    /// Routed messages over the loss levels.
    routed: u64,
    /// Seconds spent in `simulate_chaos` over the loss levels.
    chaos_s: f64,
    /// Per-level results, in [`LEVELS`] order.
    levels: Vec<SimStats>,
    /// Per-level `simulate_chaos` seconds.
    level_s: Vec<f64>,
}

/// Runs one pass over every pair, checking conservation and the 0% row
/// against the pristine simulator. Spans go under `parent` when traced.
fn pass(
    prepared: &[Prepared],
    cfg: &Config,
    out: &mut Outcome,
    trace: Option<(&Tracer, SpanId)>,
) -> Vec<PairPass> {
    let in_span = |name: &'static str, id: u64, f: &mut dyn FnMut() -> SimStats| match trace {
        Some((tracer, parent)) => tracer.span(name, Some(parent), id, |_| f()),
        None => f(),
    };
    prepared
        .iter()
        .enumerate()
        .map(|(index, pair)| {
            let pristine = in_span("netsim.simulate", index as u64 * 100, &mut || {
                simulate(&pair.network, &pair.workload, &pair.placement, 1)
            });
            out.attempted += 1;
            let mut result = PairPass {
                routed: 0,
                chaos_s: 0.0,
                levels: Vec::new(),
                level_s: Vec::new(),
            };
            for (&level, plan) in LEVELS.iter().zip(&pair.plans) {
                let start = Instant::now();
                let stats = in_span(
                    "netsim.simulate_chaos",
                    index as u64 * 100 + u64::from(level),
                    &mut || {
                        simulate_chaos(
                            &pair.network,
                            &pair.workload,
                            &pair.placement,
                            1,
                            plan,
                            ChaosRouting::Detour,
                        )
                    },
                );
                let seconds = start.elapsed().as_secs_f64();
                out.attempted += 1;
                let conserved = stats.delivered + stats.dropped == stats.messages
                    && stats.messages == pair.workload.pairs().len() as u64;
                if !conserved {
                    out.failed += 1;
                }
                out.check(conserved, || {
                    format!(
                        "{} at {level}%: delivered {} + dropped {} != messages {}",
                        pair.name, stats.delivered, stats.dropped, stats.messages
                    )
                });
                if level == 0 {
                    let mut reference = pristine.clone();
                    if cfg.corrupt_reference {
                        reference.cycles += 1;
                    }
                    let same = stats.messages == reference.messages
                        && stats.total_hops == reference.total_hops
                        && stats.max_hops == reference.max_hops
                        && stats.cycles == reference.cycles
                        && stats.dropped == 0
                        && stats.detour_hops == 0;
                    out.check(same, || {
                        format!(
                            "{}: 0% detour row {stats:?} differs from simulate {reference:?}",
                            pair.name
                        )
                    });
                }
                result.routed += stats.delivered + stats.dropped;
                result.chaos_s += seconds;
                result.levels.push(stats);
                result.level_s.push(seconds);
            }
            result
        })
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up batches and passes rotate over the cores (see `cores`).
    let _unpin = cores::Unpin;
    let mut turn = 0;
    let mut setup = SetupTimer::new(cfg);
    let prepared = setup.batch(3, || {
        cores::rotate(&mut turn);
        prepare(cfg)
    })?;
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut pass_s = Vec::new();
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < cfg.seconds {
        if !pass_s.is_empty() {
            setup.batch(1, || {
                cores::rotate(&mut turn);
                prepare(cfg)
            })?;
        }
        cores::pin_to(pass_s.len());
        let start = Instant::now();
        let results = pass(&prepared, cfg, &mut out, None);
        pass_s.push(start.elapsed().as_secs_f64());
        for (index, result) in results.iter().enumerate() {
            rates[index].push(result.routed as f64 / result.chaos_s);
            if pass_s.len() == 1 {
                count_levels(&mut out, prepared[index].name, &result.levels);
            }
        }
    }
    // Per pass, the geometric mean of the two pairs' rates.
    let pass_rates: Vec<f64> = (0..pass_s.len())
        .map(|pass| geomean(&rates.iter().map(|r| r[pass]).collect::<Vec<_>>()))
        .collect();
    report_passes(&mut out, setup.times(), &pass_rates, &pass_s);
    for (index, pair) in prepared.iter().enumerate() {
        out.figure(
            &format!("sim_{}_msgs_per_s", pair.name),
            "msgs/s",
            &rates[index],
        );
    }
    Ok(out)
}

/// Exact per-level counters of one pair.
fn count_levels(out: &mut Outcome, pair: &str, levels: &[SimStats]) {
    for (&level, stats) in LEVELS.iter().zip(levels) {
        out.count(&format!("netsim.cycles.{pair}.l{level}"), stats.cycles);
        out.count(
            &format!("netsim.detour_hops.{pair}.l{level}"),
            stats.detour_hops,
        );
        out.count(&format!("netsim.dropped.{pair}.l{level}"), stats.dropped);
        out.count(
            &format!("netsim.delivered.{pair}.l{level}"),
            stats.delivered,
        );
    }
}

/// The traced run: per-layer metrics of netsim and the embeddings sweeps.
pub fn profile(cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prepared = prepare(cfg)?;

    // The same pass untraced, then traced: the difference is the tracing
    // overhead.
    let start = Instant::now();
    pass(&prepared, cfg, &mut out, None);
    let untraced_s = start.elapsed().as_secs_f64();
    let (root, results) = tracer.span("degraded.pass", None, 0, |root| {
        (root, pass(&prepared, cfg, &mut out, Some((tracer, root))))
    });
    let traced_s = tracer.seconds(root);
    let self_s = tracer.self_seconds_under(root);
    out.metric(
        "degraded.trace.overhead_ratio",
        (traced_s - untraced_s) / untraced_s,
        "ratio",
    );
    out.metric(
        "degraded.trace.residue_ratio",
        self_s.get("degraded.pass").copied().unwrap_or(0.0) / traced_s,
        "ratio",
    );

    for (pair, result) in prepared.iter().zip(&results) {
        let name = pair.name;
        let grid = pair.network.grid();
        let edges = pair.embedding.guest().num_edges() as f64;
        let start = Instant::now();
        std::hint::black_box(verify_sequential(&pair.embedding));
        out.metric(
            &format!("embeddings.verify_melem_per_s.{name}"),
            edges / start.elapsed().as_secs_f64() / 1e6,
            "Melem/s",
        );
        let start = Instant::now();
        std::hint::black_box(congestion_sequential(&pair.embedding).map_err(|e| e.to_string())?);
        out.metric(
            &format!("embeddings.congestion_melem_per_s.{name}"),
            edges / start.elapsed().as_secs_f64() / 1e6,
            "Melem/s",
        );
        let start = Instant::now();
        let mask = std::hint::black_box(pair.plans[LEVELS.len() - 1].mask_at(grid, 0));
        out.metric(
            &format!("netsim.mask_build_ms.{name}"),
            start.elapsed().as_secs_f64() * 1e3,
            "ms",
        );
        drop(mask);
        for (index, (&level, plan)) in LEVELS.iter().zip(&pair.plans).enumerate() {
            let mask = plan.mask_at(grid, 0);
            let router = DetourRouter::new(&pair.network, &mask);
            let start = Instant::now();
            for &(src, dst) in pair.workload.pairs() {
                std::hint::black_box(
                    router.route(pair.placement.node_of(src), pair.placement.node_of(dst)),
                );
            }
            let route_s = start.elapsed().as_secs_f64();
            let messages = pair.workload.pairs().len() as f64;
            out.metric(
                &format!("netsim.route_us_per_msg.{name}.l{level}"),
                route_s / messages * 1e6,
                "us",
            );
            out.metric(
                &format!("netsim.arbitrate_ms.{name}.l{level}"),
                (result.level_s[index] - route_s) * 1e3,
                "ms",
            );
            let stats = &result.levels[index];
            out.metric(
                &format!("netsim.cycles.{name}.l{level}"),
                stats.cycles as f64,
                "count",
            );
            out.metric(
                &format!("netsim.detour_hops.{name}.l{level}"),
                stats.detour_hops as f64,
                "count",
            );
            out.metric(
                &format!("netsim.dropped.{name}.l{level}"),
                stats.dropped as f64,
                "count",
            );
        }
    }
    Ok(out)
}
