//! The workload table: every group the checked-in `BENCH_*.json` baselines
//! record, each defined once.
//!
//! A row names its baseline file by the file's `benchmark` field and the
//! `results` group the file records for it, says what it counts and how many
//! elements one call of its timed body processes, and may name the
//! `summary` key whose number gates it. [`Workload::setup`] builds the
//! inputs outside any timing and returns the timed body; a walk's objective
//! is built inside the body, because every fresh walk pays for it. Bodies
//! whose single call takes microseconds loop it, so one timing spans at
//! least a millisecond.
//!
//! `benchgate` is the only runner: `benchgate BENCH_optim.json` times every
//! `optim_throughput` row and checks the gated ones.

use std::error::Error;
use std::hint::black_box;
use std::sync::Arc;

use embd::{Client, PlanRegistry};
use embeddings::auto::embed;
use embeddings::congestion::{congestion_parallel, congestion_sequential};
use embeddings::optim::parallel::{optimize_sharded, ShardedConfig};
use embeddings::optim::{
    CongestionObjective, MoveMix, Objective, Optimizer, OptimizerConfig, WirelengthObjective,
};
use embeddings::verify::{verify, verify_sequential};
use embeddings::Embedding;
use explab::executor::{expand, run};
use explab::plan::SweepPlan;
use mixedradix::planes::{DigitPlanes, LANES};
use mixedradix::{Digits, RadixBase};
use netsim::chaos::{simulate_chaos, ChaosRouting, FaultPlan};
use netsim::{simulate, MakespanObjective, Network, Placement};
use topology::Grid;

use crate::gate::{summary_baseline, BaselineMetric, GateError, Json};
use crate::{mesh, torus};

/// A row's timed body: one call processes [`Workload::elements`] elements.
pub type Body = Box<dyn FnMut()>;

/// What a row's set-up returns: the timed body, or why its inputs could not
/// be built.
pub type Setup = Result<Body, Box<dyn Error>>;

/// One timed workload.
#[derive(Debug)]
pub struct Workload {
    /// The `benchmark` field of the baseline file that records this row.
    pub benchmark: &'static str,
    /// The row's name within its baseline: the `results` group the file
    /// records it under, with the variant appended where one group holds
    /// several variants' fields (`verify/batched`).
    pub group: &'static str,
    /// The unit of the row's rate; `Melem/s` rates count millions.
    pub unit: &'static str,
    /// Elements one call of the body processes.
    pub elements: u64,
    /// The baseline's `summary` key whose number gates this row, if any.
    pub gate: Option<&'static str>,
    /// Builds the row's inputs, outside any timing, and returns its body.
    pub setup: fn() -> Setup,
}

impl Workload {
    /// The row's rate, in its unit, when one call of its body took `seconds`.
    pub fn rate(&self, seconds: f64) -> f64 {
        let per_second = self.elements as f64 / seconds;
        if self.unit == MELEM {
            per_second / 1e6
        } else {
            per_second
        }
    }
}

/// The unit of the pipeline rows: millions of elements per second.
const MELEM: &str = "Melem/s";

/// How many times a body loops a call that alone takes microseconds.
const LOOPED_CALLS: u64 = 200;

/// Guest edges of the pipeline's (1024,1024)-torus.
const MILLION_NODE_EDGES: u64 = 1 << 21;
/// Nodes of the pipeline's (32,32,32,32) host shape.
const MILLION_NODES: u64 = 1 << 20;
/// Trials of the built-in `bench` sweep plan.
const BENCH_TRIALS: u64 = 123;
/// Proposals per annealing walk over the 16×16 pair.
const STEPS: u64 = 5_000;
/// Proposals per makespan walk, and evaluations per makespan body.
const MAKESPAN_STEPS: u64 = 1_000;
/// Loopback clients of the `embd_load` row, and `MAP` queries each sends.
const MAP_CLIENTS: u64 = 2;
const MAP_QUERIES: u64 = 500;

/// The sharded portfolio's k-cycle-heavy mix, fixed here so the gated
/// workload does not move with the palette.
const KCYCLE_HEAVY: MoveMix = MoveMix {
    reverse_per_mille: 150,
    kcycle_per_mille: 300,
    block_per_mille: 50,
};

/// The sharded portfolio's block-heavy mix.
const BLOCK_HEAVY: MoveMix = MoveMix {
    reverse_per_mille: 150,
    kcycle_per_mille: 50,
    block_per_mille: 300,
};

/// Every timed workload, grouped by baseline file in table order.
pub const WORKLOADS: &[Workload] = &[
    // BENCH_pipeline.json: the batched sweeps on 2²⁰ nodes, sequential and
    // on 8 workers, and the digit-plane codec underneath them.
    Workload {
        benchmark: "pipeline_throughput",
        group: "verify/batched",
        unit: MELEM,
        elements: MILLION_NODE_EDGES,
        gate: Some("verify_melem_per_s"),
        setup: || million_node(|e| Ok(verify_sequential(e).dilation)),
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "verify/batched_parallel_8",
        unit: MELEM,
        elements: MILLION_NODE_EDGES,
        gate: None,
        setup: || million_node(|e| Ok(verify(e, 8)?.dilation)),
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "congestion/batched",
        unit: MELEM,
        elements: MILLION_NODE_EDGES,
        gate: Some("congestion_melem_per_s"),
        setup: || million_node(|e| Ok(congestion_sequential(e)?.max_congestion)),
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "congestion/batched_parallel_8",
        unit: MELEM,
        elements: MILLION_NODE_EDGES,
        gate: None,
        setup: || million_node(|e| Ok(congestion_parallel(e, 8)?.max_congestion)),
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "soa_codec/scalar",
        unit: MELEM,
        elements: MILLION_NODES,
        gate: None,
        setup: decode_scalar,
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "soa_codec/decode_range",
        unit: MELEM,
        elements: MILLION_NODES,
        gate: Some("soa_codec_melem_per_s"),
        setup: decode_range,
    },
    Workload {
        benchmark: "pipeline_throughput",
        group: "soa_codec/gather",
        unit: MELEM,
        elements: MILLION_NODES,
        gate: None,
        setup: decode_gather,
    },
    // BENCH_explab.json: plan expansion alone, and the full sweep of the
    // `bench` plan on 1 and 4 workers.
    Workload {
        benchmark: "explab_throughput",
        group: "plan/expand",
        unit: "trials/s",
        elements: BENCH_TRIALS * LOOPED_CALLS,
        gate: None,
        setup: || {
            let plan = SweepPlan::builtin("bench")?;
            Ok(Box::new(move || {
                for _ in 0..LOOPED_CALLS {
                    black_box(expand(&plan).len());
                }
            }))
        },
    },
    Workload {
        benchmark: "explab_throughput",
        group: "sweep/run_1",
        unit: "trials/s",
        elements: BENCH_TRIALS,
        gate: Some("trials_per_second_single_worker"),
        setup: || sweep(1),
    },
    Workload {
        benchmark: "explab_throughput",
        group: "sweep/run_4",
        unit: "trials/s",
        elements: BENCH_TRIALS,
        gate: None,
        setup: || sweep(4),
    },
    // BENCH_optim.json: annealing walks per objective and move mix, and
    // the full rebuild each incremental objective replaces. The pairwise
    // mix is the optimizer's default, so `optim/congestion` is also the
    // pairwise move-mix walk.
    Workload {
        benchmark: "optim_throughput",
        group: "optim/congestion",
        unit: "moves/s",
        elements: STEPS,
        gate: Some("moves_per_second"),
        setup: || walk16(MoveMix::pairwise(), CongestionObjective::new),
    },
    Workload {
        benchmark: "optim_throughput",
        group: "optim/full_rebuild",
        unit: "sweeps/s",
        elements: LOOPED_CALLS,
        gate: None,
        setup: || full_rebuilds(CongestionObjective::new),
    },
    Workload {
        benchmark: "optim_throughput",
        group: "optim/wirelength",
        unit: "moves/s",
        elements: STEPS,
        gate: Some("wirelength_moves_per_second"),
        setup: || walk16(MoveMix::pairwise(), WirelengthObjective::new),
    },
    Workload {
        benchmark: "optim_throughput",
        group: "optim/wirelength_weighted",
        unit: "moves/s",
        elements: STEPS,
        gate: None,
        setup: || {
            walk16(MoveMix::pairwise(), |guest, host| {
                WirelengthObjective::with_weights(guest, host, |t, h| 1 + (t ^ h) % 4)
            })
        },
    },
    Workload {
        benchmark: "optim_throughput",
        group: "optim/wirelength_full_rebuild",
        unit: "sweeps/s",
        elements: LOOPED_CALLS,
        gate: None,
        setup: || full_rebuilds(WirelengthObjective::new),
    },
    // A compound proposal (k-cycle rotation, block swap) is one move here,
    // however many transpositions it costs.
    Workload {
        benchmark: "optim_throughput",
        group: "move_mix/kcycle",
        unit: "moves/s",
        elements: STEPS,
        gate: Some("kcycle_moves_per_second"),
        setup: || walk16(KCYCLE_HEAVY, CongestionObjective::new),
    },
    Workload {
        benchmark: "optim_throughput",
        group: "move_mix/block",
        unit: "moves/s",
        elements: STEPS,
        gate: None,
        setup: || walk16(BLOCK_HEAVY, CongestionObjective::new),
    },
    Workload {
        benchmark: "optim_throughput",
        group: "move_mix/compound",
        unit: "moves/s",
        elements: STEPS,
        gate: None,
        setup: || walk16(MoveMix::compound(), CongestionObjective::new),
    },
    // BENCH_shards.json: N one-thread shards propose N × STEPS moves toward
    // one best table, so the rate scales with physical cores; and the
    // delta-aware makespan objective against full re-simulation.
    Workload {
        benchmark: "shard_scaling",
        group: "shard_scaling/shards/1",
        unit: "moves/s",
        elements: STEPS,
        gate: None,
        setup: || sharded(1),
    },
    Workload {
        benchmark: "shard_scaling",
        group: "shard_scaling/shards/2",
        unit: "moves/s",
        elements: 2 * STEPS,
        gate: None,
        setup: || sharded(2),
    },
    Workload {
        benchmark: "shard_scaling",
        group: "shard_scaling/shards/4",
        unit: "moves/s",
        elements: 4 * STEPS,
        gate: Some("sharded_moves_per_second"),
        setup: || sharded(4),
    },
    Workload {
        benchmark: "shard_scaling",
        group: "makespan/delta",
        unit: "moves/s",
        elements: MAKESPAN_STEPS,
        gate: None,
        setup: || {
            let (host, embedding, traffic) = makespan_pair()?;
            let config = anneal_config(MAKESPAN_STEPS, MoveMix::pairwise());
            Ok(walk(embedding, config, move || {
                MakespanObjective::new(Network::new(host.clone()), traffic.clone(), 1)
                    .expect("schedule fits")
            }))
        },
    },
    Workload {
        benchmark: "shard_scaling",
        group: "makespan/full_resim",
        unit: "evaluations/s",
        elements: MAKESPAN_STEPS,
        gate: None,
        setup: makespan_full_resim,
    },
    Workload {
        benchmark: "shard_scaling",
        group: "makespan/delta_swap_pair",
        unit: "swaps/s",
        elements: MAKESPAN_STEPS,
        gate: None,
        setup: makespan_swap_pairs,
    },
    // BENCH_netsim.json: one round of uniform-random traffic on a pristine
    // torus, then on the same torus with 5% of its links failed, through
    // the detour and the BFS-table routers. Every routed message counts,
    // delivered or dropped.
    Workload {
        benchmark: "chaos_routing",
        group: "pristine_dor/torus16x16",
        unit: "msgs/s",
        elements: 4096,
        gate: None,
        setup: || pristine(16, 4096),
    },
    Workload {
        benchmark: "chaos_routing",
        group: "detour_5pct/torus16x16",
        unit: "msgs/s",
        elements: 4096,
        gate: Some("routed_msgs_per_second"),
        setup: || degraded(16, 4096, ChaosRouting::Detour),
    },
    Workload {
        benchmark: "chaos_routing",
        group: "bfs_table_5pct/torus16x16",
        unit: "msgs/s",
        elements: 4096,
        gate: None,
        setup: || degraded(16, 4096, ChaosRouting::BfsTable),
    },
    Workload {
        benchmark: "chaos_routing",
        group: "pristine_dor/torus32x32",
        unit: "msgs/s",
        elements: 8192,
        gate: None,
        setup: || pristine(32, 8192),
    },
    Workload {
        benchmark: "chaos_routing",
        group: "detour_5pct/torus32x32",
        unit: "msgs/s",
        elements: 8192,
        gate: None,
        setup: || degraded(32, 8192, ChaosRouting::Detour),
    },
    Workload {
        benchmark: "chaos_routing",
        group: "bfs_table_5pct/torus32x32",
        unit: "msgs/s",
        elements: 8192,
        gate: None,
        setup: || degraded(32, 8192, ChaosRouting::BfsTable),
    },
    // BENCH_embd.json records only a summary. Its number comes from
    // `embd-bench`'s 4 clients × 2,500 checked queries over six pairs; this
    // row is a shorter closed loop, 2 clients × 500 `MAP` queries on one
    // pair, so it catches collapses rather than matching that run.
    Workload {
        benchmark: "embd_load",
        group: "map",
        unit: "queries/s",
        elements: MAP_CLIENTS * MAP_QUERIES,
        gate: Some("queries_per_second"),
        setup: embd_map,
    },
];

/// The rows that measure one parsed baseline file, in table order, each
/// gated row paired with the number the file records under its key.
///
/// # Errors
///
/// [`GateError::Schema`] when the file has no `benchmark` string or lacks a
/// gated row's `summary` key, [`GateError::UnknownBenchmark`] when no row
/// measures its benchmark, and [`GateError::NotPositive`] when a gated
/// baseline is not a positive number.
pub fn rows_of(file: &Json) -> Result<Vec<(&'static Workload, Option<BaselineMetric>)>, GateError> {
    let benchmark = file
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| GateError::Schema {
            field: "benchmark".into(),
        })?;
    let mut rows = Vec::new();
    for row in WORKLOADS.iter().filter(|row| row.benchmark == benchmark) {
        let baseline = row.gate.map(|key| summary_baseline(file, benchmark, key));
        rows.push((row, baseline.transpose()?));
    }
    if rows.is_empty() {
        return Err(GateError::UnknownBenchmark {
            name: benchmark.into(),
        });
    }
    Ok(rows)
}

/// One sweep over the (1024,1024)-torus embedded in the
/// (32,32,32,32)-torus: 2²⁰ nodes, 2²¹ guest edges.
fn million_node<T: 'static>(sweep: fn(&Embedding) -> embeddings::Result<T>) -> Setup {
    let embedding = embed(&torus(&[1024, 1024]), &torus(&[32, 32, 32, 32]))?;
    Ok(Box::new(move || {
        black_box(sweep(&embedding).expect("a valid embedding"));
    }))
}

/// The pipeline's host shape, (32,32,32,32).
fn host_shape() -> Result<RadixBase, Box<dyn Error>> {
    Ok(RadixBase::new(vec![32, 32, 32, 32])?)
}

/// Decodes every host node one call at a time with the scalar codec.
fn decode_scalar() -> Setup {
    let shape = host_shape()?;
    let n = shape.size();
    let mut digits = Digits::empty();
    Ok(Box::new(move || {
        let mut checksum = 0u32;
        for x in 0..n {
            shape.to_digits_into(x, &mut digits).expect("in range");
            checksum ^= digits.get(0);
        }
        black_box(checksum);
    }))
}

/// Decodes every host node in batches of `LANES` consecutive indices.
fn decode_range() -> Setup {
    let shape = host_shape()?;
    let n = shape.size();
    let mut planes = DigitPlanes::for_base(&shape);
    Ok(Box::new(move || {
        let mut checksum = 0u32;
        let mut start = 0u64;
        while start < n {
            let count = (n - start).min(LANES as u64) as usize;
            planes.decode_range(&shape, start, count).expect("in range");
            checksum ^= planes.plane(0)[count - 1];
            start += count as u64;
        }
        black_box(checksum);
    }))
}

/// Decodes the same indices as [`decode_range`] through the
/// arbitrary-index batch entry point.
fn decode_gather() -> Setup {
    let shape = host_shape()?;
    let n = shape.size();
    let mut planes = DigitPlanes::for_base(&shape);
    let mut indices = [0u64; LANES];
    Ok(Box::new(move || {
        let mut checksum = 0u32;
        let mut start = 0u64;
        while start < n {
            let count = (n - start).min(LANES as u64) as usize;
            for (lane, slot) in indices.iter_mut().enumerate().take(count) {
                *slot = start + lane as u64;
            }
            planes.decode(&shape, &indices[..count]).expect("in range");
            checksum ^= planes.plane(0)[count - 1];
            start += count as u64;
        }
        black_box(checksum);
    }))
}

/// The built-in `bench` plan swept on `workers` workers: planner, batched
/// verify and congestion, chain report and one netsim round per trial.
fn sweep(workers: usize) -> Setup {
    let plan = SweepPlan::builtin("bench")?;
    Ok(Box::new(move || {
        black_box(run(&plan, workers).supported());
    }))
}

/// The annealing pair: a (16,16)-torus in a (16,16)-mesh, 256 nodes and 512
/// guest edges, large enough that a full congestion re-sweep per move would
/// dominate.
fn pair16() -> Result<(Grid, Grid, Embedding), Box<dyn Error>> {
    let (guest, host) = (torus(&[16, 16]), mesh(&[16, 16]));
    let embedding = embed(&guest, &host)?;
    Ok((guest, host, embedding))
}

/// The configuration of every walk: seed 1987, default temperatures.
fn anneal_config(steps: u64, mix: MoveMix) -> OptimizerConfig {
    OptimizerConfig {
        seed: 1987,
        steps,
        mix,
        ..OptimizerConfig::default()
    }
}

/// One annealing walk per call, building its objective first.
fn walk<O: Objective + 'static>(
    embedding: Embedding,
    config: OptimizerConfig,
    mut objective: impl FnMut() -> O + 'static,
) -> Body {
    Box::new(move || {
        let mut objective = objective();
        black_box(
            Optimizer::new(config)
                .optimize(&embedding, &mut objective)
                .expect("a valid walk")
                .report
                .best
                .primary,
        );
    })
}

/// A walk over the 16×16 pair under `mix` and the objective `new` builds.
fn walk16<O: Objective + 'static>(
    mix: MoveMix,
    new: fn(&Grid, &Grid) -> embeddings::Result<O>,
) -> Setup {
    let (guest, host, embedding) = pair16()?;
    Ok(walk(embedding, anneal_config(STEPS, mix), move || {
        new(&guest, &host).expect("equal sizes")
    }))
}

/// Full rebuilds of one objective over the 16×16 pair's constructive
/// table: what every move would cost without the incremental path.
fn full_rebuilds<O: Objective + 'static>(new: fn(&Grid, &Grid) -> embeddings::Result<O>) -> Setup {
    let (guest, host, embedding) = pair16()?;
    let table = embedding.to_table()?;
    let mut objective = new(&guest, &host)?;
    Ok(Box::new(move || {
        for _ in 0..LOOPED_CALLS {
            black_box(objective.rebuild(&table).primary);
        }
    }))
}

/// `shards` independently seeded congestion walks over the 16×16 pair, one
/// worker thread each, reduced to the lexicographically best table.
fn sharded(shards: u32) -> Setup {
    let (guest, host, embedding) = pair16()?;
    let config = ShardedConfig {
        base: anneal_config(STEPS, MoveMix::pairwise()),
        shards,
        workers: shards as usize,
        ..ShardedConfig::default()
    };
    Ok(Box::new(move || {
        black_box(
            optimize_sharded(
                &embedding,
                || CongestionObjective::new(&guest, &host),
                &config,
            )
            .expect("a valid walk")
            .outcome
            .report
            .best
            .primary,
        );
    }))
}

/// The makespan pair: an (8,8)-torus in an (8,8)-mesh under its own edge
/// traffic. It is smaller than the 16×16 pair because full re-simulation
/// per move is exactly the cost the delta path exists to avoid.
fn makespan_pair() -> Result<(Grid, Embedding, netsim::Workload), Box<dyn Error>> {
    let (guest, host) = (torus(&[8, 8]), mesh(&[8, 8]));
    let embedding = embed(&guest, &host)?;
    Ok((host, embedding, netsim::Workload::from_task_graph(&guest)))
}

/// From-scratch evaluations of the constructive table: placement
/// validation, route expansion and arbitration, what the pre-delta
/// objective paid per proposed move.
fn makespan_full_resim() -> Setup {
    let (host, embedding, traffic) = makespan_pair()?;
    let table = embedding.to_table()?;
    let network = Network::new(host);
    Ok(Box::new(move || {
        let mut cycles = 0u64;
        for _ in 0..MAKESPAN_STEPS {
            let placement = Placement::try_from_table(table.clone()).expect("a bijective table");
            cycles += simulate(&network, &traffic, &placement, 1).cycles;
        }
        black_box(cycles);
    }))
}

/// Delta evaluations alone: the objective is rebuilt once outside, then
/// each call prices swap-and-undo pairs of the same two nodes.
fn makespan_swap_pairs() -> Setup {
    let (host, embedding, traffic) = makespan_pair()?;
    let mut table = embedding.to_table()?;
    let mut objective = MakespanObjective::new(Network::new(host), traffic, 1)?;
    objective.rebuild(&table);
    Ok(Box::new(move || {
        let mut acc = 0u64;
        for _ in 0..MAKESPAN_STEPS / 2 {
            table.swap(3, 40);
            acc += objective.apply_swap(&table, 3, 40).primary;
            table.swap(3, 40);
            acc += objective.apply_swap(&table, 3, 40).primary;
        }
        black_box(acc);
    }))
}

/// A `radix`×`radix` torus, `messages` uniform-random messages (seed 7)
/// on the identity placement, and a plan failing 5% of its links.
fn torus_traffic(radix: u32, messages: usize) -> (Network, netsim::Workload, Placement, FaultPlan) {
    let network = Network::new(torus(&[radix, radix]));
    let n = network.size();
    let traffic = netsim::Workload::uniform_random(n, messages, 7);
    let plan = FaultPlan::random_link_percent(network.grid(), 5, 1987);
    (network, traffic, Placement::identity(n), plan)
}

/// One round on the pristine torus.
fn pristine(radix: u32, messages: usize) -> Setup {
    let (network, traffic, placement, _) = torus_traffic(radix, messages);
    Ok(Box::new(move || {
        black_box(simulate(&network, &traffic, &placement, 1).total_hops);
    }))
}

/// One round on the 5%-degraded torus through `routing`.
fn degraded(radix: u32, messages: usize, routing: ChaosRouting) -> Setup {
    let (network, traffic, placement, plan) = torus_traffic(radix, messages);
    Ok(Box::new(move || {
        black_box(simulate_chaos(&network, &traffic, &placement, 1, &plan, routing).delivered);
    }))
}

/// A loopback `embd` server and `MAP_CLIENTS` concurrent clients, each
/// waiting for every answer before it sends the next query. Dropping the
/// body shuts the server down.
fn embd_map() -> Setup {
    let (guest, host) = (torus(&[4, 2, 3]), mesh(&[4, 6]));
    let server = embd::spawn("127.0.0.1:0", Arc::new(PlanRegistry::new()))?;
    Ok(Box::new(move || {
        std::thread::scope(|scope| {
            for c in 0..MAP_CLIENTS {
                let (guest, host, addr) = (&guest, &host, server.addr());
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect loopback");
                    for i in 0..MAP_QUERIES {
                        let v = (c * 17 + i * 13) % guest.size();
                        black_box(client.map(guest, host, v).expect("MAP query"));
                    }
                });
            }
        });
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::parse_json;
    use std::collections::BTreeSet;

    #[test]
    fn every_checked_in_baseline_is_gated_by_the_table() {
        let mut pairs = BTreeSet::new();
        for row in WORKLOADS {
            assert!(pairs.insert((row.benchmark, row.group)), "{row:?} twice");
        }

        // Resolving a file checks every gated key of its benchmark.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut gated = BTreeSet::new();
        for entry in std::fs::read_dir(root).expect("repository root") {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(format!("{root}/{name}")).expect(&name);
            let rows = rows_of(&parse_json(&text).expect(&name)).expect(&name);
            assert!(
                rows.iter().any(|(_, b)| b.is_some()),
                "{name} gates nothing"
            );
            gated.insert(rows[0].0.benchmark);
        }
        assert!(!gated.is_empty());
        for row in WORKLOADS.iter().filter(|row| row.gate.is_some()) {
            assert!(gated.contains(row.benchmark), "{row:?} has no baseline");
        }
    }

    #[test]
    fn unusable_baselines_are_rejected() {
        let rejects = |doc: &str| rows_of(&parse_json(doc).unwrap()).unwrap_err();
        let unknown = rejects(r#"{"benchmark": "mystery"}"#);
        assert!(matches!(unknown, GateError::UnknownBenchmark { .. }));
        for missing in [r#"{"summary": {}}"#, r#"{"benchmark": "embd_load"}"#] {
            assert!(matches!(rejects(missing), GateError::Schema { .. }));
        }
        for bad in ["0", "-1", "\"fast\""] {
            let doc = format!(
                r#"{{"benchmark": "embd_load", "summary": {{"queries_per_second": {bad}}}}}"#
            );
            assert!(
                matches!(rejects(&doc), GateError::NotPositive { .. }),
                "{bad}"
            );
        }
    }

    #[test]
    fn element_counts_match_the_inputs() {
        assert_eq!(torus(&[1024, 1024]).num_edges(), MILLION_NODE_EDGES);
        assert_eq!(host_shape().unwrap().size(), MILLION_NODES);
        let plan = SweepPlan::builtin("bench").unwrap();
        assert_eq!(expand(&plan).len() as u64, BENCH_TRIALS);
    }
}
