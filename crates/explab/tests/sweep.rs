//! Integration tests of the sweep executor: determinism, shard-count
//! invariance, and a differential check against direct library calls.

use embeddings::auto::{embed, predicted_dilation};
use embeddings::congestion::congestion;
use embeddings::verify::verify;
use explab::executor::{expand, run};
use explab::plan::{
    ChaosSpec, Family, ObjectiveKind, OptimSpec, SweepPlan, WirelengthSpec, WorkloadSpec,
};
use explab::report::experiments_markdown;

fn test_plan() -> SweepPlan {
    SweepPlan {
        name: "test".into(),
        seed: 20260729,
        rounds: 1,
        families: vec![
            Family::Paper,
            Family::RingInto {
                max_size: 12,
                max_dim: 3,
            },
            Family::TorusToMesh {
                max_size: 12,
                max_dim: 3,
            },
            Family::Random {
                count: 8,
                max_size: 20,
                max_dim: 3,
            },
            Family::HypercubeTorus { max_dim: 4 },
        ],
        workloads: vec![
            WorkloadSpec::Neighbor,
            WorkloadSpec::Tornado,
            WorkloadSpec::Random,
        ],
        optimize: Some(OptimSpec {
            objective: ObjectiveKind::Congestion,
            steps: 150,
            shards: 2,
            portfolio: true,
        }),
        // The wirelength stage rides along on the hypercube-guest trials so
        // the determinism and shard-invariance tests also pin it.
        wirelength: Some(WirelengthSpec {
            steps: 120,
            shards: 2,
        }),
        // Chaos rows ride along so the determinism and shard-invariance
        // tests below also pin the faulted re-simulations.
        chaos: Some(ChaosSpec {
            loss_percents: vec![10],
            tenants: vec![2],
        }),
    }
}

#[test]
fn same_plan_and_seed_produce_bit_identical_jsonl() {
    let plan = test_plan();
    let first = run(&plan, 2);
    let second = run(&plan, 2);
    assert_eq!(first.records, second.records);
    assert_eq!(first.to_jsonl(), second.to_jsonl());

    // A different seed changes at least the random family's trials.
    let mut reseeded = plan.clone();
    reseeded.seed = 1;
    assert_ne!(run(&reseeded, 2).to_jsonl(), first.to_jsonl());
}

#[test]
fn worker_count_never_changes_the_records() {
    let plan = test_plan();
    let reference = run(&plan, 1);
    for workers in [2, 3, 5, 8, 0] {
        let sharded = run(&plan, workers);
        assert_eq!(
            sharded.records, reference.records,
            "workers={workers} diverged from the sequential sweep"
        );
        assert_eq!(sharded.to_jsonl(), reference.to_jsonl());
    }
    // The rendered report is likewise shard-invariant.
    let note = "shard-invariance test";
    assert_eq!(
        experiments_markdown(&reference, note),
        experiments_markdown(&run(&plan, 4), note)
    );
}

#[test]
fn trial_metrics_match_direct_library_calls() {
    let plan = test_plan();
    let outcome = run(&plan, 3);
    let specs = expand(&plan);
    assert_eq!(outcome.records.len(), specs.len());
    let mut checked = 0;
    for record in &outcome.records {
        let spec = &specs[record.id];
        let Some(metrics) = record.metrics() else {
            // The planner must agree that the pair is unsupported.
            assert!(
                embed(&spec.guest, &spec.host).is_err()
                    || predicted_dilation(&spec.guest, &spec.host).is_err(),
                "trial {} unsupported but the planner covers {} -> {}",
                record.id,
                spec.guest,
                spec.host
            );
            continue;
        };
        let embedding = embed(&spec.guest, &spec.host).expect("supported pair");
        let verification = verify(&embedding, 0).expect("in-budget guest");
        let congestion_report = congestion(&embedding).expect("valid embedding");
        assert_eq!(metrics.construction, embedding.name());
        assert_eq!(
            metrics.predicted_dilation,
            predicted_dilation(&spec.guest, &spec.host).unwrap()
        );
        assert_eq!(metrics.measured_dilation, verification.dilation);
        assert_eq!(metrics.average_dilation, verification.average_dilation);
        assert_eq!(metrics.guest_edges, verification.edges);
        assert_eq!(metrics.injective, verification.injective);
        assert_eq!(metrics.max_congestion, congestion_report.max_congestion);
        assert_eq!(
            metrics.average_congestion,
            congestion_report.average_congestion
        );
        assert_eq!(metrics.used_host_links, congestion_report.used_host_edges);
        assert!(record.bound_ok());
        checked += 1;
    }
    assert!(checked > 50, "only {checked} supported trials checked");
}

#[test]
fn report_plan_tables_match_per_node_images() {
    // Every pair the report sweeps, separable construction or not: the
    // table the annealing passes start from is the per-node map.
    let plan = SweepPlan::builtin("report").unwrap();
    let mut checked = 0;
    for spec in expand(&plan) {
        let Ok(embedding) = embed(&spec.guest, &spec.host) else {
            continue;
        };
        let per_node: Vec<u64> = (0..embedding.size())
            .map(|x| embedding.map_index(x))
            .collect();
        assert_eq!(
            embedding.to_table().unwrap(),
            per_node,
            "trial {}: {} -> {} ({})",
            spec.id,
            spec.guest,
            spec.host,
            embedding.name()
        );
        checked += 1;
    }
    assert!(checked > 100, "only {checked} report trials checked");
}

#[test]
fn sharded_optimizer_records_are_worker_invariant_and_consistent() {
    // The per-trial sharded annealing stage must keep records bit-identical
    // for any executor worker count, carry one provenance entry per shard,
    // and reduce to the lexicographically best (cost, seed, shard) walk.
    let mut plan = test_plan();
    plan.optimize = Some(OptimSpec {
        objective: ObjectiveKind::Congestion,
        steps: 120,
        shards: 3,
        portfolio: true,
    });
    let reference = run(&plan, 1);
    assert_eq!(run(&plan, 4).records, reference.records);

    let mut optimized_trials = 0;
    for record in &reference.records {
        let Some(o) = record.metrics().and_then(|m| m.optimized.as_ref()) else {
            continue;
        };
        optimized_trials += 1;
        assert_eq!(o.shards, 3);
        assert_eq!(o.shard_reports.len(), 3);
        let min = o
            .shard_reports
            .iter()
            .map(|s| (s.best_primary, s.best_secondary, s.seed, s.shard))
            .min()
            .unwrap();
        let winner = &o.shard_reports[o.winner_shard as usize];
        assert_eq!(
            (
                winner.best_primary,
                winner.best_secondary,
                winner.seed,
                winner.shard
            ),
            min,
            "winner is not the lexicographic best in trial {}",
            record.id
        );
        assert_eq!(o.winner_seed, winner.seed);
        // The JSONL line exposes the provenance.
        let json = record.to_json_line();
        assert!(json.contains("\"shard_reports\":["));
        assert!(json.contains("\"winner_shard\""));
    }
    assert!(optimized_trials > 20, "only {optimized_trials} optimized");

    // One shard reproduces the sequential walk: shard_reports[0] of an
    // N-shard run equals the single entry of a 1-shard run (same base seed).
    let mut single = plan.clone();
    single.optimize = Some(OptimSpec {
        objective: ObjectiveKind::Congestion,
        steps: 120,
        shards: 1,
        portfolio: true,
    });
    let single_outcome = run(&single, 2);
    for (sharded, sequential) in reference.records.iter().zip(&single_outcome.records) {
        let (Some(s), Some(q)) = (
            sharded.metrics().and_then(|m| m.optimized.as_ref()),
            sequential.metrics().and_then(|m| m.optimized.as_ref()),
        ) else {
            continue;
        };
        assert_eq!(
            s.shard_reports[0], q.shard_reports[0],
            "trial {}",
            sharded.id
        );
        // Best-of-3 never measures worse than the sequential walk.
        assert!(s.max_congestion <= q.max_congestion, "trial {}", sharded.id);
    }
}

#[test]
fn makespan_objective_runs_sharded_in_sweeps() {
    // The delta-aware makespan objective is usable as a first-class sweep
    // objective: a small sharded plan completes with no bound violations.
    let plan = SweepPlan {
        name: "makespan".into(),
        seed: 5,
        rounds: 2,
        families: vec![Family::SameShape {
            max_size: 12,
            max_dim: 2,
        }],
        workloads: vec![WorkloadSpec::Neighbor],
        optimize: Some(OptimSpec {
            objective: ObjectiveKind::Makespan,
            steps: 150,
            shards: 2,
            portfolio: true,
        }),
        wirelength: None,
        chaos: None,
    };
    let outcome = run(&plan, 2);
    assert!(outcome.supported() > 0);
    assert!(outcome.bound_violations().is_empty());
    assert_eq!(run(&plan, 1).records, outcome.records);
    let optimized = outcome
        .records
        .iter()
        .filter_map(|r| r.metrics())
        .filter_map(|m| m.optimized.as_ref())
        .filter(|o| o.objective == "makespan")
        .count();
    assert_eq!(optimized, outcome.supported());

    // `optimize = dilation` anneals the unit-weight wirelength under its own
    // name: its records equal the wirelength records but for `objective`.
    let with_objective = |objective| {
        let mut plan = plan.clone();
        plan.optimize = plan.optimize.map(|o| OptimSpec { objective, ..o });
        run(&plan, 2).to_jsonl()
    };
    let dilation = with_objective(ObjectiveKind::Dilation);
    assert_eq!(
        dilation.matches("\"objective\":\"dilation\"").count(),
        outcome.supported()
    );
    assert_eq!(
        dilation.replace("\"objective\":\"dilation\"", "\"objective\":\"wirelength\""),
        with_objective(ObjectiveKind::Wirelength)
    );
}

/// FNV-1a, 64-bit: a stable digest of a JSONL text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn makespan_smoke_records_match_their_recorded_digest() {
    // `plans/makespan_smoke.plan` is the one sweep that anneals the makespan
    // objective, and comparing its runs at two worker counts cannot catch a
    // change that moves every record alike. Its JSONL is pinned here: any
    // change to the makespan objective's costs, the annealer's accept
    // decisions or its RNG stream changes the digest.
    let plan = SweepPlan::parse(include_str!("../../../plans/makespan_smoke.plan")).unwrap();
    let jsonl = run(&plan, 2).to_jsonl();
    assert_eq!(jsonl.lines().count(), 126);
    assert_eq!(jsonl.len(), 170_967);
    assert_eq!(fnv1a(&jsonl), 0x49c5_fac7_bcb2_0085);
}

#[test]
fn smoke_records_match_their_recorded_digest() {
    // The built-in smoke plan runs every stage once, netsim's `simulate` and
    // `simulate_chaos` among them; its digest is the one perfbench records
    // for the tiny sweep at seed 7.
    let jsonl = run(&SweepPlan::builtin("smoke").unwrap(), 2).to_jsonl();
    assert_eq!(jsonl.lines().count(), 133);
    assert_eq!(jsonl.len(), 264_222);
    assert_eq!(fnv1a(&jsonl), 0x5201_7d01_2457_b98d);
}

#[test]
fn chaos_smoke_records_match_their_recorded_digest() {
    // `plans/chaos_smoke.plan` is the sweep of faulted and multi-tenant
    // simulations, so its JSONL pins `simulate_chaos` end to end.
    let plan = SweepPlan::parse(include_str!("../../../plans/chaos_smoke.plan")).unwrap();
    let jsonl = run(&plan, 2).to_jsonl();
    assert_eq!(jsonl.lines().count(), 68);
    assert_eq!(jsonl.len(), 88_268);
    assert_eq!(fnv1a(&jsonl), 0x38d9_363f_7a9c_1c6d);
}

#[test]
fn wirelength_stage_respects_tangs_bound_on_every_swept_member() {
    // Satellite check for the cross-paper lab: sweep the whole
    // hypercube_torus family and require every supported trial to carry a
    // wirelength row whose constructive AND annealed wirelengths sit at or
    // above Tang's exact minimum, with annealing never losing ground. A
    // single violation anywhere would mean a broken closed form, a broken
    // incremental objective, or a broken measurement.
    let plan = SweepPlan {
        name: "tang".into(),
        seed: 1987,
        rounds: 1,
        families: vec![Family::HypercubeTorus { max_dim: 5 }],
        workloads: vec![WorkloadSpec::Neighbor],
        optimize: None,
        wirelength: Some(WirelengthSpec {
            steps: 250,
            shards: 2,
        }),
        chaos: None,
    };
    let outcome = run(&plan, 2);
    assert!(outcome.supported() > 0);
    assert!(outcome.bound_violations().is_empty());
    let mut rows = 0;
    for record in &outcome.records {
        let Some(metrics) = record.metrics() else {
            continue;
        };
        let w = metrics
            .wirelength
            .as_ref()
            .expect("every supported family member is a hypercube guest");
        rows += 1;
        assert!(w.injective, "trial {}", record.id);
        assert!(
            w.constructive >= w.bound,
            "trial {}: constructive {} < Tang bound {}",
            record.id,
            w.constructive,
            w.bound
        );
        assert!(
            w.optimized >= w.bound,
            "trial {}: annealed {} < Tang bound {}",
            record.id,
            w.optimized,
            w.bound
        );
        assert!(w.optimized <= w.constructive, "trial {}", record.id);
        assert_eq!(w.shards, 2);
        assert!(record.to_json_line().contains("\"wirelength\":{"));
    }
    assert!(rows >= 8, "only {rows} wirelength rows swept");
    // Worker-count invariance covers the new stage too.
    assert_eq!(run(&plan, 1).records, outcome.records);
}

#[test]
fn jsonl_has_one_line_per_trial_in_id_order() {
    let plan = SweepPlan::builtin("smoke").unwrap();
    let outcome = run(&plan, 4);
    let jsonl = outcome.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), outcome.records.len());
    for (index, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"id\":{index},")),
            "line {index} out of order: {line}"
        );
        assert!(line.ends_with('}'));
    }
}

#[test]
fn parsed_plan_files_run_end_to_end() {
    let text = "
        name = from-file
        seed = 3
        workloads = neighbor, alltoall
        family same_shape max_size=10 max_dim=2
    ";
    let plan = SweepPlan::parse(text).unwrap();
    let outcome = run(&plan, 2);
    assert_eq!(outcome.plan_name, "from-file");
    assert!(outcome.supported() > 0);
    assert!(outcome.bound_violations().is_empty());
    // alltoall applies to every guest here (all sizes <= 64).
    let with_alltoall = outcome
        .records
        .iter()
        .filter_map(|r| r.metrics())
        .filter(|m| m.workloads.iter().any(|w| w.workload == "alltoall"))
        .count();
    assert_eq!(with_alltoall, outcome.supported());
}
