//! Aggregate tables and the generated EXPERIMENTS.md.
//!
//! Everything here is a pure function of a [`SweepOutcome`], and every
//! number is formatted with a fixed precision, so the rendered document is
//! byte-identical across runs, machines and worker counts — which is what
//! lets CI diff the checked-in EXPERIMENTS.md against a fresh regeneration.

use embeddings::chain::EmbeddingChain;
use gridviz::{Alignment, Table};
use topology::{Grid, Shape};

use crate::executor::SweepOutcome;
use crate::trial::TrialRecord;

/// The three-way marker used in dilation tables: measured equals the bound,
/// beats it, or violates it.
pub fn check_mark(predicted: u64, measured: u64) -> &'static str {
    if measured == predicted {
        "ok"
    } else if measured < predicted {
        "ok (beats bound)"
    } else {
        "MISMATCH"
    }
}

fn right(n: usize) -> Vec<Alignment> {
    // First column left, the remaining n right-aligned.
    let mut alignments = vec![Alignment::Left];
    alignments.extend(std::iter::repeat_n(Alignment::Right, n));
    alignments
}

/// Table: one row per family — coverage, violations and extreme measurements.
pub fn family_overview(outcome: &SweepOutcome) -> Table {
    let mut families: Vec<&'static str> = Vec::new();
    for record in &outcome.records {
        if !families.contains(&record.family) {
            families.push(record.family);
        }
    }
    let mut table = Table::new(vec![
        "family",
        "pairs",
        "supported",
        "unsupported",
        "violations",
        "max dilation",
        "max congestion",
        "max congestion (opt)",
    ])
    .with_alignments(right(7));
    for family in families {
        let records: Vec<&TrialRecord> = outcome
            .records
            .iter()
            .filter(|r| r.family == family)
            .collect();
        let supported = records.iter().filter(|r| r.is_supported()).count();
        let violations = records.iter().filter(|r| !r.bound_ok()).count();
        let max_dilation = records
            .iter()
            .filter_map(|r| r.metrics().map(|m| m.measured_dilation))
            .max()
            .unwrap_or(0);
        let max_congestion = records
            .iter()
            .filter_map(|r| r.metrics().map(|m| m.max_congestion))
            .max()
            .unwrap_or(0);
        let max_optimized = records
            .iter()
            .filter_map(|r| r.metrics().and_then(|m| m.optimized.as_ref()))
            .map(|o| o.max_congestion)
            .max();
        table.push_row(vec![
            family.to_string(),
            records.len().to_string(),
            supported.to_string(),
            (records.len() - supported).to_string(),
            violations.to_string(),
            max_dilation.to_string(),
            max_congestion.to_string(),
            max_optimized.map_or_else(|| "-".to_string(), |c| c.to_string()),
        ]);
    }
    table
}

/// Table: the paper-family pairs in full detail — the EXPERIMENTS.md
/// analogue of the paper's summary table.
pub fn paper_dilation(outcome: &SweepOutcome) -> Table {
    let mut table = Table::new(vec![
        "guest",
        "host",
        "construction",
        "predicted",
        "measured",
        "avg dilation",
        "max congestion",
        "opt congestion",
        "check",
    ])
    .with_alignments(vec![
        Alignment::Left,
        Alignment::Left,
        Alignment::Left,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
        Alignment::Left,
    ]);
    for record in outcome.records.iter().filter(|r| r.family == "paper") {
        let Some(m) = record.metrics() else {
            table.push_row(vec![
                record.guest.clone(),
                record.host.clone(),
                "(unsupported)".to_string(),
            ]);
            continue;
        };
        table.push_row(vec![
            record.guest.clone(),
            record.host.clone(),
            m.construction.clone(),
            m.predicted_dilation.to_string(),
            m.measured_dilation.to_string(),
            format!("{:.3}", m.average_dilation),
            m.max_congestion.to_string(),
            m.optimized
                .as_ref()
                .map_or_else(|| "-".to_string(), |o| o.max_congestion.to_string()),
            check_mark(m.predicted_dilation, m.measured_dilation).to_string(),
        ]);
    }
    table
}

/// Table: one row per size of the named family — how coverage and dilation
/// evolve as the pairs grow.
pub fn dilation_by_size(outcome: &SweepOutcome, family: &str) -> Table {
    let mut sizes: Vec<u64> = Vec::new();
    for record in &outcome.records {
        if record.family == family && !sizes.contains(&record.nodes) {
            sizes.push(record.nodes);
        }
    }
    sizes.sort_unstable();
    let mut table = Table::new(vec![
        "nodes",
        "pairs",
        "supported",
        "max predicted",
        "max measured",
        "violations",
    ])
    .with_alignments(right(5));
    for nodes in sizes {
        let records: Vec<&TrialRecord> = outcome
            .records
            .iter()
            .filter(|r| r.family == family && r.nodes == nodes)
            .collect();
        let supported = records.iter().filter(|r| r.is_supported()).count();
        let violations = records.iter().filter(|r| !r.bound_ok()).count();
        let max_predicted = records
            .iter()
            .filter_map(|r| r.metrics().map(|m| m.predicted_dilation))
            .max()
            .unwrap_or(0);
        let max_measured = records
            .iter()
            .filter_map(|r| r.metrics().map(|m| m.measured_dilation))
            .max()
            .unwrap_or(0);
        table.push_row(vec![
            nodes.to_string(),
            records.len().to_string(),
            supported.to_string(),
            max_predicted.to_string(),
            max_measured.to_string(),
            violations.to_string(),
        ]);
    }
    table
}

/// Table: simulated latency of every applicable workload on the paper pairs.
pub fn paper_workloads(outcome: &SweepOutcome) -> Table {
    let mut table = Table::new(vec![
        "pair", "workload", "messages", "avg hops", "max hops", "cycles",
    ])
    .with_alignments(vec![
        Alignment::Left,
        Alignment::Left,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
    ]);
    for record in outcome.records.iter().filter(|r| r.family == "paper") {
        let Some(m) = record.metrics() else { continue };
        for w in &m.workloads {
            table.push_row(vec![
                format!("{} -> {}", record.guest, record.host),
                w.workload.to_string(),
                w.messages.to_string(),
                format!("{:.3}", w.average_hops),
                w.max_hops.to_string(),
                w.cycles.to_string(),
            ]);
        }
    }
    table
}

/// Table: constructive vs optimized max congestion, one row per family —
/// the measured-objective headline the optimizer subsystem adds on top of
/// the paper's analytic bounds. `Σ` columns sum each trial's max congestion
/// over the family, so "improved" trials move the totals even when the
/// family-wide maximum is unchanged.
pub fn optimizer_comparison(outcome: &SweepOutcome) -> Table {
    let mut families: Vec<&'static str> = Vec::new();
    for record in &outcome.records {
        if !families.contains(&record.family) {
            families.push(record.family);
        }
    }
    let mut table = Table::new(vec![
        "family",
        "optimized trials",
        "improved",
        "Σ max congestion (constructive)",
        "Σ max congestion (optimized)",
        "reduction",
    ])
    .with_alignments(right(5));
    for family in families {
        let pairs: Vec<(u64, u64)> = outcome
            .records
            .iter()
            .filter(|r| r.family == family)
            .filter_map(|r| r.metrics())
            .filter_map(|m| {
                m.optimized
                    .as_ref()
                    .map(|o| (m.max_congestion, o.max_congestion))
            })
            .collect();
        if pairs.is_empty() {
            continue;
        }
        let improved = pairs
            .iter()
            .filter(|(before, after)| after < before)
            .count();
        let before: u64 = pairs.iter().map(|(b, _)| b).sum();
        let after: u64 = pairs.iter().map(|(_, a)| a).sum();
        // Signed difference: the congestion objective is monotone in max
        // congestion, but the dilation/makespan objectives may trade it
        // away, and a negative reduction must render as such rather than
        // underflow `before - after` in u64.
        let reduction = if before == 0 {
            0.0
        } else {
            100.0 * (before as f64 - after as f64) / before as f64
        };
        table.push_row(vec![
            family.to_string(),
            pairs.len().to_string(),
            improved.to_string(),
            before.to_string(),
            after.to_string(),
            format!("{reduction:.1}%"),
        ]);
    }
    table
}

/// Table: sharded annealing vs the sequential walk, one row per family.
/// Shard 0 runs the base seed unchanged, so its per-shard report *is* the
/// sequential optimizer's result; the winner column is the best-of-N reduce.
/// `Σ best` columns sum each trial's best primary cost (max congestion under
/// the congestion objective) over the family. `portfolio wins` counts the
/// wins claimed by a non-`"base"` shard style — the compound move
/// repertoires and hotter schedules of `ShardStrategy::Portfolio` (always 0
/// under seed-only restarts, where every style is `"base"`).
pub fn sharded_comparison(outcome: &SweepOutcome) -> Table {
    let mut families: Vec<&'static str> = Vec::new();
    for record in &outcome.records {
        if !families.contains(&record.family) {
            families.push(record.family);
        }
    }
    let mut table = Table::new(vec![
        "family",
        "trials",
        "shards",
        "sharded wins",
        "portfolio wins",
        "Σ best (shard 0 = sequential)",
        "Σ best (best of N shards)",
        "reduction",
    ])
    .with_alignments(right(7));
    for family in families {
        let rows: Vec<(u64, u64, u32, &'static str)> = outcome
            .records
            .iter()
            .filter(|r| r.family == family)
            .filter_map(|r| r.metrics())
            .filter_map(|m| m.optimized.as_ref())
            // A single-shard run would compare the sequential walk against
            // itself — vacuous; the table only renders for real fan-outs.
            .filter(|o| o.shard_reports.len() > 1)
            .map(|o| {
                let sequential = o.shard_reports[0].best_primary;
                let best = o
                    .shard_reports
                    .iter()
                    .map(|s| s.best_primary)
                    .min()
                    .expect("non-empty");
                let winner_style = o.shard_reports[o.winner_shard as usize].style;
                (sequential, best, o.shards, winner_style)
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        let shards = rows[0].2;
        let wins = rows.iter().filter(|(seq, best, _, _)| best < seq).count();
        let portfolio_wins = rows
            .iter()
            .filter(|(seq, best, _, style)| best < seq && *style != "base")
            .count();
        let sequential: u64 = rows.iter().map(|(seq, _, _, _)| seq).sum();
        let best: u64 = rows.iter().map(|(_, best, _, _)| best).sum();
        let reduction = if sequential == 0 {
            0.0
        } else {
            100.0 * (sequential as f64 - best as f64) / sequential as f64
        };
        table.push_row(vec![
            family.to_string(),
            rows.len().to_string(),
            shards.to_string(),
            wins.to_string(),
            portfolio_wins.to_string(),
            sequential.to_string(),
            best.to_string(),
            format!("{reduction:.1}%"),
        ]);
    }
    table
}

/// Table: fault tolerance by family and link-loss level — delivered
/// fraction, makespan inflation and detour overhead of the neighbor-exchange
/// traffic re-routed by `netsim::chaos`'s detour router, for the
/// constructive and (when present) the annealed placement. The 0% row is
/// the pristine baseline: it must read `1.000`, `x1.00`, `0.0%` — any other
/// value is a bound violation the executor would already have flagged.
pub fn fault_tolerance(outcome: &SweepOutcome) -> Table {
    let mut families: Vec<&'static str> = Vec::new();
    for record in &outcome.records {
        if !families.contains(&record.family) {
            families.push(record.family);
        }
    }
    let mut table = Table::new(vec![
        "family",
        "link loss",
        "trials",
        "delivered",
        "delivered (opt)",
        "makespan",
        "makespan (opt)",
        "detour overhead",
    ])
    .with_alignments(right(7));
    for family in families {
        let chaotic: Vec<&crate::trial::ChaosMetrics> = outcome
            .records
            .iter()
            .filter(|r| r.family == family)
            .filter_map(|r| r.metrics())
            .filter_map(|m| m.chaos.as_ref())
            .collect();
        if chaotic.is_empty() {
            continue;
        }
        // Every trial of a family shares the plan's loss levels.
        let levels: Vec<u32> = chaotic[0]
            .fault_rows
            .iter()
            .map(|row| row.loss_percent)
            .collect();
        let baseline_cycles: u64 = sum_runs(&chaotic, 0, |run| run.cycles, false);
        let baseline_opt: u64 = sum_runs(&chaotic, 0, |run| run.cycles, true);
        let has_optimized = chaotic
            .iter()
            .any(|c| c.fault_rows.iter().any(|row| row.optimized.is_some()));
        for &loss in &levels {
            let delivered = sum_runs(&chaotic, loss, |run| run.delivered, false);
            let messages = sum_runs(&chaotic, loss, |run| run.messages, false);
            let cycles = sum_runs(&chaotic, loss, |run| run.cycles, false);
            let detour = sum_runs(&chaotic, loss, |run| run.detour_hops, false);
            let hops = sum_runs(&chaotic, loss, |run| run.total_hops, false);
            let (delivered_opt, makespan_opt) = if has_optimized {
                let d = sum_runs(&chaotic, loss, |run| run.delivered, true);
                let m = sum_runs(&chaotic, loss, |run| run.messages, true);
                let c = sum_runs(&chaotic, loss, |run| run.cycles, true);
                (
                    format!("{:.3}", fraction(d, m)),
                    format!("x{:.2}", ratio(c, baseline_opt)),
                )
            } else {
                ("-".to_string(), "-".to_string())
            };
            table.push_row(vec![
                family.to_string(),
                format!("{loss}%"),
                chaotic.len().to_string(),
                format!("{:.3}", fraction(delivered, messages)),
                delivered_opt,
                format!("x{:.2}", ratio(cycles, baseline_cycles)),
                makespan_opt,
                format!("{:.1}%", 100.0 * fraction(detour, hops.max(1))),
            ]);
        }
    }
    table
}

/// Sums `field` of the `loss`-level fault row over every trial's chaos
/// metrics — the constructive run, or the optimized one when `optimized`.
fn sum_runs(
    chaotic: &[&crate::trial::ChaosMetrics],
    loss: u32,
    field: impl Fn(&crate::trial::ChaosRun) -> u64,
    optimized: bool,
) -> u64 {
    chaotic
        .iter()
        .flat_map(|c| c.fault_rows.iter())
        .filter(|row| row.loss_percent == loss)
        .filter_map(|row| {
            if optimized {
                row.optimized.as_ref()
            } else {
                Some(&row.constructive)
            }
        })
        .map(field)
        .sum()
}

fn fraction(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        1.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn ratio(value: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        1.0
    } else {
        value as f64 / baseline as f64
    }
}

/// Table: multi-tenant contention by family and tenant count — K rotated
/// copies of each trial's constructive placement composed onto the shared
/// host (`netsim::traffic::multi_tenant`), with the makespan inflation over
/// tenant 0 running alone. FIFO link arbitration makes `x >= 1.00` a hard
/// invariant, re-checked per record by `bound_ok`.
pub fn tenant_contention(outcome: &SweepOutcome) -> Table {
    let mut families: Vec<&'static str> = Vec::new();
    for record in &outcome.records {
        if !families.contains(&record.family) {
            families.push(record.family);
        }
    }
    let mut table = Table::new(vec![
        "family",
        "tenants",
        "trials",
        "Σ messages",
        "Σ cycles",
        "Σ solo cycles",
        "contention",
    ])
    .with_alignments(right(6));
    for family in families {
        let chaotic: Vec<&crate::trial::ChaosMetrics> = outcome
            .records
            .iter()
            .filter(|r| r.family == family)
            .filter_map(|r| r.metrics())
            .filter_map(|m| m.chaos.as_ref())
            .collect();
        let counts: Vec<u32> = chaotic
            .first()
            .map(|c| c.tenant_rows.iter().map(|row| row.tenants).collect())
            .unwrap_or_default();
        for &tenants in &counts {
            let rows: Vec<&crate::trial::TenantRow> = chaotic
                .iter()
                .flat_map(|c| c.tenant_rows.iter())
                .filter(|row| row.tenants == tenants)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let messages: u64 = rows.iter().map(|row| row.messages).sum();
            let cycles: u64 = rows.iter().map(|row| row.cycles).sum();
            let solo: u64 = rows.iter().map(|row| row.solo_cycles).sum();
            table.push_row(vec![
                family.to_string(),
                tenants.to_string(),
                rows.len().to_string(),
                messages.to_string(),
                cycles.to_string(),
                solo.to_string(),
                format!("x{:.2}", ratio(cycles, solo)),
            ]);
        }
    }
    table
}

/// The fixed multi-step chains EXPERIMENTS.md reports: endpoints the planner
/// also covers directly, routed through explicit intermediate graphs so the
/// per-step dilations and the multiplicative bound are visible.
/// Table: the cross-paper wirelength comparison, one row per hypercube-guest
/// trial that ran the wirelength stage — the 1987 constructive embedding's
/// total routed wirelength, the best a sharded annealing search under the
/// wirelength objective found, and Tang's exact analytic minimum
/// (arXiv:2302.13237) side by side. `check` compares the annealed value with
/// the bound: `ok (tight)` means annealing reached the exact optimum, `ok`
/// means it stayed above, `MISMATCH` (never expected) would mean a measured
/// wirelength below a proven minimum.
pub fn wirelength_table(outcome: &SweepOutcome) -> Table {
    let mut table = Table::new(vec![
        "guest",
        "host",
        "constructive",
        "annealed",
        "Tang bound",
        "check",
    ])
    .with_alignments(right(4));
    for record in &outcome.records {
        let Some(w) = record.metrics().and_then(|m| m.wirelength.as_ref()) else {
            continue;
        };
        table.push_row(vec![
            record.guest.clone(),
            record.host.clone(),
            w.constructive.to_string(),
            w.optimized.to_string(),
            w.bound.to_string(),
            if w.optimized < w.bound {
                "MISMATCH".to_string()
            } else if w.optimized == w.bound {
                "ok (tight)".to_string()
            } else {
                "ok".to_string()
            },
        ]);
    }
    table
}

fn report_chains() -> Vec<(&'static str, Grid, Vec<Grid>, Grid)> {
    let shape = |radices: &[u32]| Shape::new(radices.to_vec()).expect("valid shape");
    vec![
        (
            "hypercube(64) -> line(64)",
            Grid::hypercube(6).expect("valid"),
            vec![Grid::mesh(shape(&[4, 4, 4])), Grid::mesh(shape(&[8, 8]))],
            Grid::line(64).expect("valid"),
        ),
        (
            "ring(24) -> (4, 2, 3)-mesh",
            Grid::ring(24).expect("valid"),
            vec![Grid::mesh(shape(&[4, 6]))],
            Grid::mesh(shape(&[4, 2, 3])),
        ),
        (
            "(4, 6)-torus -> (2, 2, 2, 3)-mesh",
            Grid::torus(shape(&[4, 6])),
            vec![Grid::mesh(shape(&[4, 6]))],
            Grid::mesh(shape(&[2, 2, 2, 3])),
        ),
    ]
}

/// Tables: per-step dilations of the fixed chains, and the multiplicative
/// bound check for each chain.
pub fn chain_tables() -> (Table, Table) {
    let mut steps_table = Table::new(vec![
        "chain",
        "step",
        "construction",
        "guest",
        "host",
        "dilation",
    ])
    .with_alignments(vec![
        Alignment::Left,
        Alignment::Right,
        Alignment::Left,
        Alignment::Left,
        Alignment::Left,
        Alignment::Right,
    ]);
    let mut bounds_table = Table::new(vec![
        "chain",
        "steps",
        "product bound",
        "composed dilation",
        "check",
    ])
    .with_alignments(vec![
        Alignment::Left,
        Alignment::Right,
        Alignment::Right,
        Alignment::Right,
        Alignment::Left,
    ]);
    for (name, guest, waypoints, host) in report_chains() {
        let chain = EmbeddingChain::through(&guest, &waypoints, &host)
            .expect("report chains are planner-supported");
        let report = chain.report();
        for (index, step) in report.steps.iter().enumerate() {
            steps_table.push_row(vec![
                name.to_string(),
                (index + 1).to_string(),
                step.name.clone(),
                step.guest.clone(),
                step.host.clone(),
                step.dilation.to_string(),
            ]);
        }
        bounds_table.push_row(vec![
            name.to_string(),
            report.steps.len().to_string(),
            report.product_bound.to_string(),
            report.composed_dilation.to_string(),
            if report.within_bound() {
                "ok".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    (steps_table, bounds_table)
}

/// Renders the full EXPERIMENTS.md document from the report-plan outcome.
/// `shard_note` describes the executor cross-check the caller performed
/// (e.g. "identical records with 1 and 4 workers").
pub fn experiments_markdown(outcome: &SweepOutcome, shard_note: &str) -> String {
    let mut out = String::new();
    let violations = outcome.bound_violations().len();
    out.push_str("# EXPERIMENTS\n\n");
    out.push_str(
        "Generated by `cargo run --release -p explab --bin lab -- report`. Do not edit\n\
         by hand: CI regenerates this file with `lab report --check` and fails on any\n\
         drift. Trials run the batched `verify`/`congestion` pipeline plus one `netsim`\n\
         round per workload, then refine each placement with sharded seeded annealing\n\
         (N independent walks, lexicographically best kept) for constructive-vs-\n\
         optimized and sequential-vs-sharded comparisons, anneal hypercube guests\n\
         under the wirelength objective against Tang's exact analytic minimum\n\
         (Table 11), then re-simulate each placement under seeded link loss and\n\
         multi-tenant contention (`netsim::chaos`) for the degraded-operation\n\
         tables; a pair outside the paper's constructions is recorded as\n\
         unsupported, not an error.\n\n",
    );
    out.push_str(&format!(
        "- plan: `{}` (seed {}, {} trials: {} supported, {} outside the paper's cases)\n",
        outcome.plan_name,
        outcome.seed,
        outcome.records.len(),
        outcome.supported(),
        outcome.records.len() - outcome.supported(),
    ));
    out.push_str(&format!("- bound violations: **{violations}**\n"));
    out.push_str(&format!("- sharding check: {shard_note}\n\n"));

    out.push_str("## Table 1 — coverage and extremes by family\n\n");
    out.push_str(&family_overview(outcome).to_markdown());
    out.push_str(
        "\nEvery family honors its theorems: measured dilation never exceeds the\n\
         planner's prediction, and every constructed embedding verifies injective.\n\n",
    );

    out.push_str("## Table 2 — the paper's pairs: predicted vs measured dilation\n\n");
    out.push_str(&paper_dilation(outcome).to_markdown());
    out.push_str(
        "\n`check` uses the repo-wide three-way marker: `ok` (measured equals the\n\
         bound), `ok (beats bound)` (strictly below), `MISMATCH` (violation — never\n\
         expected).\n\n",
    );

    out.push_str("## Table 3 — torus -> mesh dilation by size\n\n");
    out.push_str(&dilation_by_size(outcome, "torus_to_mesh").to_markdown());
    out.push_str(
        "\nAll distinct torus shapes into all distinct mesh shapes of the same size\n\
         (dimension <= 3). Unsupported pairs are the shape combinations the paper\n\
         leaves open (neither expansion, reduction, equality nor squareness).\n\n",
    );

    out.push_str("## Table 4 — simulated workload latency on the paper pairs\n\n");
    out.push_str(&paper_workloads(outcome).to_markdown());
    out.push_str(
        "\nStore-and-forward simulation under dimension-ordered routing, one message\n\
         per pair per round, one-message-per-link arbitration. `avg hops` tracks the\n\
         embedding's average dilation on neighbor traffic; `cycles` additionally\n\
         reflects link contention.\n\n",
    );

    let (steps, bounds) = chain_tables();
    out.push_str("## Table 5 — multi-step chains: per-step dilation\n\n");
    out.push_str(&steps.to_markdown());
    out.push_str("\n## Table 6 — multi-step chains: the multiplicative bound\n\n");
    out.push_str(&bounds.to_markdown());
    out.push_str(
        "\nA chain `G -> I_1 -> … -> H` guarantees `dilation <= Π step dilation`\n\
         (each step stretches a unit edge into a path of at most its own dilation).\n\
         The composed embeddings stay within — often beat — the product bound.\n",
    );

    let comparison = optimizer_comparison(outcome);
    if !comparison.is_empty() {
        out.push_str("\n## Table 7 — optimizer: constructive vs optimized max congestion\n\n");
        out.push_str(&comparison.to_markdown());
        out.push_str(
            "\nEvery supported trial's placement is additionally refined by the seeded\n\
             local-search optimizer (`embeddings::optim`, simulated annealing over\n\
             swap/segment-reversal moves with incremental congestion deltas) and\n\
             re-measured with the same independent sweeps. The optimizer is monotone:\n\
             optimized max congestion never exceeds the constructive embedding's, and\n\
             `lab run`/`lab report` exit non-zero if it ever does.\n",
        );
    }

    let sharded = sharded_comparison(outcome);
    if !sharded.is_empty() {
        out.push_str("\n## Table 8 — sharded annealing: sequential walk vs best of N shards\n\n");
        out.push_str(&sharded.to_markdown());
        out.push_str(
            "\nEach trial runs N independently-seeded annealing walks on the fork–join\n\
             pool (`embeddings::optim::parallel`) and keeps the lexicographically best\n\
             `(cost, seed, shard)` table. Shard 0 anneals with the base seed unchanged,\n\
             so its column is exactly what the sequential optimizer would have found;\n\
             `sharded wins` counts the trials where another shard beat it, and\n\
             `portfolio wins` the subset claimed by a diversified shard style (k-cycle\n\
             or block-swap move mixes, hotter schedules) rather than a seed-only\n\
             restart. Results are bit-identical for any worker count; per-shard walks\n\
             and styles are recorded in the JSONL provenance\n\
             (`optimized.shard_reports`). The `same_shape` rows never improve from any\n\
             shard or style: the constructive embedding meets the cycle cut-crossing\n\
             lower bound exactly (see `embeddings::optim`), so zero wins there is the\n\
             expected — and pinned — outcome.\n",
        );
    }

    let faults = fault_tolerance(outcome);
    if !faults.is_empty() {
        out.push_str(
            "\n## Table 9 — fault tolerance: constructions vs annealed under link loss\n\n",
        );
        out.push_str(&faults.to_markdown());
        out.push_str(
            "\nEach trial's neighbor-exchange traffic is re-simulated by `netsim::chaos`\n\
             under a seeded `FaultPlan` failing the given share of host links, routed by\n\
             the DOR-with-detour router; unreachable pairs are dropped as typed outcomes,\n\
             never panics. `delivered` is the delivered fraction, `makespan` the cycle\n\
             inflation over the family's own 0% baseline, and `detour overhead` the share\n\
             of delivered hops taken beyond the pristine shortest paths. The 0% rows are\n\
             the regression gate: they must reproduce the unfaulted simulator bit for\n\
             bit (`1.000` / `x1.00` / `0.0%`), and `lab run`/`lab report` exit non-zero\n\
             if any does not. The `(opt)` columns degrade the annealed placement the\n\
             same way — annealing for pristine congestion does not buy fault tolerance,\n\
             so the columns move together.\n",
        );
    }

    let tenants = tenant_contention(outcome);
    if !tenants.is_empty() {
        out.push_str("\n## Table 10 — multi-tenant contention on a shared host\n\n");
        out.push_str(&tenants.to_markdown());
        out.push_str(
            "\nK rotated copies of each trial's constructive placement share the host\n\
             (`netsim::traffic::multi_tenant` composes the guests' neighbor exchanges\n\
             through their placements); `contention` is the composed makespan over\n\
             tenant 0 running alone. FIFO link arbitration guarantees `x >= 1.00`:\n\
             adding tenants can only delay, never accelerate, the solo traffic.\n",
        );
    }

    let wirelength = wirelength_table(outcome);
    if !wirelength.is_empty() {
        out.push_str(
            "\n## Table 11 — wirelength: 1987 constructions vs annealing vs Tang's exact bound\n\n",
        );
        out.push_str(&wirelength.to_markdown());
        out.push_str(
            "\nA cross-paper check: Tang (*Optimal Embedding of Hypercubes into Grids*,\n\
             arXiv:2302.13237) proves a closed form for the **minimum wirelength** —\n\
             the sum of host distances over all guest edges — of any embedding of the\n\
             hypercube `Q_n` into a torus or mesh of the same size. `constructive` is\n\
             the total routed path length of this repo's 1987-era construction,\n\
             `annealed` the best of N independently-seeded annealing walks under\n\
             `embeddings::optim`'s wirelength objective (independently re-measured by\n\
             the congestion sweep — dimension-ordered routes are shortest paths, so\n\
             total path length *is* wirelength), and `Tang bound` the analytic\n\
             minimum. `ok (tight)` marks rows where annealing reached the exact\n\
             optimum; a value below the bound would be a `MISMATCH` and makes\n\
             `lab run`/`lab report` exit non-zero.\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run;
    use crate::plan::SweepPlan;

    #[test]
    fn check_marks_match_repo_convention() {
        assert_eq!(check_mark(2, 2), "ok");
        assert_eq!(check_mark(2, 1), "ok (beats bound)");
        assert_eq!(check_mark(1, 2), "MISMATCH");
    }

    #[test]
    fn chain_tables_stay_within_bounds() {
        let (steps, bounds) = chain_tables();
        assert!(steps.len() >= 5, "three chains, multiple steps");
        assert_eq!(bounds.len(), 3);
        assert!(!bounds.to_markdown().contains("MISMATCH"));
    }

    #[test]
    fn smoke_outcome_renders_all_tables() {
        let outcome = run(&SweepPlan::builtin("smoke").unwrap(), 2);
        assert!(outcome.bound_violations().is_empty());
        assert!(outcome.records.iter().all(|r| r.nodes <= 64));
        let md = experiments_markdown(&outcome, "test note");
        assert!(md.contains("## Table 1"));
        assert!(md.contains("## Table 6"));
        // The smoke plan anneals with 2 shards, so the sharded-vs-sequential
        // comparison renders.
        assert!(md.contains("## Table 8"));
        assert!(md.contains("best of N shards"));
        // The smoke plan carries a chaos spec, so the degraded-operation
        // tables render: a 0% baseline row plus the plan's loss level, and
        // the 2-tenant contention rows.
        assert!(md.contains("## Table 9"));
        assert!(md.contains("## Table 10"));
        // The smoke plan sweeps the hypercube_torus family with a
        // wirelength spec, so the cross-paper Table 11 renders.
        assert!(md.contains("## Table 11"));
        assert!(md.contains("Tang bound"));
        assert!(md.contains("| 0% |"));
        assert!(md.contains("| 10% |"));
        assert!(md.contains("test note"));
        assert!(md.contains("| ring_into |"));
        // The word MISMATCH appears only in the legend, never as a table cell.
        assert!(!md.contains("| MISMATCH |"));
        // Deterministic rendering.
        assert_eq!(md, experiments_markdown(&outcome, "test note"));
    }
}
