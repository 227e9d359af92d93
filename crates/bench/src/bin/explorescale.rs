//! explorescale — guided-search acceptance driver: verdict-equivalence
//! gate, then a distinct-states/sec grid over the search strategies.
//!
//! Two phases:
//!
//! 1. **Equivalence gate.** On a safe contended cell and on a
//!    deliberately racy test-then-set lock, DPOR and best-first must
//!    report the same safety verdict — and, for the racy lock, the
//!    same canonical least witness — as exhaustive BFS; the seeded
//!    fuzzer must find the race too. Any disagreement aborts the bench
//!    with exit 1: a fast pruned search that changes answers is
//!    worthless.
//! 2. **Timing grid.** Each cell × strategy runs at the *same* run
//!    budget; the scored metric is distinct state fingerprints per
//!    second. The headline is the best DPOR/BFS ratio (`target_met`
//!    requires ≥ 10x), plus a witness hunt: best-first must reach a
//!    schedule at least as expensive (max entered-passage RMRs) as the
//!    hand-crafted `worst_case_sweep` adversary of
//!    `tests/rmr_bounds.rs`.
//!
//! Results go to stdout as tables and to `BENCH_explore.json` (at the
//! repo root; under `target/experiments/` for `--smoke`) with
//! `target_met`/`caveats` fields. On a single-CPU
//! container the ratio is still meaningful — both searches time-share
//! the same core, so it measures algorithmic pruning, not parallelism —
//! and the caveat records it.

use sal_bench::{worst_case_sweep, Cli, ExploreCell, LockKind, Table};
use sal_memory::{Layered, Mem, MemoryBuilder};
use sal_obs::{Json, ToJson};
use sal_runtime::{
    explore_guided, simulate, ExplorationResult, ExploreOptions, ForcedSchedule, GuidedOutcome,
    OpTraceSink, SimOptions, Strategy,
};
use std::time::Instant;

fn cli() -> Cli {
    Cli::new(
        "explorescale",
        "guided-search equivalence gate + distinct-states/sec grid",
    )
    .flag("--smoke", "CI-sized grid (one cell, small budgets)")
    .opt(
        "--runs",
        "r",
        "run budget per cell (default 2000, smoke 1000 — the ratio needs enough \
         budget for BFS to hit its redundancy wall)",
    )
    .opt("--deviations", "d", "deviation budget (default 2)")
    .opt("--seed", "u64", "fuzzer seed (default 1)")
    .opt(
        "--jobs",
        "k",
        "worker threads (0 = auto; SAL_JOBS honoured; results are identical at any value)",
    )
}

/// The racy test-then-set lock (same shape as the explorer's own unit
/// tests): one deviation is enough to put both processes in the CS.
fn broken_lock_guided(policy: ForcedSchedule) -> GuidedOutcome {
    let mut b = MemoryBuilder::new();
    let flag = b.alloc(0);
    let in_cs = b.alloc(0);
    let max_seen = b.alloc(0);
    let mem = b.build_cc(2);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let report = simulate(&traced, 2, Box::new(policy), SimOptions::default(), |ctx| {
        loop {
            if ctx.mem.read(ctx.pid, flag) == 0 {
                ctx.mem.write(ctx.pid, flag, 1); // should be CAS!
                break;
            }
        }
        let inside = ctx.mem.faa(ctx.pid, in_cs, 1) + 1;
        let seen = ctx.mem.read(ctx.pid, max_seen);
        if inside > seen {
            ctx.mem.write(ctx.pid, max_seen, inside);
        }
        ctx.mem.faa(ctx.pid, in_cs, 1u64.wrapping_neg());
        ctx.mem.write(ctx.pid, flag, 0);
    });
    let ops = traced.into_layer().take();
    let verdict = (|| {
        report.map_err(|e| e.to_string())?;
        if mem.read(0, max_seen) > 1 {
            Err("two processes in the CS".into())
        } else {
            Ok(())
        }
    })();
    GuidedOutcome {
        verdict,
        ops,
        cost: 0,
    }
}

/// Phase 1: BFS-equivalence of violation verdicts on small configs.
/// Returns the gate's table rows; exits the process on a disagreement.
fn equivalence_gate(jobs: usize, fuzz_seed: u64) -> Table {
    let mut t = Table::new(
        "explorescale | equivalence gate".to_string(),
        &["config", "strategy", "runs", "verdict", "agrees with bfs"],
    );
    let mut gate = |label: &str,
                    opts: &ExploreOptions,
                    run: &(dyn Fn(ForcedSchedule) -> GuidedOutcome + Sync)| {
        let opts = ExploreOptions {
            stop_on_violation: false,
            jobs,
            ..opts.clone()
        };
        let bfs = explore_guided(&opts, Strategy::Bfs, run);
        for strategy in [Strategy::Bfs, Strategy::Dpor, Strategy::BestFirst] {
            let r = if strategy == Strategy::Bfs {
                // reuse, don't re-run
                &bfs
            } else {
                &explore_guided(&opts, strategy, run)
            };
            let same_verdict = bfs.violation.is_some() == r.violation.is_some();
            let same_witness = bfs.violation_canonical == r.violation_canonical;
            let agrees = same_verdict && same_witness;
            t.row(vec![
                label.into(),
                strategy.label().into(),
                r.runs.to_string(),
                match &r.violation {
                    None => "safe".into(),
                    Some((_, m)) => format!("violation: {m}"),
                },
                agrees.to_string(),
            ]);
            if !agrees {
                t.print();
                eprintln!(
                    "equivalence gate FAILED: {} disagrees with bfs on {label} \
                     (bfs witness {:?}, {} witness {:?})",
                    strategy.label(),
                    bfs.violation_canonical,
                    strategy.label(),
                    r.violation_canonical
                );
                std::process::exit(1);
            }
        }
        bfs.violation.is_some()
    };

    let safe_cell = ExploreCell {
        aborters: 1,
        ..ExploreCell::new(LockKind::OneShot { b: 4 }, 3)
    };
    let safe_opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 20_000,
        max_branch_depth: 80,
        ..ExploreOptions::default()
    };
    let found = gate("one-shot n=3 a=1", &safe_opts, &|p| safe_cell.guided_run(p));
    if found {
        eprintln!("equivalence gate FAILED: the one-shot lock is supposed to be safe");
        std::process::exit(1);
    }

    let racy_opts = ExploreOptions {
        max_deviations: 1,
        max_runs: 20_000,
        max_branch_depth: 100,
        ..ExploreOptions::default()
    };
    let found = gate("racy test-then-set", &racy_opts, &broken_lock_guided);
    if !found {
        eprintln!("equivalence gate FAILED: nobody found the planted race");
        std::process::exit(1);
    }

    // The fuzzer is not verdict-equivalent by construction (it samples
    // outside the deviation bound), but it must find the planted race.
    let fuzz_opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 2_000,
        max_branch_depth: 100,
        jobs,
        ..ExploreOptions::default()
    };
    let fuzz = explore_guided(
        &fuzz_opts,
        Strategy::Fuzz { seed: fuzz_seed },
        broken_lock_guided,
    );
    t.row(vec![
        "racy test-then-set".into(),
        "fuzz".into(),
        fuzz.runs.to_string(),
        match &fuzz.violation {
            None => "safe".into(),
            Some((_, m)) => format!("violation: {m}"),
        },
        "(gate: must find race)".into(),
    ]);
    if fuzz.violation.is_none() {
        t.print();
        eprintln!("equivalence gate FAILED: fuzzer missed the planted race");
        std::process::exit(1);
    }
    t
}

struct CellRun {
    cell_label: String,
    n: usize,
    aborters: usize,
    strategy: &'static str,
    result: ExplorationResult,
    secs: f64,
}

impl CellRun {
    fn states_per_sec(&self) -> f64 {
        self.result.distinct_states as f64 / self.secs.max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", self.cell_label.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("aborters", Json::Int(self.aborters as i64)),
            ("strategy", self.strategy.to_json()),
            ("runs", Json::Int(self.result.runs as i64)),
            (
                "distinct_states",
                Json::Int(self.result.distinct_states as i64),
            ),
            ("secs", self.secs.to_json()),
            ("states_per_sec", self.states_per_sec().to_json()),
            ("pruned", Json::Int(self.result.pruned as i64)),
            ("deduped", Json::Int(self.result.deduped as i64)),
            (
                "truncated_runs",
                Json::Int(self.result.truncated_runs as i64),
            ),
            ("best_cost", Json::Int(self.result.best_cost as i64)),
            ("safe", self.result.violation.is_none().to_json()),
        ])
    }
}

fn main() {
    let p = cli().parse_env_or_exit();
    let smoke = p.smoke();
    let jobs = p.get_or("--jobs", 0).unwrap_or_else(bad);
    let deviations = p.get_or("--deviations", 2).unwrap_or_else(bad);
    let fuzz_seed: u64 = p.get_or("--seed", 1).unwrap_or_else(bad);
    let budget: usize = p
        .get_or("--runs", if smoke { 1_000 } else { 2_000 })
        .unwrap_or_else(bad);

    let gate_table = equivalence_gate(jobs, fuzz_seed);
    gate_table.print();

    // Phase 2: the timing grid. Same budget for every strategy of a
    // cell — the scored metric is distinct states per second.
    let cells: Vec<(String, ExploreCell)> = if smoke {
        vec![(
            "one-shot b=4 n=3 contended".into(),
            ExploreCell::contended(LockKind::OneShot { b: 4 }, 3),
        )]
    } else {
        vec![
            (
                "one-shot b=4 n=3 contended".into(),
                ExploreCell::contended(LockKind::OneShot { b: 4 }, 3),
            ),
            (
                "one-shot b=2 n=4 contended".into(),
                ExploreCell::contended(LockKind::OneShot { b: 2 }, 4),
            ),
        ]
    };

    let mut grid: Vec<CellRun> = Vec::new();
    let mut t = Table::new(
        format!("explorescale | grid (budget {budget} runs, deviations <= {deviations})"),
        &[
            "cell", "strategy", "runs", "states", "secs", "states/s", "pruned", "deduped",
        ],
    );
    for (label, cell) in &cells {
        for strategy in [
            Strategy::Bfs,
            Strategy::Dpor,
            Strategy::BestFirst,
            Strategy::Fuzz { seed: fuzz_seed },
        ] {
            let opts = ExploreOptions {
                max_deviations: deviations,
                max_runs: budget,
                max_branch_depth: 120,
                jobs,
                ..ExploreOptions::default()
            };
            let start = Instant::now();
            let result = explore_guided(&opts, strategy, |p| cell.guided_run(p));
            let secs = start.elapsed().as_secs_f64();
            if result.violation.is_some() {
                eprintln!(
                    "grid cell {label}/{} found a violation: {:?}",
                    strategy.label(),
                    result.violation
                );
                std::process::exit(1);
            }
            let run = CellRun {
                cell_label: label.clone(),
                n: cell.n,
                aborters: cell.aborters,
                strategy: strategy.label(),
                result,
                secs,
            };
            t.row(vec![
                label.clone(),
                run.strategy.into(),
                run.result.runs.to_string(),
                run.result.distinct_states.to_string(),
                format!("{:.3}", run.secs),
                format!("{:.0}", run.states_per_sec()),
                run.result.pruned.to_string(),
                run.result.deduped.to_string(),
            ]);
            grid.push(run);
        }
    }
    t.print();

    // Headline: best DPOR/BFS distinct-states-rate ratio across cells.
    let mut headline_ratio = 0.0f64;
    for (label, _) in &cells {
        let rate = |strat: &str| {
            grid.iter()
                .find(|r| &r.cell_label == label && r.strategy == strat)
                .map(CellRun::states_per_sec)
                .unwrap_or(0.0)
        };
        let bfs = rate("bfs");
        if bfs > 0.0 {
            headline_ratio = headline_ratio.max(rate("dpor") / bfs);
        }
    }

    // Witness hunt: best-first must reach the hand-crafted adversary's
    // RMR cost on the worst-case sweep shape.
    let witness_kind = LockKind::OneShot { b: 4 };
    let witness_n = if smoke { 4 } else { 5 };
    let reference = worst_case_sweep(witness_kind, witness_n, 3).expect("reference sweep");
    let hunt_cell = ExploreCell::contended(witness_kind, witness_n);
    let hunt_opts = ExploreOptions {
        max_deviations: 2,
        max_runs: if smoke { 250 } else { 600 },
        max_branch_depth: 120,
        jobs,
        ..ExploreOptions::default()
    };
    let start = Instant::now();
    let hunt = explore_guided(&hunt_opts, Strategy::BestFirst, |p| hunt_cell.guided_run(p));
    let hunt_secs = start.elapsed().as_secs_f64();
    let witness_met = hunt.best_cost >= reference.max_entered_rmrs;

    let mut w = Table::new(
        "explorescale | witness hunt (best-first vs worst_case_sweep)".to_string(),
        &["metric", "value"],
    );
    w.row(vec![
        format!("reference max entered RMRs (n={witness_n})"),
        reference.max_entered_rmrs.to_string(),
    ]);
    w.row(vec![
        "best-first max entered RMRs".into(),
        hunt.best_cost.to_string(),
    ]);
    w.row(vec!["best-first runs".into(), hunt.runs.to_string()]);
    w.row(vec!["witness_met".into(), witness_met.to_string()]);
    w.print();

    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut caveats: Vec<Json> = Vec::new();
    if available == 1 {
        caveats.push(
            "single-CPU container: worker threads time-share one core, so the states/sec \
             ratio measures algorithmic pruning (fewer, more novel runs per unit work), \
             not parallel speedup"
                .to_json(),
        );
    }
    let ratio_met = headline_ratio >= 10.0;
    let target_met = ratio_met && witness_met;

    println!(
        "headline: dpor explores {headline_ratio:.1}x distinct states/sec vs bfs \
         (target >= 10x: {ratio_met}); witness hunt {} (best-first {} vs reference {})",
        if witness_met { "met" } else { "MISSED" },
        hunt.best_cost,
        reference.max_entered_rmrs
    );

    let out = vec![
        ("bench", "explorescale".to_json()),
        ("jobs", Json::Int(jobs as i64)),
        ("budget_runs", Json::Int(budget as i64)),
        ("equivalence_ok", true.to_json()), // gate exits on failure
        ("headline_ratio", headline_ratio.to_json()),
        ("ratio_met", ratio_met.to_json()),
        (
            "witness",
            Json::obj(vec![
                ("lock", reference.lock.to_json()),
                ("n", Json::Int(witness_n as i64)),
                (
                    "reference_max_entered_rmrs",
                    Json::Int(reference.max_entered_rmrs as i64),
                ),
                ("best_first_cost", Json::Int(hunt.best_cost as i64)),
                ("runs", Json::Int(hunt.runs as i64)),
                ("secs", hunt_secs.to_json()),
                ("witness_met", witness_met.to_json()),
            ]),
        ),
        ("target_met", target_met.to_json()),
        ("caveats", Json::Arr(caveats)),
        (
            "cells",
            Json::Arr(grid.iter().map(CellRun::to_json).collect()),
        ),
    ];

    sal_bench::save_artifact("explore", smoke, out);
}

fn bad<T>(e: String) -> T {
    eprintln!("error: {e}");
    std::process::exit(2);
}
