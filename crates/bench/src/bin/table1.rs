//! Regenerate Table 1 of the paper from measured RMR counts.
//!
//! ```text
//! cargo run --release -p sal-bench --bin table1 -- \
//!     [worst-case|no-abort|adaptive|space|fairness|amortized|all] \
//!     [--smoke] [--jobs N]
//! ```
//!
//! Each subcommand regenerates one column of Table 1 (see DESIGN.md
//! experiment ids E1–E3, E8–E10, and M9 for `amortized`); `all` runs
//! everything. Numbers are exact RMR counts under the paper's CC cost
//! model (§2), measured by `sal-memory`, with schedules driven by
//! `sal-runtime`. Row sets are registry-driven
//! ([`LockKind::table1_rows`] / [`LockKind::all`]), so new kinds appear
//! automatically.
//!
//! `--smoke` is the CI shape: it runs the `amortized` experiment on a
//! reduced grid, which still writes the acceptance artifact
//! `BENCH_table1.json`, under `target/experiments/` rather than at the
//! repo root (amortized column for every
//! kind + the measured `target_met` verdict: the Jayanti–Jayanti lock
//! flat across N while a per-passage tree lock grows).
//!
//! Grid cells are independent simulations, so they fan out over the
//! work-stealing pool (`--jobs N`, or `SAL_JOBS`, default = available
//! parallelism) and are gathered in cell order — tables, JSON and
//! JSONL exports are byte-identical at any worker count.

use sal_bench::{
    adaptive_sweep_probed, amortized_sweep, export_events, no_abort_sweep, no_abort_sweep_probed,
    par_grid, save_json, save_json_with_log, space_row, worst_case_sweep, AmortizedPoint, LockKind,
    Table,
};
use sal_obs::{EventLog, Json, ToJson};
use sal_runtime::{run_one_shot, ProcPlan, RandomSchedule, WorkloadSpec};

const B: usize = 16; // branching factor for "our" locks in the comparison

/// E1: Table 1 "Worst-case" column — all but two processes abort while
/// queued; report the worst complete passage.
fn worst_case(jobs: usize) {
    let ns = [8usize, 16, 32, 64, 128, 256];
    let mut table = Table::new(
        "E1 — Table 1 'Worst-case': max RMRs of a complete passage, N−2 aborters",
        &["lock", "N=8", "N=16", "N=32", "N=64", "N=128", "N=256"],
    );
    let kinds = LockKind::table1_rows(B);
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| ns.iter().map(move |&n| (kind, n)))
        .collect();
    let points = par_grid(jobs, &cells, |&(kind, n)| {
        let p = worst_case_sweep(kind, n, 42).expect("sim failed");
        assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
        p
    });
    for (row, chunk) in points.chunks(ns.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        cells.extend(chunk.iter().map(|p| p.max_entered_rmrs.to_string()));
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: ours grows ~log_{B} N; tournament ~log2 N; \
         scott/lee pay per aborted predecessor (linear-family in N here)."
    );
    save_json("table1_worst_case", &points);
}

/// E2 + E10: Table 1 "No aborts" column — clean passages only.
fn no_abort(jobs: usize) {
    let ns = [8usize, 16, 32, 64, 128, 256];
    let mut table = Table::new(
        "E2/E10 — Table 1 'No aborts': max RMRs of a passage, zero aborters",
        &["lock", "N=8", "N=16", "N=32", "N=64", "N=128", "N=256"],
    );
    let mut kinds = LockKind::table1_rows(B);
    kinds.push(LockKind::Mcs); // the classic O(1) yardstick
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| ns.iter().map(move |&n| (kind, n)))
        .collect();
    // Each cell records into its own unbounded log; the driver absorbs
    // them in cell order, so the JSONL export never silently overflows
    // and is identical at any worker count.
    let results = par_grid(jobs, &cells, |&(kind, n)| {
        let cell_log = EventLog::unbounded();
        let passages = if kind.one_shot() { 1 } else { 2 };
        let p = no_abort_sweep_probed(kind, n, passages, 7, cell_log.clone()).expect("sim failed");
        assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
        (p, cell_log)
    });
    let log = EventLog::unbounded();
    let mut points = Vec::new();
    for (p, cell_log) in results {
        log.absorb(&cell_log);
        points.push(p);
    }
    for (row, chunk) in points.chunks(ns.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        cells.extend(chunk.iter().map(|p| p.max_entered_rmrs.to_string()));
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: ours, scott, lee and mcs stay flat (O(1)); tournament grows with log2 N."
    );
    // E10 close-up: the whole per-passage distribution of the paper's
    // lock is flat at N = 256, not just the max.
    let built = sal_bench::build_lock(LockKind::OneShot { b: B }, 256, 256);
    let spec = WorkloadSpec {
        plans: vec![ProcPlan::normal(1); 256],
        cs_ops: 2,
        max_steps: 60_000_000,
        lease: sal_runtime::default_lease(),
    };
    let report = sal_runtime::run_lock(
        &*built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        Box::new(RandomSchedule::seeded(7)),
    )
    .expect("sim failed");
    let samples: Vec<u64> = report
        .passages
        .iter()
        .filter(|p| p.entered)
        .map(|p| p.rmrs)
        .collect();
    if let Some(s) = sal_bench::RmrSummary::of(&samples) {
        println!(
            "E10 — one-shot(B={B}) per-passage RMR distribution at N=256, zero aborts: {}",
            s.render()
        );
    }
    save_json_with_log("table1_no_abort", &points, &log);
    export_events(&log, "table1_no_abort_events");
}

/// E3: Table 1 "Adaptive bound" column — fixed N, sweep the number of
/// aborters A.
fn adaptive(jobs: usize) {
    let n = 256;
    let aborters = [0usize, 1, 4, 16, 64, 254];
    let mut table = Table::new(
        format!("E3 — Table 1 'Adaptive bound': max RMRs of a complete passage, N = {n}"),
        &["lock", "A=0", "A=1", "A=4", "A=16", "A=64", "A=254"],
    );
    let kinds = LockKind::table1_rows(B);
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| aborters.iter().map(move |&a| (kind, a)))
        .collect();
    let results = par_grid(jobs, &cells, |&(kind, a)| {
        let cell_log = EventLog::unbounded();
        let p = adaptive_sweep_probed(kind, n, a, 11, cell_log.clone()).expect("sim failed");
        assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
        (p, cell_log)
    });
    let log = EventLog::unbounded();
    let mut points = Vec::new();
    for (p, cell_log) in results {
        log.absorb(&cell_log);
        points.push(p);
    }
    for (row, chunk) in points.chunks(aborters.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        cells.extend(chunk.iter().map(|p| p.max_entered_rmrs.to_string()));
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: ours tracks log_{B} A (stays flat until A is large); tournament is \
         pinned at log2 N regardless; scott tracks A; lee grows fastest."
    );
    save_json_with_log("table1_adaptive", &points, &log);
    export_events(&log, "table1_adaptive_events");
}

/// E8: Table 1 "Space" column — measured shared words vs N.
fn space(jobs: usize) {
    let ns = [8usize, 16, 32, 64, 128, 256];
    let mut table = Table::new(
        "E8 — Table 1 'Space': shared words allocated (attempts = N)",
        &["lock", "N=8", "N=16", "N=32", "N=64", "N=128", "N=256"],
    );
    let kinds = LockKind::table1_rows(B);
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| ns.iter().map(move |&n| (kind, n)))
        .collect();
    let rows = par_grid(jobs, &cells, |&(kind, n)| {
        (kind.label(), n, space_row(kind, n, n))
    });
    for (row, chunk) in rows.chunks(ns.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        cells.extend(chunk.iter().map(|(_, _, w)| w.to_string()));
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: one-shot is O(N); long-lived is O(N²); scott/lee arenas scale \
         with attempts (unbounded over an execution's lifetime)."
    );
    save_json("table1_space", &rows);
}

/// E9: Table 1 "Fairness" column — FCFS witness for the one-shot lock,
/// starvation-freedom witness for the long-lived lock.
fn fairness(jobs: usize) {
    let n = 16;
    let seeds: Vec<u64> = (0..200).collect();
    let verdicts = par_grid(jobs, &seeds, |&seed| {
        let built = sal_bench::build_lock(LockKind::OneShot { b: B }, n, n);
        let mut plans = vec![ProcPlan::normal(1); n];
        // A third of the crowd aborts; FCFS must hold among the rest.
        for p in plans.iter_mut().take(n).skip(2).step_by(3) {
            *p = ProcPlan::aborter(1, 40);
        }
        let spec = WorkloadSpec {
            plans,
            cs_ops: 2,
            max_steps: 10_000_000,
            lease: sal_runtime::default_lease(),
        };
        let report = run_one_shot(
            &*built.lock,
            &built.mem,
            built.cs_word,
            &spec,
            Box::new(RandomSchedule::seeded(seed)),
        )
        .expect("sim failed");
        assert!(report.mutex_check.is_ok(), "mutual exclusion violated");
        assert!(
            report.fcfs_check.is_ok(),
            "FCFS violated at seed {seed}: {:?}",
            report.fcfs_check
        );
        true
    });
    let fcfs_ok = verdicts.iter().filter(|&&ok| ok).count();
    println!(
        "\n== E9 — Table 1 'Fairness' ==\none-shot: FCFS held in {fcfs_ok}/{} random \
         schedules ({n} processes, 1/3 aborting).",
        seeds.len()
    );

    // Long-lived: starvation freedom — every process completes all its
    // passages under fair random schedules.
    let seeds: Vec<u64> = (0..50).collect();
    let completed = par_grid(jobs, &seeds, |&seed| {
        let p = no_abort_sweep(LockKind::LongLived { b: B }, 8, 4, seed).expect("sim failed");
        assert!(p.mutex_ok);
        true
    })
    .len();
    println!(
        "long-lived: all 8 processes completed 4 passages in {completed}/50 random \
         schedules (starvation-free, not FCFS — Theorem 23)."
    );
}

/// M9: Table 1 "Amortized" column — run-scoped accounting for *every*
/// registered kind at small N, with the worst-case (max single-passage
/// debt) column retained next to it. Also writes the acceptance
/// artifact `BENCH_table1.json` (see [`sal_bench::save_artifact`]), with a measured
/// `target_met` verdict: the Jayanti–Jayanti lock's amortized RMR flat
/// (within noise) across N ∈ {2, 4, 8} while the tournament tree
/// lock's grows.
fn amortized(jobs: usize, smoke: bool) {
    let ns = [2usize, 4, 8];
    let (rounds, passages) = if smoke { (3, 3) } else { (12, 6) };
    // Every kind, registry-driven — the amortized column is the one
    // place non-contenders (mcs, ticket, tas, ablation variants) show
    // up too, since run-scoped accounting is defined for all of them.
    let kinds = LockKind::all(B);
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| ns.iter().map(move |&n| (kind, n)))
        .collect();
    let points: Vec<AmortizedPoint> = par_grid(jobs, &cells, |&(kind, n)| {
        let p = amortized_sweep(kind, n, rounds, passages, 42).expect("sim failed");
        assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
        assert!(
            p.accounting_ok,
            "{} probe totals diverged from memory ground truth",
            p.lock
        );
        p
    });
    let mut table = Table::new(
        "M9 — Table 1 'Amortized': total RMRs / total passages, half the crowd aborting",
        &["lock", "N=2", "N=4", "N=8", "worst debt", "worst entered"],
    );
    for (row, chunk) in points.chunks(ns.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        cells.extend(
            chunk
                .iter()
                .map(|p| format!("{:.2}", p.stats.amortized_rmrs)),
        );
        cells.push(
            chunk
                .iter()
                .map(|p| p.stats.max_passage_rmrs)
                .max()
                .unwrap_or(0)
                .to_string(),
        );
        cells.push(
            chunk
                .iter()
                .map(|p| p.max_entered_rmrs)
                .max()
                .unwrap_or(0)
                .to_string(),
        );
        table.row(cells);
    }
    table.print();

    // The measured verdict, from the data just gathered — not from
    // asymptotic claims. "Flat" allows sim noise (different schedules
    // at different N); "grows" requires a clearly super-constant climb.
    let row_of = |kind: LockKind| -> Vec<f64> {
        let row = kinds.iter().position(|&k| k == kind).expect("kind in grid");
        points[row * ns.len()..(row + 1) * ns.len()]
            .iter()
            .map(|p| p.stats.amortized_rmrs)
            .collect()
    };
    let jj = row_of(LockKind::JjAmortized);
    let tournament = row_of(LockKind::Tournament);
    let jj_flat = jj[2] <= jj[0] * 1.5 + 1.0;
    let tree_grows = tournament[2] >= tournament[0] + 1.0;
    let target_met = jj_flat && tree_grows;
    let mut caveats: Vec<String> = Vec::new();
    if !jj_flat {
        caveats.push(format!(
            "jj-amortized amortized RMRs not flat across N: {jj:?}"
        ));
    }
    if !tree_grows {
        caveats.push(format!(
            "tournament amortized RMRs did not grow with N: {tournament:?}"
        ));
    }
    println!(
        "shape check: jj-amortized flat across N ({}: {:.2} → {:.2}), tournament grows \
         ({}: {:.2} → {:.2}); target_met: {target_met}",
        if jj_flat { "ok" } else { "NOT FLAT" },
        jj[0],
        jj[2],
        if tree_grows { "ok" } else { "NOT GROWING" },
        tournament[0],
        tournament[2],
    );
    save_json("table1_amortized", &points);

    // The acceptance artifact.
    let rows: Vec<Json> = kinds
        .iter()
        .zip(points.chunks(ns.len()))
        .map(|(kind, chunk)| {
            Json::obj(vec![
                ("lock", kind.label().to_json()),
                (
                    "cells",
                    Json::Arr(chunk.iter().map(ToJson::to_json).collect()),
                ),
            ])
        })
        .collect();
    let out = vec![
        ("bench", "table1".to_json()),
        ("branching", (B as u64).to_json()),
        (
            "ns",
            Json::Arr(ns.iter().map(|&n| (n as u64).to_json()).collect()),
        ),
        ("rounds", (rounds as u64).to_json()),
        ("passages", (passages as u64).to_json()),
        (
            "jj_amortized_rmrs",
            Json::Arr(jj.iter().map(|v| v.to_json()).collect()),
        ),
        (
            "tournament_amortized_rmrs",
            Json::Arr(tournament.iter().map(|v| v.to_json()).collect()),
        ),
        ("jj_flat", jj_flat.to_json()),
        ("tree_grows", tree_grows.to_json()),
        ("target_met", target_met.to_json()),
        ("caveats", caveats.to_json()),
        ("rows", Json::Arr(rows)),
    ];
    sal_bench::save_artifact("table1", smoke, out);
}

fn main() {
    // One optional positional subcommand, then declarative flags — the
    // shared `Cli` vocabulary (`--smoke`, `--jobs`) like every other
    // driver in this crate.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = if args.first().is_some_and(|a| !a.starts_with('-')) {
        args.remove(0)
    } else {
        "all".to_string()
    };
    let cli = sal_bench::Cli::new(
        "table1 [worst-case|no-abort|adaptive|space|fairness|amortized|all]",
        "regenerate Table 1 of the paper from measured RMR counts",
    )
    .flag(
        "--smoke",
        "CI-sized run: the amortized column only, reduced grid (still writes BENCH_table1.json)",
    )
    .opt(
        "--jobs",
        "k",
        "worker threads (0 = auto; SAL_JOBS honoured)",
    );
    let p = match cli.parse(args.into_iter()) {
        Ok(p) if p.help_requested() => {
            println!("{}", cli.usage());
            return;
        }
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli.usage());
            std::process::exit(2);
        }
    };
    let jobs = p.jobs().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if p.smoke() {
        amortized(jobs, true);
        return;
    }
    match sub.as_str() {
        "worst-case" => worst_case(jobs),
        "no-abort" => no_abort(jobs),
        "adaptive" => adaptive(jobs),
        "space" => space(jobs),
        "fairness" => fairness(jobs),
        "amortized" => amortized(jobs, false),
        "all" => {
            worst_case(jobs);
            no_abort(jobs);
            adaptive(jobs);
            space(jobs);
            fairness(jobs);
            amortized(jobs, false);
        }
        other => {
            eprintln!(
                "unknown experiment {other}; use \
                 worst-case|no-abort|adaptive|space|fairness|amortized|all"
            );
            std::process::exit(2);
        }
    }
}
