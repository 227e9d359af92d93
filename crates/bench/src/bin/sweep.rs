//! Ad-hoc experiment CLI: run any lock × workload × schedule combination
//! and print the measured RMR statistics.
//!
//! ```text
//! cargo run --release -p sal-bench --bin sweep -- \
//!     --lock one-shot --b 16 --n 64 --aborters 10 --passages 1 \
//!     --seed 42 --policy random --cs-ops 2
//! ```
//!
//! Locks: every registry kind (`--lock` with a wrong name lists them
//! all, `jj-amortized` included). Policies: `random`, `round-robin`,
//! `bursty`.
//!
//! `--seeds a,b,c` runs the same configuration once per seed — fanned
//! out over the work-stealing pool (`--jobs N` / `SAL_JOBS`) and
//! gathered in seed order — printing one row per seed plus an
//! aggregate, so the output is identical at any worker count.
//!
//! `--strategy bfs|dpor|best-first|fuzz` switches from sampled
//! schedules to *guided search*: the same cell is explored under the
//! chosen strategy (ignoring `--policy`/`--seeds`) and the worst
//! schedule found is reported — keep `--n` small, the schedule space
//! is exponential.

use sal_bench::{build_lock, par_grid, ExploreCell, LockKind, Table};
use sal_runtime::{
    explore_guided, run_lock, run_one_shot, BurstySchedule, ExploreOptions, ProcPlan,
    RandomSchedule, RoundRobin, SchedulePolicy, Strategy, WorkloadSpec,
};

#[derive(Debug)]
struct Args {
    lock: String,
    b: usize,
    n: usize,
    aborters: usize,
    abort_after: u64,
    passages: usize,
    seed: u64,
    seeds: Vec<u64>,
    policy: String,
    cs_ops: usize,
    jobs: usize,
    lease: u64,
    strategy: Option<Strategy>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            lock: "one-shot".into(),
            b: 16,
            n: 16,
            aborters: 0,
            abort_after: 64,
            passages: 1,
            seed: 1,
            seeds: Vec::new(),
            policy: "random".into(),
            cs_ops: 2,
            jobs: 0,
            lease: sal_runtime::default_lease(),
            strategy: None,
        }
    }
}

fn cli() -> sal_bench::Cli {
    sal_bench::Cli::new(
        "sweep",
        "run one lock/workload/schedule combination under exact RMR accounting",
    )
    .opt(
        "--lock",
        "kind",
        "any registry kind, e.g. one-shot | long-lived | mcs | tournament | scott | lee | \
         jj-amortized (a wrong name lists them all)",
    )
    .opt(
        "--b",
        "2..=64",
        "tree branching factor for the paper's locks (default 16)",
    )
    .opt("--n", "procs", "number of processes (default 16)")
    .opt(
        "--aborters",
        "k",
        "how many processes play the aborter role (default 0)",
    )
    .opt(
        "--abort-after",
        "s",
        "abort after waiting this many global steps (default 64)",
    )
    .opt(
        "--passages",
        "k",
        "passages per process (forced to 1 for one-shot locks)",
    )
    .opt("--seed", "u64", "schedule seed (default 1)")
    .opt(
        "--seeds",
        "a,b,c",
        "run once per seed in parallel; one row per seed + aggregate",
    )
    .opt(
        "--policy",
        "p",
        "random | round-robin | bursty (default random)",
    )
    .opt("--cs-ops", "k", "shared ops inside the CS (default 2)")
    .opt(
        "--jobs",
        "k",
        "worker threads for --seeds fan-out (0 = auto; SAL_JOBS honoured)",
    )
    .lease_opt()
    .strategy_opt()
}

fn parse() -> Result<Args, String> {
    let p = cli().parse_env_or_exit();
    let mut args = Args::default();
    if let Some(lock) = p.lock() {
        args.lock = lock.to_string();
    }
    args.b = p.get_or("--b", args.b)?;
    args.n = p.get_or("--n", args.n)?;
    args.aborters = p.get_or("--aborters", args.aborters)?;
    args.abort_after = p.get_or("--abort-after", args.abort_after)?;
    args.passages = p.get_or("--passages", args.passages)?;
    args.seed = p.get_or("--seed", args.seed)?;
    if let Some(seeds) = p.seeds()? {
        args.seeds = seeds;
    }
    if let Some(policy) = p.value("--policy") {
        args.policy = policy.to_string();
    }
    args.cs_ops = p.get_or("--cs-ops", args.cs_ops)?;
    args.jobs = p.get_or("--jobs", args.jobs)?;
    args.lease = p.lease()?;
    args.strategy = p.strategy()?;
    Ok(args)
}

fn policy(args: &Args, seed: u64) -> Result<Box<dyn SchedulePolicy>, String> {
    Ok(match args.policy.as_str() {
        "random" => Box::new(RandomSchedule::seeded(seed)),
        "round-robin" => Box::new(RoundRobin::new()),
        "bursty" => Box::new(BurstySchedule::seeded(seed, 0.9)),
        other => return Err(format!("unknown policy {other}")),
    })
}

/// The per-seed metrics a multi-seed sweep reports.
struct SeedPoint {
    seed: u64,
    steps: u64,
    entered: usize,
    aborted: usize,
    max_entered_rmrs: u64,
    mean_entered_rmrs: f64,
    max_aborted_rmrs: u64,
    mutex_ok: bool,
}

/// Run one (lock, workload, seed) cell and extract the row metrics.
fn run_seed(kind: LockKind, args: &Args, seed: u64) -> Result<SeedPoint, String> {
    let passages = if kind.one_shot() { 1 } else { args.passages };
    let mut plans = vec![ProcPlan::normal(passages); args.n - args.aborters];
    plans.extend(vec![
        ProcPlan::aborter(passages, args.abort_after);
        args.aborters
    ]);
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, args.n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: args.cs_ops,
        max_steps: 200_000_000,
        lease: args.lease,
    };
    let pol = policy(args, seed)?;
    let report = if kind.one_shot() {
        run_one_shot(&*built.lock, &built.mem, built.cs_word, &spec, pol)
    } else {
        run_lock(&*built.lock, &built.mem, built.cs_word, &spec, pol)
    }
    .map_err(|e| e.to_string())?;
    Ok(SeedPoint {
        seed,
        steps: report.steps,
        entered: report.total_entered(),
        aborted: attempts - report.total_entered(),
        max_entered_rmrs: report.max_entered_rmrs(),
        mean_entered_rmrs: report.mean_entered_rmrs(),
        max_aborted_rmrs: report.max_aborted_rmrs(),
        mutex_ok: report.mutex_check.is_ok(),
    })
}

/// `--seeds a,b,c`: one simulation per seed on the pool, gathered in
/// seed-list order.
fn multi_seed(kind: LockKind, args: &Args) {
    let points = par_grid(args.jobs, &args.seeds, |&seed| run_seed(kind, args, seed));
    let mut t = Table::new(
        format!(
            "{} | N={} aborters={} policy={} | {} seeds",
            kind.label(),
            args.n,
            args.aborters,
            args.policy,
            args.seeds.len()
        ),
        &[
            "seed",
            "steps",
            "entered",
            "aborted",
            "max RMRs",
            "mean RMRs",
            "max aborted RMRs",
            "mutex",
        ],
    );
    let mut maxima = Vec::new();
    for point in points {
        let p = match point {
            Ok(p) => p,
            Err(e) => {
                eprintln!("simulation failed: {e}");
                std::process::exit(1);
            }
        };
        t.row(vec![
            p.seed.to_string(),
            p.steps.to_string(),
            p.entered.to_string(),
            p.aborted.to_string(),
            p.max_entered_rmrs.to_string(),
            format!("{:.2}", p.mean_entered_rmrs),
            p.max_aborted_rmrs.to_string(),
            if p.mutex_ok {
                "held".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        maxima.push(p.max_entered_rmrs);
    }
    t.print();
    if let Some(summary) = sal_bench::report::RmrSummary::of(&maxima) {
        println!("aggregate max-RMRs-per-seed: {}", summary.render());
    }
}

/// `--strategy`: explore schedules for the configured cell instead of
/// sampling them, and report the worst one found. The same cell fields
/// (`--lock --b --n --aborters --abort-after --passages --cs-ops
/// --lease`) define the workload; the strategy defines the search.
fn guided(kind: LockKind, args: &Args, strategy: Strategy) {
    let cell = ExploreCell {
        kind,
        n: args.n,
        aborters: args.aborters,
        abort_after: args.abort_after,
        passages: args.passages,
        cs_ops: args.cs_ops,
        max_steps: 200_000,
        lease: args.lease,
    };
    let opts = ExploreOptions {
        jobs: args.jobs,
        ..ExploreOptions::default()
    };
    let result = explore_guided(&opts, strategy, |policy| cell.guided_run(policy));
    let mut t = Table::new(
        format!(
            "sweep --strategy {} | {} N={} aborters={} lease={}",
            strategy.label(),
            kind.label(),
            args.n,
            args.aborters,
            args.lease
        ),
        &["metric", "value"],
    );
    t.row(vec!["schedules executed".into(), result.runs.to_string()]);
    t.row(vec![
        "worst max RMRs/passage found".into(),
        result.best_cost.to_string(),
    ]);
    t.row(vec![
        "truncated (unexecuted prefixes)".into(),
        result.truncated_runs.to_string(),
    ]);
    t.row(vec![
        "verdict".into(),
        match &result.violation {
            None => "all explored schedules safe".into(),
            Some((_, msg)) => format!("VIOLATION: {msg}"),
        },
    ]);
    t.print();
    if let Some(rec) = result.violation_recording() {
        println!("witness recording (replayable): {}", rec.serialize());
        std::process::exit(1);
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // The FromStr path shared by sweep and explore, re-targeted to
    // the CLI branching factor.
    let kind = match args.lock.parse::<LockKind>() {
        Ok(k) => k.with_branching(args.b),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if !(2..=64).contains(&args.b) {
        eprintln!("error: --b must be in 2..=64 (got {})", args.b);
        std::process::exit(2);
    }
    if args.aborters >= args.n {
        eprintln!("error: --aborters must be < --n");
        std::process::exit(2);
    }
    if args.aborters > 0 && !kind.abortable() {
        eprintln!("error: {} is not abortable", kind.label());
        std::process::exit(2);
    }
    if let Some(strategy) = args.strategy {
        guided(kind, &args, strategy);
        return;
    }
    if !args.seeds.is_empty() {
        multi_seed(kind, &args);
        return;
    }
    let passages = if kind.one_shot() { 1 } else { args.passages };
    let mut plans = vec![ProcPlan::normal(passages); args.n - args.aborters];
    plans.extend(vec![
        ProcPlan::aborter(passages, args.abort_after);
        args.aborters
    ]);
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, args.n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: args.cs_ops,
        max_steps: 200_000_000,
        lease: args.lease,
    };
    let pol = match policy(&args, args.seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = if kind.one_shot() {
        run_one_shot(&*built.lock, &built.mem, built.cs_word, &spec, pol)
    } else {
        run_lock(&*built.lock, &built.mem, built.cs_word, &spec, pol)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            std::process::exit(1);
        }
    };
    let mut t = Table::new(
        format!(
            "{} | N={} aborters={} passages={passages} seed={} policy={}",
            kind.label(),
            args.n,
            args.aborters,
            args.seed,
            args.policy
        ),
        &["metric", "value"],
    );
    t.row(vec!["steps".into(), report.steps.to_string()]);
    t.row(vec![
        "entered passages".into(),
        report.total_entered().to_string(),
    ]);
    t.row(vec![
        "aborted attempts".into(),
        (attempts - report.total_entered()).to_string(),
    ]);
    t.row(vec![
        "max RMRs (complete passage)".into(),
        report.max_entered_rmrs().to_string(),
    ]);
    t.row(vec![
        "mean RMRs (complete passage)".into(),
        format!("{:.2}", report.mean_entered_rmrs()),
    ]);
    t.row(vec![
        "max RMRs (aborted attempt)".into(),
        report.max_aborted_rmrs().to_string(),
    ]);
    let entered_samples: Vec<u64> = report
        .passages
        .iter()
        .filter(|p| p.entered)
        .map(|p| p.rmrs)
        .collect();
    if let Some(summary) = sal_bench::report::RmrSummary::of(&entered_samples) {
        t.row(vec!["RMR distribution (entered)".into(), summary.render()]);
    }
    t.row(vec![
        "mutual exclusion".into(),
        if report.mutex_check.is_ok() {
            "held".into()
        } else {
            format!("{:?}", report.mutex_check)
        },
    ]);
    t.row(vec![
        "FCFS".into(),
        match (&report.fcfs_check, kind.one_shot()) {
            (Ok(()), true) => "held".into(),
            (Err(v), true) => format!("{v:?}"),
            _ => "n/a (not checked for long-lived locks)".into(),
        },
    ]);
    t.row(vec!["shared words".into(), built.words.to_string()]);
    t.print();
}
