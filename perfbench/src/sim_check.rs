//! `sim_check`: the research user's loop on the simulator. Each
//! iteration runs
//!
//! * the Table-1 amortized grid — every registry kind × N ∈ {2, 4, 8},
//!   12 seeded schedules of 6 passages per process, half the crowd
//!   aborting — and
//! * one DPOR exploration of the bounded long-lived lock (B = 4, N = 3,
//!   one aborter, two passages, at most three deviations),
//!
//! on at most `min(2, nproc)` pool workers, and checks every output
//! against the exact reference in `reference/exact.json`. The seed
//! shuffles the order in which grid cells reach the pool; outputs do
//! not depend on it, so one reference serves every seed.
//!
//! Here an "acquisition" is a simulated passage (entered or aborted),
//! and the latency samples are host nanoseconds per simulated passage,
//! one per simulated run.

use crate::layers::{long_lived_exact, one_shot_exact, PassageCount};
use crate::measure::{median, ns, quantile_sorted, timed_setup, WindowReport};
use crate::{metric, RunConfig, RunResult};
use sal_bench::{build_lock, par_grid, ExploreCell, LockKind};
use sal_memory::Mem;
use sal_obs::{AmortizedStats, Json};
use sal_runtime::{
    default_lease, explore_guided, run_lock, run_one_shot, ExploreOptions, ProcPlan,
    RandomSchedule, SmallRng, Strategy, WorkloadSpec,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tree branching factor of the paper's locks in the grid.
pub const B: usize = 16;
/// Process counts of the grid.
pub const NS: [usize; 3] = [2, 4, 8];
/// Seeded schedules per grid cell.
pub const ROUNDS: usize = 12;
/// Passages per process in each schedule (one for one-shot kinds).
pub const PASSAGES: usize = 6;
/// Schedule seed of the first round; round `r` uses `SCHEDULE_SEED + r`.
pub const SCHEDULE_SEED: u64 = 42;
/// Fewest set-up repetitions behind `setup_s`.
const SETUP_REPS: usize = 5;

const REFERENCE: &str = include_str!("../reference/exact.json");

/// Exact outputs of one grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellExact {
    /// Lock label.
    pub lock: String,
    /// Processes.
    pub n: usize,
    /// Cumulative RMRs over all passages.
    pub total_rmrs: u64,
    /// Finalized passages.
    pub passages: u64,
    /// Entered passages.
    pub entered: u64,
    /// Aborted passages.
    pub aborted: u64,
    /// Largest single-passage RMR bill.
    pub max_passage_rmrs: u64,
    /// Simulated shared-memory steps.
    pub steps: u64,
}

/// Exact outputs of the DPOR exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreExact {
    /// Schedules executed.
    pub runs: u64,
    /// Distinct state fingerprints reached.
    pub distinct_states: u64,
    /// Children cut by the independence rule.
    pub pruned: u64,
    /// Runs not expanded because their final state was seen.
    pub deduped: u64,
    /// Prefixes dropped by the run budget.
    pub truncated_runs: u64,
    /// No violation found.
    pub safe: bool,
}

/// Every exact output the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exact {
    /// The Table-1 grid, in registry order.
    pub grid: Vec<CellExact>,
    /// The DPOR cell.
    pub explore: ExploreExact,
    /// Uncontended long-lived passages over `CcMemory`.
    pub long_lived: PassageCount,
    /// Uncontended one-shot passages over `CcMemory`.
    pub one_shot: PassageCount,
}

fn int(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("reference: missing integer {key}"))
}

impl PassageCount {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("ops", Json::Int(self.ops as i64)),
            ("rmrs", Json::Int(self.rmrs as i64)),
            ("passages", Json::Int(self.passages as i64)),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(PassageCount {
            ops: int(j, "ops")?,
            rmrs: int(j, "rmrs")?,
            passages: int(j, "passages")?,
        })
    }
}

impl Exact {
    /// Serialise (the format of `reference/exact.json`).
    pub fn to_json(&self) -> Json {
        let grid = self
            .grid
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("lock", Json::Str(c.lock.clone())),
                    ("n", Json::Int(c.n as i64)),
                    ("total_rmrs", Json::Int(c.total_rmrs as i64)),
                    ("passages", Json::Int(c.passages as i64)),
                    ("entered", Json::Int(c.entered as i64)),
                    ("aborted", Json::Int(c.aborted as i64)),
                    ("max_passage_rmrs", Json::Int(c.max_passage_rmrs as i64)),
                    ("steps", Json::Int(c.steps as i64)),
                ])
            })
            .collect();
        let e = &self.explore;
        Json::obj(vec![
            ("grid", Json::Arr(grid)),
            (
                "explore",
                Json::obj(vec![
                    ("runs", Json::Int(e.runs as i64)),
                    ("distinct_states", Json::Int(e.distinct_states as i64)),
                    ("pruned", Json::Int(e.pruned as i64)),
                    ("deduped", Json::Int(e.deduped as i64)),
                    ("truncated_runs", Json::Int(e.truncated_runs as i64)),
                    ("safe", Json::Bool(e.safe)),
                ]),
            ),
            ("long_lived", self.long_lived.to_json()),
            ("one_shot", self.one_shot.to_json()),
        ])
    }

    /// Parse the recorded reference.
    ///
    /// # Errors
    ///
    /// When the text is not a complete reference.
    pub fn parse(text: &str) -> Result<Exact, String> {
        let j = Json::parse(text)?;
        let grid = match j.get("grid") {
            Some(Json::Arr(cells)) => cells
                .iter()
                .map(|c| {
                    Ok(CellExact {
                        lock: c
                            .get("lock")
                            .and_then(Json::as_str)
                            .ok_or("reference: cell without lock")?
                            .to_string(),
                        n: int(c, "n")? as usize,
                        total_rmrs: int(c, "total_rmrs")?,
                        passages: int(c, "passages")?,
                        entered: int(c, "entered")?,
                        aborted: int(c, "aborted")?,
                        max_passage_rmrs: int(c, "max_passage_rmrs")?,
                        steps: int(c, "steps")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("reference: no grid".into()),
        };
        let e = j.get("explore").ok_or("reference: no explore")?;
        Ok(Exact {
            grid,
            explore: ExploreExact {
                runs: int(e, "runs")?,
                distinct_states: int(e, "distinct_states")?,
                pruned: int(e, "pruned")?,
                deduped: int(e, "deduped")?,
                truncated_runs: int(e, "truncated_runs")?,
                safe: e.get("safe") == Some(&Json::Bool(true)),
            },
            long_lived: PassageCount::from_json(
                j.get("long_lived").ok_or("reference: no long_lived")?,
            )?,
            one_shot: PassageCount::from_json(j.get("one_shot").ok_or("reference: no one_shot")?)?,
        })
    }

    /// The reference compiled into this binary.
    ///
    /// # Errors
    ///
    /// When `reference/exact.json` is missing or malformed.
    pub fn reference() -> Result<Exact, String> {
        Exact::parse(REFERENCE)
    }
}

/// The grid cells, in registry order.
pub fn cells() -> Vec<(LockKind, usize)> {
    LockKind::all(B)
        .into_iter()
        .flat_map(|k| NS.into_iter().map(move |n| (k, n)))
        .collect()
}

/// The grid cells in the order the seed deals them to the pool.
pub fn cell_order(seed: u64) -> Vec<(LockKind, usize)> {
    let mut order = cells();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    order
}

fn plans(kind: LockKind, n: usize) -> Vec<ProcPlan> {
    let aborters = if kind.abortable() {
        (n / 2).min(n - 2)
    } else {
        0
    };
    let per_proc = if kind.one_shot() { 1 } else { PASSAGES };
    let mut plans = vec![ProcPlan::normal(per_proc)];
    plans.extend(vec![ProcPlan::aborter(per_proc, 8 * n as u64); aborters]);
    plans.extend(vec![ProcPlan::normal(per_proc); n - 1 - aborters]);
    plans
}

fn attempts(kind: LockKind, n: usize) -> usize {
    plans(kind, n).iter().map(|p| p.passages).sum()
}

/// One grid cell as measured: exact outputs, checks, host time.
#[derive(Debug)]
pub struct CellRun {
    /// Exact outputs.
    pub exact: CellExact,
    /// Mutual exclusion held and probe totals matched the memory's
    /// ground truth in every round.
    pub safe: bool,
    /// Host seconds for the cell.
    pub secs: f64,
    /// Host ns per simulated passage, one per round.
    pub per_passage_ns: Vec<u32>,
}

/// Run one grid cell: `ROUNDS` seeded schedules, as the Table-1
/// amortized column (`sal_bench::amortized_sweep`) does, but also
/// keeping the simulated steps and each run's host time, which that
/// function does not report.
///
/// # Errors
///
/// A simulator error (step limit or a panicking process).
pub fn grid_cell(kind: LockKind, n: usize) -> Result<CellRun, String> {
    let start = Instant::now();
    let mut total = AmortizedStats::empty();
    let (mut steps, mut safe, mut samples) = (0, true, Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        let built = build_lock(kind, n, attempts(kind, n));
        let spec = WorkloadSpec {
            plans: plans(kind, n),
            cs_ops: 2,
            max_steps: 60_000_000,
            lease: default_lease(),
        };
        let schedule = Box::new(RandomSchedule::seeded(SCHEDULE_SEED + round as u64));
        let t = Instant::now();
        let report = if kind.one_shot() {
            run_one_shot(&*built.lock, &built.mem, built.cs_word, &spec, schedule)
        } else {
            run_lock(&*built.lock, &built.mem, built.cs_word, &spec, schedule)
        }
        .map_err(|e| format!("{} n={n}: {e}", kind.label()))?;
        let a = report.amortized();
        samples.push(ns(t, Instant::now()) / a.passages.max(1) as u32);
        safe &= report.mutex_check.is_ok() && a.total_rmrs == built.mem.total_rmrs();
        steps += report.steps;
        total.merge_from(&a);
    }
    Ok(CellRun {
        exact: CellExact {
            lock: kind.label(),
            n,
            total_rmrs: total.total_rmrs,
            passages: total.passages,
            entered: total.entered,
            aborted: total.aborted,
            max_passage_rmrs: total.max_passage_rmrs,
            steps,
        },
        safe,
        secs: start.elapsed().as_secs_f64(),
        per_passage_ns: samples,
    })
}

/// The DPOR cell.
pub fn explore_cell() -> ExploreCell {
    ExploreCell {
        aborters: 1,
        passages: 2,
        ..ExploreCell::new(LockKind::LongLived { b: 4 }, 3)
    }
}

/// Run the DPOR exploration on `jobs` workers; each run's host ns per
/// simulated passage goes to `samples`.
pub fn explore(jobs: usize, samples: &Mutex<Vec<u32>>) -> ExploreExact {
    let cell = explore_cell();
    let per_run = cell.attempts() as u32;
    let opts = ExploreOptions {
        max_deviations: 3,
        max_branch_depth: 120,
        jobs,
        ..ExploreOptions::default()
    };
    let r = explore_guided(&opts, Strategy::Dpor, |p| {
        let t = Instant::now();
        let out = cell.guided_run(p);
        let span = ns(t, Instant::now()) / per_run;
        samples.lock().expect("sample sink poisoned").push(span);
        out
    });
    ExploreExact {
        runs: r.runs as u64,
        distinct_states: r.distinct_states as u64,
        pruned: r.pruned as u64,
        deduped: r.deduped as u64,
        truncated_runs: r.truncated_runs as u64,
        safe: r.violation.is_none(),
    }
}

/// Pool workers: two, or fewer on a smaller host.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One full iteration, cells in `order`.
struct Iteration {
    cells: Vec<Result<CellRun, String>>,
    grid_secs: f64,
    explore: ExploreExact,
    explore_secs: f64,
    samples: Vec<u32>,
}

fn iterate(order: &[(LockKind, usize)], jobs: usize) -> Iteration {
    let t = Instant::now();
    let cells = par_grid(jobs, order, |&(k, n)| grid_cell(k, n));
    let grid_secs = t.elapsed().as_secs_f64();
    let sink = Mutex::new(Vec::new());
    let t = Instant::now();
    let explore = explore(jobs, &sink);
    let explore_secs = t.elapsed().as_secs_f64();
    let mut samples = sink.into_inner().expect("sample sink poisoned");
    for c in cells.iter().flatten() {
        samples.extend_from_slice(&c.per_passage_ns);
    }
    Iteration {
        cells,
        grid_secs,
        explore,
        explore_secs,
        samples,
    }
}

/// Compute every exact output once, serially ordered (for recording
/// `reference/exact.json`).
pub fn record() -> Result<Exact, String> {
    let it = iterate(&cells(), jobs());
    Ok(Exact {
        grid: it
            .cells
            .into_iter()
            .map(|c| c.map(|c| c.exact))
            .collect::<Result<_, _>>()?,
        explore: it.explore,
        long_lived: long_lived_exact(),
        one_shot: one_shot_exact(),
    })
}

/// Run `sim_check` for about `cfg.seconds` (at least one iteration).
pub fn run(cfg: RunConfig) -> RunResult {
    let jobs = jobs();
    let grid = cells();
    let (setup_s, setup_reps, _) = timed_setup(SETUP_REPS, || {
        let mut built: Vec<_> = grid
            .iter()
            .map(|&(k, n)| build_lock(k, n, attempts(k, n)))
            .collect();
        let cell = explore_cell();
        built.push(build_lock(cell.kind, cell.n, cell.attempts()));
        built
    });
    let mut r = RunResult {
        setup_s,
        setup_reps,
        ..RunResult::default()
    };
    let reference = match Exact::reference() {
        Ok(x) => Some(x),
        Err(e) => {
            r.problem(1, e);
            None
        }
    };

    // Exact per-passage counts of the layers the product runs on.
    r.attempted += 2;
    let (ll, os) = (long_lived_exact(), one_shot_exact());
    if let Some(x) = &reference {
        if ll != x.long_lived {
            r.problem(
                1,
                format!(
                    "long-lived passage counts {ll:?} != reference {:?}",
                    x.long_lived
                ),
            );
        }
        if os != x.one_shot {
            r.problem(
                1,
                format!(
                    "one-shot passage counts {os:?} != reference {:?}",
                    x.one_shot
                ),
            );
        }
    }

    let order = cell_order(cfg.seed);

    let until = Instant::now() + cfg.seconds;
    let mut w = WindowReport::default();
    let mut cell_secs = Vec::new();
    let (mut ns_per_step, mut steps_per_s, mut states_per_s, mut ns_per_run) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut rmrs, mut explored) = (0, 0, None);
    let mut iteration_secs = 0.0;
    // Whole iterations only: stop when another would end past `until`.
    while w.acquires_per_s.is_empty()
        || Instant::now() + Duration::from_secs_f64(iteration_secs / 2.0) < until
    {
        let t = Instant::now();
        let it = iterate(&order, jobs);
        iteration_secs = t.elapsed().as_secs_f64();
        r.attempted += it.cells.len() as u64 + 1;
        let mut passages = 0;
        for c in &it.cells {
            let c = match c {
                Ok(c) => c,
                Err(e) => {
                    r.problem(1, format!("sim_check cell failed: {e}"));
                    continue;
                }
            };
            passages += c.exact.passages;
            cell_secs.push(c.secs);
            let want = reference.as_ref().and_then(|x| {
                x.grid
                    .iter()
                    .find(|g| g.lock == c.exact.lock && g.n == c.exact.n)
            });
            if !c.safe {
                r.problem(1, format!("{} n={}: unsafe run", c.exact.lock, c.exact.n));
            } else if reference.is_some() && want != Some(&c.exact) {
                r.problem(1, format!("{:?} != reference {want:?}", c.exact));
            }
        }
        let e = it.explore;
        if reference.as_ref().is_some_and(|x| x.explore != e) || !e.safe {
            r.problem(1, format!("exploration {e:?} != reference"));
        }
        steps = it
            .cells
            .iter()
            .flatten()
            .map(|c| c.exact.steps)
            .sum::<u64>();
        rmrs = it
            .cells
            .iter()
            .flatten()
            .map(|c| c.exact.total_rmrs)
            .sum::<u64>();
        ns_per_step.push(it.grid_secs * 1e9 / steps.max(1) as f64);
        steps_per_s.push(steps as f64 / it.grid_secs);
        states_per_s.push(e.distinct_states as f64 / it.explore_secs);
        ns_per_run.push(it.explore_secs * 1e9 / e.runs.max(1) as f64);
        passages += e.runs * explore_cell().attempts() as u64;
        w.acquires_per_s
            .push(passages as f64 / (it.grid_secs + it.explore_secs));
        let mut s = it.samples;
        s.sort_unstable();
        w.samples += s.len() as u64;
        w.p50.push(quantile_sorted(&s, 0.5));
        w.p99.push(quantile_sorted(&s, 0.99));
        explored = Some(e);
    }
    r.windows = w;
    if cfg.trace {
        let e = explored.expect("at least one iteration");
        let iters = ns_per_step.len() as u64;
        r.layers = vec![
            metric(
                "sim.run_lock.s",
                median(&cell_secs),
                "s",
                cell_secs.len() as u64,
            ),
            metric("sim.ns_per_step", median(&ns_per_step), "ns", iters),
            metric("sim.steps", steps as f64, "count", 1),
            metric("sim.total_rmrs", rmrs as f64, "count", 1),
            metric("sim.steps_per_s", median(&steps_per_s), "1/s", iters),
            metric("explore.runs", e.runs as f64, "count", 1),
            metric(
                "explore.distinct_states",
                e.distinct_states as f64,
                "count",
                1,
            ),
            metric("explore.pruned", e.pruned as f64, "count", 1),
            metric("explore.deduped", e.deduped as f64, "count", 1),
            metric("explore.ns_per_run", median(&ns_per_run), "ns", iters),
            metric("explore.states_per_s", median(&states_per_s), "1/s", iters),
        ];
    }
    r
}
