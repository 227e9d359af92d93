//! The benchmark of the sal stack: four seeded closed-loop workloads
//! over the three `sal-sync` surfaces and the simulator, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced run. See `README.md` next to this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod arena_zipf;
pub mod async_tasks;
pub mod layers;
pub mod measure;
pub mod mutex_pair;
pub mod sim_check;

use measure::{median, WindowReport};
use sal_obs::Json;
use std::time::Duration;

/// The end-to-end metrics every untraced run prints, in order.
pub const END_TO_END: &[&str] = &[
    "acquires_per_s",
    "enter_p50_ns",
    "enter_p99_ns",
    "ok_share",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run prints, in order.
pub const PER_LAYER: &[&str] = &[
    "sync.lock.ns_p50",
    "sync.lock.ns_p99",
    "sync.try_lock_for.ns_p50",
    "sync.lock_when.ns_p50",
    "sync.guard_drop.ns_p50",
    "sync.timeouts_per_1k",
    "sync.surface_self.ns",
    "ccs.waits",
    "ccs.wakeups",
    "ccs.futile_wakeups",
    "ccs.evaluated",
    "ccs.transitions",
    "long_lived.enter.ns_p50",
    "long_lived.exit.ns_p50",
    "long_lived.solo.enter.ns_p50",
    "long_lived.solo.exit.ns_p50",
    "long_lived.ops_per_passage",
    "long_lived.rmrs_per_passage",
    "long_lived.switches",
    "long_lived.switch_cas_failures",
    "long_lived.spin_waits",
    "one_shot.passage.ns",
    "one_shot.ops_per_passage",
    "tree.find_next.ns",
    "tree.remove.ns",
    "async.poll.ns_p50",
    "async.polls_per_acquire",
    "async.enter_wakeups",
    "async.futile_enter_wakeups",
    "async.futile_wake_ratio",
    "async.pid_waits",
    "async.cancelled_pending",
    "async.stalls",
    "executor.busy_share",
    "arena.lock.ns_p50.hot",
    "arena.lock.ns_p50.cold",
    "arena.try_lock.ns_p50",
    "arena.promotions",
    "arena.demotions",
    "arena.raced_promotions",
    "arena.fallback_spins",
    "arena.keys",
    "arena.built_cores",
    "memory.cc.ns_per_op",
    "memory.raw.ns_per_op",
    "sim.run_lock.s",
    "sim.ns_per_step",
    "sim.steps",
    "sim.total_rmrs",
    "sim.steps_per_s",
    "explore.runs",
    "explore.distinct_states",
    "explore.pruned",
    "explore.deduped",
    "explore.ns_per_run",
    "explore.states_per_s",
    "ref.std.acquires_per_s",
    "ref.std.enter_p50_ns",
    "ref.jj.acquires_per_s",
    "ref.jj.enter_p50_ns",
    "ref.tas.acquires_per_s",
    "ref.tas.enter_p50_ns",
    "trace.mutex_pair.overhead_ns",
    "trace.async_tasks.overhead_ns",
    "trace.arena_zipf.overhead_ns",
    "trace.sim_check.overhead_ns",
];

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two threads on one `AbortableMutex`.
    MutexPair,
    /// 256 tasks on two executor workers sharing one `AsyncAbortableMutex`.
    AsyncTasks,
    /// Two threads over a zipf-keyed `Arena`.
    ArenaZipf,
    /// The Table-1 amortized grid plus one DPOR exploration.
    SimCheck,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MutexPair,
        Workload::AsyncTasks,
        Workload::ArenaZipf,
        Workload::SimCheck,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MutexPair => "mutex_pair",
            Workload::AsyncTasks => "async_tasks",
            Workload::ArenaZipf => "arena_zipf",
            Workload::SimCheck => "sim_check",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What one workload run measured, untraced or traced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Median seconds of the repeated set-up.
    pub setup_s: f64,
    /// Timed set-up samples behind [`setup_s`](Self::setup_s).
    pub setup_reps: usize,
    /// Per-window throughput and latency.
    pub windows: WindowReport,
    /// Attempts made (lock attempts, or simulator cells).
    pub attempted: u64,
    /// Attempts unresolved at a stall, lost updates, leaks and
    /// reference mismatches.
    pub failed: u64,
    /// Wrong outputs found (lost updates, leaks, reference mismatches).
    pub problems: Vec<String>,
    /// Whether the stall watchdog ended the run.
    pub stalled: bool,
    /// Diagnostics worth printing that are not wrong outputs.
    pub notes: Vec<String>,
    /// Layer metrics gathered by a traced run (empty when untraced).
    pub layers: Vec<Metric>,
}

impl RunResult {
    /// Median enter-latency p50 over windows.
    pub fn p50(&self) -> f64 {
        median(&self.windows.p50)
    }

    /// Record a wrong output: it fails `count` attempts.
    pub fn problem(&mut self, count: u64, msg: String) {
        self.failed += count.max(1);
        self.problems.push(msg);
    }

    /// What makes a run of this workload incorrect: its wrong outputs,
    /// and a stall, since a stalled run did not do the work its figures
    /// are meant to measure.
    pub fn failures(&self) -> Vec<String> {
        let mut out = self.problems.clone();
        if self.stalled {
            out.push(format!(
                "stalled: no attempt resolved for {} s; {} of {} attempts failed",
                measure::STALL_WINDOW.as_secs(),
                self.failed,
                self.attempted
            ));
        }
        out
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let w = &self.windows;
        let windows = w.acquires_per_s.len() as u64;
        vec![
            metric("acquires_per_s", median(&w.acquires_per_s), "1/s", windows),
            metric("enter_p50_ns", median(&w.p50), "ns", w.samples),
            metric("enter_p99_ns", median(&w.p99), "ns", w.samples),
            metric(
                "ok_share",
                1.0 - self.failed as f64 / self.attempted.max(1) as f64,
                "share",
                self.attempted,
            ),
            metric("setup_s", self.setup_s, "s", self.setup_reps as u64),
            metric("peak_rss_mb", measure::peak_rss_mb(), "MiB", 1),
        ]
    }
}

/// Command-line options of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed, duration, and whether this is the traced run.
    pub run: RunConfig,
}

fn floats(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Float(x)).collect())
}

/// Everything a run prints and saves.
#[derive(Debug)]
pub struct Report {
    /// The options that produced it.
    pub options: Options,
    /// Whether every output check passed.
    pub correct: bool,
    /// Attempts made.
    pub attempted: u64,
    /// Attempts failed.
    pub failed: u64,
    /// Metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Wrong outputs found.
    pub problems: Vec<String>,
    /// Whether a stall ended a measured run.
    pub stalled: bool,
    /// Diagnostics (stall states).
    pub notes: Vec<String>,
    /// Per-window figures of an untraced run.
    pub windows: WindowReport,
}

/// One run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Record per-layer spans and counters.
    pub trace: bool,
}

/// Run one workload once.
pub fn run_workload(workload: Workload, cfg: RunConfig) -> RunResult {
    match workload {
        Workload::MutexPair => mutex_pair::run(cfg),
        Workload::AsyncTasks => async_tasks::run(cfg),
        Workload::ArenaZipf => arena_zipf::run(cfg),
        Workload::SimCheck => sim_check::run(cfg),
    }
}

/// Execute `options` and build the report.
pub fn execute(options: &Options) -> Report {
    let (counted, others, metrics) = if options.run.trace {
        layers::traced_suite(options.workload, options.run.seed, options.run.seconds)
    } else {
        let r = run_workload(options.workload, options.run);
        let m = r.end_to_end();
        (vec![r], Vec::new(), m)
    };
    Report::new(*options, &counted, &others, metrics)
}

impl Report {
    /// Judge the runs behind `metrics`. The `counted` runs (the named
    /// workload's, and in a traced run the single-layer probes') give
    /// the attempts, and any wrong output or stall among them makes the
    /// report incorrect. The `others` (the rest of a traced suite) are
    /// judged on wrong outputs only: their stalls are reported as notes
    /// and in `async.stalls`, and fail only their own workload's runs.
    pub fn new(
        options: Options,
        counted: &[RunResult],
        others: &[RunResult],
        metrics: Vec<Metric>,
    ) -> Report {
        let all = || counted.iter().chain(others);
        let mut problems: Vec<String> = counted.iter().flat_map(RunResult::failures).collect();
        problems.extend(others.iter().flat_map(|r| r.problems.clone()));
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            problems.push(format!("{} was not measured", m.name));
        }
        let windows = match counted {
            [r] if !options.run.trace => r.windows.clone(),
            _ => WindowReport::default(),
        };
        Report {
            options,
            correct: problems.is_empty(),
            attempted: counted.iter().map(|r| r.attempted).sum::<u64>().max(1),
            failed: counted.iter().map(|r| r.failed).sum(),
            metrics: metrics
                .into_iter()
                .map(|m| {
                    if m.value.is_finite() {
                        m
                    } else {
                        Metric { value: 0.0, ..m }
                    }
                })
                .collect(),
            problems,
            stalled: all().any(|r| r.stalled),
            notes: all().flat_map(|r| r.notes.clone()).collect(),
            windows,
        }
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The result file: the summary plus provenance and sample counts.
    pub fn full_json(&self) -> Json {
        let (o, r) = (&self.options, &self.options.run);
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), Json::Int(m.samples as i64)))
            .collect();
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        Json::obj(vec![
            ("result", self.summary_json()),
            ("samples", Json::Obj(samples)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("stalled", Json::Bool(self.stalled)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            (
                "windows",
                Json::obj(vec![
                    ("acquires_per_s", floats(&self.windows.acquires_per_s)),
                    ("enter_p50_ns", floats(&self.windows.p50)),
                    ("enter_p99_ns", floats(&self.windows.p99)),
                    ("late_samples", Json::Int(self.windows.late as i64)),
                ]),
            ),
            ("workload", Json::Str(o.workload.name().into())),
            ("seed", Json::Int(r.seed as i64)),
            ("seconds", Json::Float(r.seconds.as_secs_f64())),
            ("trace", Json::Bool(r.trace)),
            ("git_rev", Json::Str(env!("PERFBENCH_GIT_REV").into())),
            ("rustc", Json::Str(env!("PERFBENCH_RUSTC").into())),
            ("available_parallelism", Json::Int(parallelism as i64)),
        ])
    }

    /// Human-readable lines: one per metric, with unit and samples.
    pub fn lines(&self) -> Vec<String> {
        let (o, r) = (&self.options, &self.options.run);
        let mut out = vec![format!(
            "workload {} seed {} seconds {} trace {}: attempted {} failed {} correct {}{}",
            o.workload.name(),
            r.seed,
            r.seconds.as_secs_f64(),
            u8::from(r.trace),
            self.attempted,
            self.failed,
            self.correct,
            if self.stalled { " (stalled)" } else { "" }
        )];
        out.extend(self.problems.iter().map(|p| format!("  problem: {p}")));
        out.extend(self.notes.iter().map(|n| format!("  note: {n}")));
        out.extend(self.metrics.iter().map(|m| {
            format!(
                "  {:<32} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            )
        }));
        out
    }
}
