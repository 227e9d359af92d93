//! The benchmark's own contract: seeded inputs repeat, a stall ends in
//! failed attempts instead of a hang, and the metric names printed are
//! exactly the names `BENCHMARK.json` declares.

use sal_obs::Json;
use sal_perfbench::measure::STALL_WINDOW;
use sal_perfbench::{
    arena_zipf, async_tasks, execute, mutex_pair, sim_check, Options, Report, RunConfig, Workload,
    END_TO_END, PER_LAYER,
};
use std::time::{Duration, Instant};

#[test]
fn the_same_seed_yields_the_same_op_stream() {
    for seed in [0, 1, 0xdead_beef] {
        for worker in 0..3 {
            let a: Vec<_> = mutex_pair::Ops::new(seed, worker).take(2000).collect();
            assert_eq!(
                a,
                mutex_pair::Ops::new(seed, worker)
                    .take(2000)
                    .collect::<Vec<_>>()
            );
            assert_ne!(
                a,
                mutex_pair::Ops::new(seed + 1, worker)
                    .take(2000)
                    .collect::<Vec<_>>()
            );

            let a: Vec<_> = async_tasks::Ops::new(seed, worker).take(2000).collect();
            assert_eq!(
                a,
                async_tasks::Ops::new(seed, worker)
                    .take(2000)
                    .collect::<Vec<_>>()
            );
            assert_ne!(
                a,
                async_tasks::Ops::new(seed + 1, worker)
                    .take(2000)
                    .collect::<Vec<_>>()
            );

            let a = arena_zipf::stream(seed, worker, 2000);
            assert_eq!(a, arena_zipf::stream(seed, worker, 2000));
            assert_ne!(a, arena_zipf::stream(seed + 1, worker, 2000));
        }
        assert_eq!(sim_check::cell_order(seed), sim_check::cell_order(seed));
    }
    assert_ne!(sim_check::cell_order(1), sim_check::cell_order(2));
}

#[test]
fn the_op_mixes_follow_the_workload_definitions() {
    let ops: Vec<_> = mutex_pair::Ops::new(7, 0).take(160_000).collect();
    let share = |op| ops.iter().filter(|s| s.op == op).count() as f64 / ops.len() as f64;
    assert!((share(mutex_pair::Op::Lock) - 13.0 / 16.0).abs() < 0.01);
    assert!((share(mutex_pair::Op::TryLockFor) - 2.0 / 16.0).abs() < 0.01);
    assert!((share(mutex_pair::Op::LockWhen) - 1.0 / 16.0).abs() < 0.01);

    let keys = arena_zipf::stream(7, 0, 100_000);
    let hot = keys
        .iter()
        .filter(|s| u64::from(s.key) < arena_zipf::HOT)
        .count() as f64;
    assert!(keys.iter().all(|s| (s.key as usize) < arena_zipf::KEYS));
    let tries = keys.iter().filter(|s| s.try_lock).count() as f64 / keys.len() as f64;
    assert!((tries - 1.0 / 8.0).abs() < 0.01);
    // Rank 1 carries 1 / H(2^20, 1.1) of the mass, 12.37 %; the 64 hot
    // keys 49.38 %.
    let first = keys.iter().filter(|s| s.key == 0).count() as f64 / keys.len() as f64;
    assert!((first - 0.1237).abs() < 0.005, "share of key 0: {first}");
    assert!((hot / keys.len() as f64 - 0.4938).abs() < 0.01);
}

#[test]
fn an_injected_stall_becomes_failed_attempts_within_the_stall_window() {
    let start = Instant::now();
    let r = async_tasks::run_hogged(RunConfig {
        seed: 3,
        seconds: Duration::from_secs(60),
        trace: false,
    });
    let took = start.elapsed();
    assert!(r.stalled, "the watchdog must fire");
    // Every task but the hog is stuck in `lock()`; the hog holds the lock.
    assert_eq!(r.failed, async_tasks::TASKS as u64 + 1);
    assert!(
        r.problems.is_empty(),
        "a stall is a failure, not a wrong output"
    );
    // The hog holds the lock from the first poll on, so the watchdog
    // fires one stall window in and the woken tasks end at once.
    assert!(
        took < STALL_WINDOW * 2,
        "the run must end about one stall window after progress stops, took {took:?}"
    );
}

#[test]
fn a_stall_of_the_named_workload_makes_the_run_incorrect() {
    let run = RunConfig {
        seed: 4,
        seconds: Duration::from_secs(60),
        trace: false,
    };
    let start = Instant::now();
    let r = mutex_pair::run_hogged(run);
    let took = start.elapsed();
    assert!(r.stalled, "the watchdog must fire");
    // Both workers are stuck behind the hog when the watchdog fires.
    assert_eq!(r.failed, mutex_pair::THREADS as u64);
    assert!(
        took < STALL_WINDOW * 3,
        "the run must end soon after progress stops, took {took:?}"
    );
    // The windows after the stall count, without acquisitions.
    let e2e = r.end_to_end();
    assert_eq!(e2e[0].name, "acquires_per_s");
    assert_eq!(e2e[0].value, 0.0);
    let report = Report::new(
        Options {
            workload: Workload::MutexPair,
            run,
        },
        &[r],
        &[],
        e2e,
    );
    assert!(!report.correct, "a stall must fail the run");
    assert!(report.problems.iter().any(|p| p.starts_with("stalled")));
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    match json.get(section) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {section} list"),
    }
}

#[test]
fn declared_metric_and_workload_names_are_the_printed_ones() {
    assert_eq!(declared("end_to_end"), END_TO_END);
    assert_eq!(declared("per_layer"), PER_LAYER);
    for name in declared("workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }

    let run = RunConfig {
        seed: 5,
        seconds: Duration::from_millis(400),
        trace: false,
    };
    let untraced = execute(&Options {
        workload: Workload::MutexPair,
        run,
    });
    let names: Vec<_> = untraced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END);
    assert!(untraced.correct, "{:?}", untraced.problems);

    let traced = execute(&Options {
        workload: Workload::ArenaZipf,
        run: RunConfig { trace: true, ..run },
    });
    let names: Vec<_> = traced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, PER_LAYER);
    assert!(traced.correct, "{:?}", traced.problems);
    let summary = traced.summary_json();
    match summary.get("metrics") {
        Some(Json::Obj(pairs)) => assert_eq!(pairs.len(), PER_LAYER.len()),
        _ => panic!("summary without metrics"),
    }
}
