//! Differential test for registry dispatch: driving a lock through the
//! registry's [`AnyLock`] (the one lock type `table1`, `figures`,
//! `sweep` and `explore` run) and through its concrete type
//! must produce **identical** simulations — same passage records, same
//! RMR totals, same step count, same event log — on scripted schedules
//! and on seeded random sweeps, for every lock kind in the workspace.
//! Test names read `<kind>_mono_equals_dyn`: "mono" is the concrete
//! type, "dyn" the kind picked at run time through `AnyLock`.
//!
//! This is the contract that lets every registry caller stand in for
//! the algorithm itself: `AnyLock` only forwards, so no lock can behave
//! differently depending on how it is dispatched.

use sal_baselines::{LeeLock, McsLock, ScottLock, TasLock, TicketLock, TournamentLock};
use sal_bench::{AnyLock, LockKind};
use sal_core::long_lived::{BoundedLongLivedLock, JjLock, SimpleLongLivedLock};
use sal_core::one_shot::{DsmOneShotLock, OneShotLock};
use sal_core::LockCore;
use sal_memory::{CcMemory, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{NoProbe, PassageStats};
use sal_runtime::{
    run_lock, run_one_shot, ProcPlan, RandomSchedule, RoundRobin, SchedulePolicy, Scripted,
    SteppedMem, WorkloadReport, WorkloadSpec,
};

type Policy<'p> = &'p dyn Fn() -> Box<dyn SchedulePolicy>;

/// Lay a lock out with `make` and run `spec` on it, recording doorway
/// tickets for the one-shot kinds.
fn run<L>(
    make: impl Fn(&mut MemoryBuilder, usize) -> L,
    n: usize,
    spec: &WorkloadSpec,
    policy: Policy,
    one_shot: bool,
) -> (WorkloadReport, CcMemory)
where
    L: for<'a> LockCore<SteppedMem<'a, CcMemory>, (PassageStats, NoProbe)>,
{
    let mut b = MemoryBuilder::new();
    let lock = make(&mut b, n);
    let cs_word: WordId = b.alloc(0);
    let mem = b.build_cc(n);
    let report = if one_shot {
        run_one_shot(&lock, &mem, cs_word, spec, policy())
    } else {
        run_lock(&lock, &mem, cs_word, spec, policy())
    }
    .expect("simulation failed");
    (report, mem)
}

fn assert_reports_equal(label: &str, mono: &WorkloadReport, dynr: &WorkloadReport) {
    assert_eq!(mono.passages, dynr.passages, "{label}: passage records");
    assert_eq!(mono.steps, dynr.steps, "{label}: step counts");
    assert_eq!(
        mono.outcomes, dynr.outcomes,
        "{label}: per-process outcomes"
    );
    assert_eq!(mono.events, dynr.events, "{label}: event logs");
    assert_eq!(
        mono.mutex_check.is_ok(),
        dynr.mutex_check.is_ok(),
        "{label}: mutex verdicts"
    );
    assert_eq!(
        mono.fcfs_check.is_ok(),
        dynr.fcfs_check.is_ok(),
        "{label}: fcfs verdicts"
    );
    assert!(mono.mutex_check.is_ok(), "{label}: mutual exclusion");
}

/// Run the same (layout, workload, schedule) on the concrete lock
/// `make` builds and on `kind` laid out through [`AnyLock`] (budgeted
/// for every attempt in `spec`), and require identical reports. Fresh
/// lock + memory per run: the runs share nothing but the recipe.
fn check<L>(
    label: &str,
    kind: LockKind,
    make: impl Fn(&mut MemoryBuilder, usize) -> L,
    n: usize,
    spec: &WorkloadSpec,
    policy: Policy,
) where
    L: for<'a> LockCore<SteppedMem<'a, CcMemory>, (PassageStats, NoProbe)>,
{
    let attempts = spec.plans.iter().map(|p| p.passages).sum();
    let one_shot = kind.one_shot();
    let (mono, mono_mem) = run(make, n, spec, policy, one_shot);
    let any = |b: &mut MemoryBuilder, n| AnyLock::layout(kind, b, n, attempts);
    let (dynr, dyn_mem) = run(any, n, spec, policy, one_shot);

    assert_reports_equal(label, &mono, &dynr);
    // The raw memory accounting agrees too, not just the probe's view.
    assert_eq!(
        mono_mem.total_rmrs(),
        dyn_mem.total_rmrs(),
        "{label}: total RMRs"
    );
    for p in 0..n {
        assert_eq!(
            mono_mem.ops(p),
            dyn_mem.ops(p),
            "{label}: ops of process {p}"
        );
    }
}

/// A mixed workload: some processes abort after a deadline, the rest
/// run clean passages.
fn mixed_spec(n: usize, passages: usize) -> WorkloadSpec {
    let mut plans = vec![ProcPlan::normal(passages); n];
    for p in plans.iter_mut().skip(1).step_by(3) {
        *p = ProcPlan::aborter(passages, 6 * n as u64);
    }
    WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 20_000_000,
        lease: sal_runtime::default_lease(),
    }
}

/// A short scripted prefix exercising a specific interleaving before
/// falling back to round-robin: process 0 runs ahead, then the rest
/// are dealt in in reverse order.
fn scripted(n: usize) -> Box<dyn SchedulePolicy> {
    let mut script: Vec<Pid> = vec![0; 12];
    script.extend((0..n).rev());
    script.extend(0..n);
    Box::new(Scripted::new(script, Box::new(RoundRobin::new())))
}

fn seeds() -> impl Iterator<Item = u64> {
    [3, 17, 1984].into_iter()
}

/// Every long-lived kind, on a scripted schedule and a seeded sweep.
macro_rules! long_lived_case {
    ($test:ident, $kind:expr, $make:expr, $n:expr, $passages:expr) => {
        #[test]
        fn $test() {
            let n = $n;
            let spec = mixed_spec(n, $passages);
            check(
                concat!(stringify!($test), "/scripted"),
                $kind,
                $make,
                n,
                &spec,
                &|| scripted(n),
            );
            for seed in seeds() {
                check(
                    &format!(concat!(stringify!($test), "/seed{}"), seed),
                    $kind,
                    $make,
                    n,
                    &spec,
                    &|| Box::new(RandomSchedule::seeded(seed)),
                );
            }
        }
    };
}

long_lived_case!(
    bounded_long_lived_mono_equals_dyn,
    LockKind::LongLived { b: 4 },
    |b, n| BoundedLongLivedLock::layout(b, n, 4),
    6,
    2
);
long_lived_case!(
    simple_long_lived_mono_equals_dyn,
    LockKind::LongLivedSimple { b: 4 },
    |b, n| SimpleLongLivedLock::layout(b, n, 4, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(
    tournament_mono_equals_dyn,
    LockKind::Tournament,
    TournamentLock::layout,
    6,
    2
);
long_lived_case!(
    tas_mono_equals_dyn,
    LockKind::Tas,
    |b, _n| TasLock::layout(b),
    4,
    2
);
long_lived_case!(
    scott_mono_equals_dyn,
    LockKind::Scott,
    |b, n| ScottLock::layout(b, n, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(
    lee_mono_equals_dyn,
    LockKind::Lee,
    |b, n| LeeLock::layout(b, n, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(
    jj_mono_equals_dyn,
    LockKind::JjAmortized,
    JjLock::layout,
    6,
    2
);

/// The non-abortable classics run the no-abort flavour of the same
/// differential check.
#[test]
fn classic_locks_mono_equals_dyn() {
    let n = 5;
    let spec = WorkloadSpec::uniform(n, 3);
    let ticket = |b: &mut MemoryBuilder, _n| TicketLock::layout(b);
    check(
        "mcs/scripted",
        LockKind::Mcs,
        McsLock::layout,
        n,
        &spec,
        &|| scripted(n),
    );
    check(
        "ticket/scripted",
        LockKind::Ticket,
        ticket,
        n,
        &spec,
        &|| scripted(n),
    );
    for seed in seeds() {
        let random = || -> Box<dyn SchedulePolicy> { Box::new(RandomSchedule::seeded(seed)) };
        let label = format!("mcs/seed{seed}");
        check(&label, LockKind::Mcs, McsLock::layout, n, &spec, &random);
        let label = format!("ticket/seed{seed}");
        check(&label, LockKind::Ticket, ticket, n, &spec, &random);
    }
}

/// The one-shot locks (single passage per process, FCFS doorway
/// tickets recorded on both paths).
#[test]
fn one_shot_locks_mono_equals_dyn() {
    let n = 8;
    let spec = mixed_spec(n, 1);
    let one_shot = (LockKind::OneShot { b: 4 }, |b: &mut MemoryBuilder, n| {
        OneShotLock::layout(b, n, 4)
    });
    let dsm = (LockKind::OneShotDsm { b: 4 }, |b: &mut MemoryBuilder, n| {
        DsmOneShotLock::layout(b, n, 4)
    });
    check(
        "one-shot/scripted",
        one_shot.0,
        one_shot.1,
        n,
        &spec,
        &|| scripted(n),
    );
    check("one-shot-dsm/scripted", dsm.0, dsm.1, n, &spec, &|| {
        scripted(n)
    });
    for seed in seeds() {
        let random = || -> Box<dyn SchedulePolicy> { Box::new(RandomSchedule::seeded(seed)) };
        let label = format!("one-shot/seed{seed}");
        check(&label, one_shot.0, one_shot.1, n, &spec, &random);
        let label = format!("one-shot-dsm/seed{seed}");
        check(&label, dsm.0, dsm.1, n, &spec, &random);
    }
}
