#!/usr/bin/env bash
# Repo CI gate: release build, full test suite (debug + release, so the
# concurrency-sensitive stress tests run optimized too), lint-clean
# clippy, and warning-free docs. Run from the repo root. Fails fast on
# the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

# Real-thread sal-sync suites run under a time bound: a lost wakeup or a
# leaked lock then fails the gate instead of hanging it.
bounded() { timeout 300 "$@"; }

cargo build --release
cargo test -q
cargo test --release -q
# Parallel experiment engine: determinism across worker counts, and the
# scaling smoke (which itself asserts parallel output is byte-identical
# to the serial reference before reporting any timing).
SAL_JOBS=2 cargo test --release -q -p sal-bench --test parallel_determinism
cargo run --release -q -p sal-bench --bin expscale -- --smoke
# Step-lease scheduler: every artifact must be byte-identical at every
# lease cap. The suite sweeps caps internally; the SAL_LEASE runs also
# pin the *ambient* default (harness literals, sweep defaults) to the
# legacy per-step path and to a capped path. The simscale smoke asserts
# leased output matches the per-step reference before timing anything.
SAL_LEASE=1 cargo test --release -q -p sal-bench --test lease_determinism
SAL_LEASE=64 cargo test --release -q -p sal-bench --test lease_determinism
cargo run --release -q -p sal-bench --bin simscale -- --smoke
# One dispatch path: every kind driven through the registry's AnyLock
# must simulate identically to its concrete type, and the native
# hardware bench (writes target/experiments/BENCH_hwscale.json) must
# run.
cargo test --release -q -p sal-bench --test mono_equivalence
cargo run --release -q -p sal-bench --bin hwscale -- --smoke
# Conditional critical sections: the lock_when/await_when API and the
# deadline abort path on real threads, plus the wakeup-storm bench
# (writes target/experiments/BENCH_ccs.json; asserts evaluate <
# broadcast on prodcons and the per-cell invariants internally). The
# SAL_LEASE=1 run keeps the legacy per-step gate covered on the CCS
# suite too. wait_layer covers the pid-and-wait layer shared by all
# three surfaces (panicking predicates, wake after abort, pid reuse).
bounded cargo test --release -q -p sal-bench --test ccs_api --test deadline_locking --test wait_layer
SAL_LEASE=1 bounded cargo test --release -q -p sal-bench --test ccs_api
cargo run --release -q -p sal-bench --bin ccsscale -- --smoke
# Async surface: resumable enter core + AsyncAbortableMutex, where
# dropping a pending lock future runs the bounded abort. The harness
# cancels at every poll depth and the storm bench (writes
# target/experiments/BENCH_async.json) asserts the ≤300-op abort bound
# and zero leakage. Run under the default and the SAL_LEASE=1 legacy
# gate like the CCS suite. Unsafe code in the waker plumbing is held to
# clippy::undocumented_unsafe_blocks (enforced via the workspace lints
# through `cargo clippy -- -D warnings` below).
bounded cargo test --release -q -p sal-bench --test async_mutex --test async_cancellation
SAL_LEASE=1 bounded cargo test --release -q -p sal-bench --test async_mutex --test async_cancellation
cargo run --release -q -p sal-bench --bin asyncscale -- --smoke
# Keyed lock arena: the inline-word protocol is model-checked over
# every interleaving (arena_protocol), the public surface stressed on
# real threads (arena_api + the sal-sync unit suite), both under the
# default config and the SAL_LEASE=1 legacy gate. The arenascale smoke
# (writes target/experiments/BENCH_arena.json) asserts per-cell
# lost-update and zero-leak invariants internally; the greps below pin
# that the artifact actually records the resident-object bounds.
bounded cargo test --release -q -p sal-bench --test arena_protocol --test arena_api
SAL_LEASE=1 bounded cargo test --release -q -p sal-bench --test arena_protocol --test arena_api
bounded cargo test --release -q -p sal-sync arena
SAL_LEASE=1 bounded cargo test --release -q -p sal-sync arena
cargo run --release -q -p sal-bench --bin arenascale -- --smoke
grep -q '"max_built_cores_at_max_keys"' target/experiments/BENCH_arena.json
grep -q '"resident_bounded":true' target/experiments/BENCH_arena.json
# Guided schedule search: DPOR pruning and best-first must agree with
# exhaustive BFS on every verdict (and least canonical witness) — run
# the equivalence suite under the default and the SAL_LEASE=1 legacy
# gate, then the explorescale smoke (equivalence gate + states/sec
# grid + RMR witness hunt, writes target/experiments/BENCH_explore.json)
# and pin that the artifact records the acceptance verdict.
cargo test --release -q -p sal-bench --test systematic_exploration --test guided_search
SAL_LEASE=1 cargo test --release -q -p sal-bench --test systematic_exploration --test guided_search
cargo run --release -q -p sal-bench --bin explorescale -- --smoke
grep -q '"target_met":true' target/experiments/BENCH_explore.json
# Amortized accounting + the Jayanti–Jayanti constant-amortized lock:
# the aggregate must reconcile bit-exactly with the memory's RMR
# counters (amortized_accounting) and the cumulative bill must obey the
# debt ledger total ≤ c·passages + b (rmr_bounds) — under the default
# and the SAL_LEASE=1 legacy gate. The table1 smoke runs the M9
# amortized experiment (writes target/experiments/BENCH_table1.json);
# the greps pin that the artifact carries the measured amortized
# column and the acceptance verdict.
cargo test --release -q -p sal-bench --test amortized_accounting --test rmr_bounds
SAL_LEASE=1 cargo test --release -q -p sal-bench --test amortized_accounting --test rmr_bounds
cargo run --release -q -p sal-bench --bin table1 -- --smoke
grep -q '"amortized_rmrs"' target/experiments/BENCH_table1.json
grep -q '"target_met":true' target/experiments/BENCH_table1.json
# The benchmark package (its own workspace under perfbench/): its
# contract tests, then a short sim_check run, which compares the
# Table-1 grid, simulated step counts and DPOR counts against the
# committed perfbench/reference/exact.json — the byte-identity gate
# for every simulator artifact.
cargo test --release -q --manifest-path perfbench/Cargo.toml
sim_check=$(cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload sim_check --seed 1 --seconds 3 --trace 0)
grep -q '"correct":true' <<<"$sim_check"
# A short arena_zipf run on real threads: lost updates on the 4096
# checked keys and any core left resident after the run make it print
# "correct":false.
arena_zipf=$(bounded cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
    --workload arena_zipf --seed 1 --seconds 2 --trace 0)
grep -q '"correct":true' <<<"$arena_zipf"
cargo fmt --check
cargo clippy -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
