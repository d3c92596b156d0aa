#!/usr/bin/env bash
# The checks enforced before merge (see CONTRIBUTING.md): formatting,
# lint-free clippy, a release build, and the full test suite — once on a
# debug build, then in release across the tabling × test-concurrency
# matrix, because answer tabling (GDP_TABLING) and the parallel audit
# layer must not change observable behaviour under either knob.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --release -- -D warnings

# Rustdoc with warnings denied: a deleted or private item must not leave
# a dangling intra-doc link behind in the public docs.
echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

# Examples: the fast ones run in release and must print what the verify
# skill and their paper sections promise — quickstart ends with the
# rumor model's violation, bridge_network finds the one violation of the
# widest world view, ocean_survey runs clean.
echo "==> examples"
example() { cargo run -q --release -p gdp --example "$1"; }
quickstart=$(example quickstart)
if [ "$(tail -n 1 <<<"$quickstart" | sed 's/^ *//')" != "omega'ERROR(two_capitals, missouri)" ]; then
    echo "quickstart does not end with omega'ERROR(two_capitals, missouri)"
    exit 1
fi
bridges=$(example bridge_network)
if ! grep -Fqx 'world view ["omega", "planning", "field_report"]: 1 violations' <<<"$bridges"; then
    echo "bridge_network does not report the widest world view's violation"
    exit 1
fi
example ocean_survey >/dev/null

# The serving benchmark (perfbench/) is a workspace of its own, so the
# build above never compiles it: build it the way perfbench/run.py does,
# into the same target directory, so a `gdp` API change cannot break it
# unnoticed, and run the benchmark's own unit tests.
echo "==> cargo build perfbench"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml
echo "==> perfbench unit tests"
python3 -m unittest discover -s perfbench -p 'test_*.py'

# The tier-1 configuration: the whole suite on an unoptimised build. Its
# stack frames are several times larger than an optimised build's, so a
# thread whose stack fits a release build's recursion (the solver's
# sub-solver levels) can still overflow here; every other leg is release.
echo "==> cargo test [debug]"
cargo test -q

# GDP_TABLING: unset = solver default (off), on = nominated predicates,
# all = every user predicate. RUST_TEST_THREADS=1 serializes the test
# binaries themselves — shaking out any test-order or shared-state
# assumptions the default parallel test runner would mask (and vice
# versa). The unset/default cell is the tier-1 configuration.
for tabling in unset on all; do
    for test_threads in default 1; do
        env_args=()
        label="tabling=$tabling"
        if [ "$tabling" != unset ]; then
            env_args+=("GDP_TABLING=$tabling")
        fi
        if [ "$test_threads" != default ]; then
            env_args+=("RUST_TEST_THREADS=$test_threads")
        fi
        echo "==> cargo test [$label, test-threads=$test_threads]"
        env "${env_args[@]}" cargo test -q --release --workspace
    done
done

# Observability legs: GDP_TRACE/GDP_PROFILE route every Specification
# query through the observed solver path, so the whole suite doubles as
# an equivalence check that tracing and profiling never change answers.
echo "==> cargo test [trace=1]"
env GDP_TRACE=1 cargo test -q --release --workspace
echo "==> cargo test [profile=1, tabling=on]"
env GDP_PROFILE=1 GDP_TABLING=on cargo test -q --release --workspace

# Indexing legs: GDP_INDEX=off disables hash and range candidate
# selection in every constructed Specification, so the whole suite
# doubles as an equivalence check that indexing never changes answers —
# crossed with tabling because the answer table consumes the same
# (indexed) enumeration order, and with GDP_CHAOS below so faults also
# land on unindexed scans. The dedicated equivalence suite additionally
# runs indexed-vs-unindexed twins in one process across a 1/4-worker,
# tabling on/off grid.
for tabling in unset on; do
    env_args=("GDP_INDEX=off")
    label="tabling=$tabling"
    if [ "$tabling" != unset ]; then
        env_args+=("GDP_TABLING=$tabling")
    fi
    echo "==> cargo test [GDP_INDEX=off, $label]"
    env "${env_args[@]}" cargo test -q --release --workspace
done
echo "==> cargo test index_equivalence [GDP_INDEX=off]"
env GDP_INDEX=off cargo test -q --release -p gdp --test index_equivalence
# The same suite with every predicate tabled: its tabled half then answers
# each range-bounded call from a completed answer set, so the replay its
# range indexes narrow (DESIGN.md #17) is diffed against the unindexed
# twin's full replay.
echo "==> cargo test index_equivalence [GDP_TABLING=all]"
env GDP_TABLING=all cargo test -q --release -p gdp --test index_equivalence

# SLG legs: the recursive-tabling suite (answer forest, fixpoint
# saturation, cycle policies, fault containment) re-run with tabling
# forced on for every user predicate and again on unindexed scans —
# recursive saturation consumes whatever enumeration order candidate
# selection produces, so the fixpoint must be order-independent.
for index in unset off; do
    env_args=("GDP_TABLING=all")
    if [ "$index" != unset ]; then
        env_args+=("GDP_INDEX=$index")
    fi
    echo "==> cargo test slg_equivalence [GDP_TABLING=all, index=$index]"
    env "${env_args[@]}" cargo test -q --release -p gdp --test slg_equivalence
done

# Chaos legs: GDP_CHAOS injects a deterministic fault (cancel / deadline
# / panic at a seed-derived port event) into every audit the harness's
# ambient-env test runs, which then asserts the degraded report is the
# fault-free audit restricted to the members that completed. Only the
# chaos harness runs here — it builds its own fault-free baselines; the
# rest of the suite asserts fault-free answers and is exercised by the
# matrix above. Seeds cover all three fault kinds (seed % 3) at scattered
# event depths, crossed with tabling off/on so faults also land on
# answer-table traffic.
for seed in 0 1 2 100 101 102 997; do
    for tabling in unset on; do
        env_args=("GDP_CHAOS=$seed")
        if [ "$tabling" != unset ]; then
            env_args+=("GDP_TABLING=$tabling")
        fi
        echo "==> cargo test chaos_harness [GDP_CHAOS=$seed, tabling=$tabling]"
        env "${env_args[@]}" cargo test -q --release -p gdp --test chaos_harness
    done
done

# Incremental legs: the delta-driven audit must match a full re-audit
# byte-for-byte. The equivalence suite switches incremental mode on
# itself, runs its own 1/4-worker grid and flips tabling per proptest
# case; the tabling matrix above runs it in every tabling configuration.
# These seed runs point chaos injection at `audit_incremental` itself:
# the degraded incremental report must restrict the fault-free audit
# exactly like the full audit's does.
for seed in 2 101; do
    echo "==> cargo test chaos incremental [GDP_CHAOS=$seed]"
    env "GDP_CHAOS=$seed" cargo test -q --release -p gdp --test chaos_harness \
        ambient_env_chaos_restriction_holds_incrementally
done

# Chaos × unindexed: faults injected while every call scans all clauses —
# the degraded-report restriction must hold on the slow path too.
for seed in 2 101; do
    echo "==> cargo test chaos unindexed [GDP_CHAOS=$seed, GDP_INDEX=off]"
    env "GDP_CHAOS=$seed" "GDP_INDEX=off" cargo test -q --release -p gdp --test chaos_harness
done

# Deadline smoke: a divergent audit member under an effectively unbounded
# step budget must be ended by the wall-clock deadline, quickly.
echo "==> deadline smoke test"
cargo test -q --release -p gdp --test chaos_harness deadline_bounds_a_divergent_audit_member

# Serving legs: the socket server drives N=4 concurrent reader sessions,
# each pinned to a different commit, against one writer streaming further
# commits over real TCP — every reader's answers must stay byte-identical
# to its sequential baseline. The store-level twin (snapshot_isolation)
# proves the same equivalence without sockets, crossed with tabling
# because pinned readers must surface snapshot table hits, not recompute.
echo "==> cargo test server_smoke"
cargo test -q --release -p gdp --test server_smoke
for tabling in unset on; do
    env_args=()
    if [ "$tabling" != unset ]; then
        env_args+=("GDP_TABLING=$tabling")
    fi
    echo "==> cargo test snapshot_isolation [tabling=$tabling]"
    env "${env_args[@]}" cargo test -q --release -p gdp --test snapshot_isolation
done

# Durability legs: crash-at-every-commit-boundary recovery over the
# DeltaOp write-ahead log, re-seeded through GDP_CHAOS (its leading
# integer steers the op stream) and crossed with tabling — recovery must
# neither depend on nor corrupt tabled state. The merge∘replay property
# suite rides along: merged committed deltas replayed onto a fresh base
# must equal direct application even with rollbacks between the commits.
for seed in unset 7 1986; do
    for tabling in unset on; do
        env_args=()
        if [ "$seed" != unset ]; then
            env_args+=("GDP_CHAOS=$seed")
        fi
        if [ "$tabling" != unset ]; then
            env_args+=("GDP_TABLING=$tabling")
        fi
        echo "==> cargo test wal_recovery [seed=$seed, tabling=$tabling]"
        env "${env_args[@]}" cargo test -q --release -p gdp --test wal_recovery
    done
done
echo "==> cargo test delta_merge_prop"
cargo test -q --release -p gdp --test delta_merge_prop

# Durable-codec legs: the WAL-record, WAL-header and checkpoint-image
# decoders read bytes off a disk, so their properties (exact round trips;
# mutated, truncated and count-inflated payloads never panic or
# over-allocate; only a sound current-version header opens a log) get a
# second, longer run than the suites above give them.
echo "==> cargo test durable_codec [PROPTEST_CASES=2048]"
env PROPTEST_CASES=2048 cargo test -q --release -p gdp --test durable_codec

# Selection-oracle leg: candidate selection and answer replay intersect
# every applicable hash and range selection, walking the smallest and
# probing the others (DESIGN.md #12); their positions must equal the
# reference's, which materialises and intersects every one of them, on
# random h/5 clause stores and calls, and the hash indexes' path keys (a
# patch's resolution, the time qualifier, the argument list's first and
# second elements) must prune only heads that cannot unify with the call,
# so both properties get a longer run.
echo "==> cargo test selection oracle [PROPTEST_CASES=2048]"
env PROPTEST_CASES=2048 cargo test -q --release -p gdp-engine --lib -- \
    selection_matches_the_materialised_reference \
    path_keys_prune_only_heads_that_cannot_unify

# Checkpointed-recovery legs: crash-safe checkpoints × injected disk
# faults × tabling. The in-file sweeps always run; a GDP_CHAOS io:
# value additionally arms a ChaosFile fault under every WAL and
# checkpoint write in the env-driven case (io:short/fsync/crash at a
# byte-or-sync trigger, io:SEED for a derived point). Crossed with
# tabling because recovery must neither depend on nor corrupt tabled
# state.
for chaos in unset io:short:31 io:fsync:2 io:crash:77 io:1986; do
    for tabling in unset on; do
        env_args=()
        if [ "$chaos" != unset ]; then
            env_args+=("GDP_CHAOS=$chaos")
        fi
        if [ "$tabling" != unset ]; then
            env_args+=("GDP_TABLING=$tabling")
        fi
        echo "==> cargo test checkpoint_recovery+io_faults [chaos=$chaos, tabling=$tabling]"
        env "${env_args[@]}" cargo test -q --release -p gdp \
            --test checkpoint_recovery --test io_faults
    done
done

# Hardened-serving legs: admission control turns extras away cleanly,
# idle sessions are reaped, lost connections tear down only their own
# session, and the drain smoke — the real gdp-serve binary SIGTERMed
# under four concurrent committing sessions — must exit 0 with a final
# checkpoint from which every acknowledged commit recovers.
echo "==> cargo test server_hardening (incl. SIGTERM drain smoke)"
cargo test -q --release -p gdp --test server_hardening

echo "ci: all checks passed"
