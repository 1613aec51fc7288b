#!/usr/bin/env bash
# Repo-wide quality gate. Run from the repository root:
#
#     scripts/check.sh
#
# Gates, in order:
#   1. formatting        cargo fmt --all --check
#   2. lints             clippy with -D warnings on every target, plus a
#                        stricter pass over library code only that also
#                        denies unwrap()/expect() — panics in the
#                        reconstruction pipeline must be typed errors or
#                        documented invariant panics (tests may unwrap)
#   3. tests             release build, the facade crate's test binaries
#                        (tier-1), then every member crate's unit and
#                        doc tests
#   3b. benchmark build  benchmark/ (its own workspace, a path
#                        dependency on the facade) builds offline and
#                        its unit tests pass, so a facade API change
#                        that breaks the benchmark fails here and not
#                        as a failed benchmark run; nothing under
#                        benchmark/ is edited, the root target/ is
#                        shared
#   4. e2e smoke         domo-sink serve/replay/query over loopback TCP
#                        (exits nonzero unless every delivered packet is
#                        reconstructed and garbage frames are counted),
#                        plus the ingestion-throughput bench, which
#                        synthesizes a 100K-packet steady-state
#                        workload, gates batched ingest at ≥10% of
#                        decode throughput at 4 shards and ≥80% of the
#                        committed BENCH_sink.json, then refreshes it
#   5. estimator bench   domo-exp bench: fails if single-thread window
#                        throughput regressed >20% vs the committed
#                        BENCH_estimator.json, then refreshes the file
#   6. print hygiene     library crates must route diagnostics through
#                        domo-obs events, not println!/eprintln! (binaries
#                        under src/bin/ are exempt; comments ignored)
#   7. metrics overhead  domo-exp obsbench: compares estimator throughput
#                        with the recorder enabled vs disabled, fails if
#                        the disabled path costs >5%, refreshes
#                        BENCH_obs.json
#   8. crash recovery    domo-sink crashsmoke: spawns a durable serve
#                        child, SIGKILLs it mid-ingest, restarts it on
#                        the same data dir, and fails unless the
#                        recovered RANGE/PACKET state matches an
#                        uninterrupted run bit-for-bit with no
#                        double-emitted results
#   9. store bench       domo-exp storebench: fails if WAL append
#                        throughput at the default fsync interval policy
#                        regressed >20% vs the committed
#                        BENCH_store.json, then refreshes the file
#  10. chaos soak        domo-exp chaos --quick: spawns a durable serve
#                        child with an injected I/O fault storm plus a
#                        shard-worker panic, and fails unless the sink
#                        survives, degrades and heals without losing a
#                        packet, and recovers bit-identically after a
#                        SIGKILL
#  11. live queries      domo-sink subsmoke: live SUBSCRIBE streams must
#                        be exactly-once across a CHECKPOINT, a
#                        disconnect + REPLAY reconnect, and a NODE
#                        filter, and AGG quantiles must sit within the
#                        documented sketch error bound of an offline
#                        exact computation; then domo-exp querybench
#                        gates fan-out throughput vs the committed
#                        BENCH_query.json and refreshes the file
#  12. connection soak   domo-sink connsoak: 1000+ concurrent replay
#                        connections against one reactor-backed server;
#                        fails unless every packet is accounted for
#                        exactly (emitted + dropped == ingested, zero
#                        quarantine) and the --max-conns cap sheds
#                        over-cap connections as counted structured
#                        refusals
#  13. trace overhead    domo-exp tracebench: per-packet journey tracing
#                        must cost <=1% disabled and <=5% sampled at
#                        1/256, a fault-induced degrade must leave a
#                        parseable flight-*.jsonl post-mortem containing
#                        the triggering event, and the tracing-off
#                        pipeline throughput must sit within 20% of the
#                        committed BENCH_obs.json trace section, which
#                        it then refreshes
#  14. cluster           domo-exp clustersmoke: a 3-member × 2-tenant
#                        cluster of serve children must survive a
#                        mid-replay SIGKILL of its busiest member with
#                        exactly one failover, zero duplicates, and
#                        per-tenant reconstructions bit-identical to a
#                        single-process reference of the same
#                        placement; then domo-exp clusterbench gates
#                        router fan-out throughput at 1/2/4 members vs
#                        the committed BENCH_cluster.json and
#                        refreshes the file
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --workspace --lib (deny unwrap/expect in library code)"
cargo clippy --workspace --lib -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used

echo "==> cargo build --release --workspace"
# --workspace matters: the root manifest is both the workspace and the
# `domo` facade package, so a bare `cargo build` only builds the facade
# and the smoke/crashsmoke/chaos gates below would run stale (or
# missing) release binaries.
cargo build --release --workspace

echo "==> cargo test -q (tier-1)"
cargo test -q
# The root package's tests are the facade binaries only; the unit tests
# inside the member crates (the differential tests of the linear
# algebra, the solver, the sketches, …) run here.
cargo test --workspace -q

echo "==> benchmark/ builds offline against the facade, unit tests pass"
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR="$PWD/target" cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> domo-sink smoke (end-to-end over loopback TCP)"
./target/release/domo-sink smoke --nodes 9 --seed 7

echo "==> domo-sink bench (gates on BENCH_sink.json, then refreshes it)"
./target/release/domo-sink bench --nodes 16 --seed 7 --baseline BENCH_sink.json

echo "==> domo-exp bench (gates on BENCH_estimator.json, then refreshes it)"
./target/release/domo-exp bench --baseline BENCH_estimator.json

echo "==> print hygiene (library code must use domo-obs events)"
# Scan library sources only: everything under crates/*/src except the
# src/bin/ binaries. The bench and proptests helper crates are outside
# the workspace and exempt. Comment-only lines (e.g. doc examples that
# mention println!) are ignored.
viol="$(grep -rn --include='*.rs' -E '\b(println|eprintln)!' crates/*/src \
    | grep -v '/src/bin/' \
    | grep -v '^crates/bench/' \
    | grep -v '^crates/proptests/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    || true)"
if [ -n "$viol" ]; then
    echo "library code must emit domo-obs events, not println!/eprintln!:" >&2
    echo "$viol" >&2
    exit 1
fi

echo "==> domo-exp obsbench (metrics overhead gate, writes BENCH_obs.json)"
./target/release/domo-exp obsbench --max-delta 5

echo "==> domo-sink crashsmoke (SIGKILL + recovery over loopback TCP)"
./target/release/domo-sink crashsmoke --nodes 9 --seed 7

echo "==> domo-exp storebench (gates on BENCH_store.json, then refreshes it)"
./target/release/domo-exp storebench --baseline BENCH_store.json

echo "==> domo-exp chaos --quick (fault-storm survival soak)"
./target/release/domo-exp chaos --quick

echo "==> domo-sink subsmoke (exactly-once live subscriptions + AGG accuracy)"
./target/release/domo-sink subsmoke --nodes 16 --seed 7

echo "==> domo-exp querybench (gates on BENCH_query.json, then refreshes it)"
./target/release/domo-exp querybench --baseline BENCH_query.json

echo "==> domo-sink connsoak (1000+ concurrent connections, exact accounting)"
./target/release/domo-sink connsoak --nodes 16 --seed 7

echo "==> domo-exp tracebench (trace overhead + flight-dump gate, refreshes BENCH_obs.json)"
./target/release/domo-exp tracebench --baseline BENCH_obs.json

echo "==> domo-exp clustersmoke (3-member × 2-tenant failover, bit-identical recovery)"
./target/release/domo-exp clustersmoke --quick

echo "==> domo-exp clusterbench (gates on BENCH_cluster.json, then refreshes it)"
./target/release/domo-exp clusterbench --baseline BENCH_cluster.json

echo "All checks passed."
