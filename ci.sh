#!/usr/bin/env bash
# Local CI gate. Everything runs offline against the committed Cargo.lock —
# the build is hermetic (zero external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo clippy --offline --workspace --all-targets --features sxcheck/audit,ncar-bench/audit -- -D warnings
cargo clippy --offline --workspace --all-targets --features sxd/faults,ncar-bench/faults -- -D warnings
cargo clippy --offline --workspace --all-targets --features ncar-suite/lockcheck,sxd/lockcheck -- -D warnings

echo "==> cargo test"
cargo test --offline --workspace -q
cargo test --offline -q -p sxcheck -p ncar-bench --features sxcheck/audit,ncar-bench/audit

echo "==> reactor unit + lifecycle regressions (decoder parity, timer wheel, conn churn, fd hygiene)"
cargo test --offline -q -p ncar-suite reactor
cargo test --offline -q -p sxd --test reactor_lifecycle

echo "==> lock-order audit (lockcheck feature: registry round-trip + flooded daemon AND cluster graphs)"
cargo test --offline -q -p ncar-suite -p sxd --features ncar-suite/lockcheck,sxd/lockcheck

echo "==> crash-recovery fault matrix (SXD_FAULTPOINT, kill-and-restart at every point)"
cargo test --offline -q -p ncar-bench --features faults --test crash_recovery

echo "==> ncar-bench check --deny-warnings (fixtures must flag, reports deterministic)"
out1="$(cargo run --offline -q -p ncar-bench --features audit -- check --deny-warnings)" && rc=0 || rc=$?
# Findings are expected (the seeded pathologies report), so --deny-warnings
# must fail with exit 1; exit 2 would mean the checker missed a pathology.
if [ "$rc" -ne 1 ]; then
    echo "expected exit 1 from check --deny-warnings, got $rc" >&2
    exit 1
fi
out2="$(cargo run --offline -q -p ncar-bench --features audit -- check --deny-warnings)" || true
if [ "$out1" != "$out2" ]; then
    echo "check report is not byte-identical across runs" >&2
    exit 1
fi

echo "==> ncar-bench check --matrix --deny-warnings (baseline gates only new findings)"
# Every preset x stock kernel, gated against the committed sxcheck.baseline:
# known findings are suppressed, any NEW finding fails this stage.
cargo run --offline -q -p ncar-bench -- check --matrix --deny-warnings
# The machine-readable surface must parse as JSON (core::json is strict).
cargo run --offline -q -p ncar-bench -- check --matrix --json >/dev/null

echo "==> sxd smoke test (serve, cache hit, typed error, clean shutdown)"
cargo build --offline -q -p ncar-bench
bench="target/debug/ncar-bench"
smoke_log="$(mktemp)"
"$bench" serve --addr 127.0.0.1:0 >"$smoke_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$smoke_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "sxd never reported a listening address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
first="$("$bench" submit radabs --addr "$addr" --json true)"
second="$("$bench" submit radabs --addr "$addr" --json true)"
case "$first" in *'"cached":false'*) ;; *) echo "first submit should be uncached: $first" >&2; exit 1;; esac
case "$second" in *'"cached":true'*) ;; *) echo "second identical submit must hit the cache: $second" >&2; exit 1;; esac
if [ "$second" != "${first/\"cached\":false/\"cached\":true}" ]; then
    echo "cache hit is not byte-identical to the original reply" >&2
    exit 1
fi
garbage="$("$bench" raw 'this frame is not json' --addr "$addr")"
case "$garbage" in
    '{"ok":false,"error":{"kind":"bad_json"'*) ;;
    *) echo "malformed frame must get a typed bad_json reply: $garbage" >&2; exit 1;;
esac
echo "==> sxd metrics smoke (flood, then METRICS must reconcile and show coalescing)"
# fig5 is not in the result cache yet, so the flood's barrier-synchronized
# first wave must be deduplicated by single-flight coalescing, not the cache.
if ! "$bench" flood --addr "$addr" --clients 8 --jobs 64 --suite fig5; then
    echo "flood failed its acceptance checks" >&2
    exit 1
fi
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "METRICS snapshot must reconcile with STATS: $metrics" >&2; exit 1;;
esac
case "$metrics" in
    *'"coalesced":0,'*) echo "flood of one config must coalesce submits: $metrics" >&2; exit 1;;
    *'"coalesced":'*) ;;
    *) echo "METRICS must report the coalesced counter: $metrics" >&2; exit 1;;
esac
# The human rendering carries the FTRACE-style analysis list.
"$bench" metrics --addr "$addr" | grep -q 'FTRACE ANALYSIS LIST'

"$bench" shutdown --addr "$addr" >/dev/null
if ! wait "$serve_pid"; then
    echo "sxd did not exit 0 after graceful shutdown" >&2
    exit 1
fi
rm -f "$smoke_log"

echo "==> sxd crash-recovery smoke (flood, kill -9, restart on the same state dir, replayed cache)"
state_dir="$(mktemp -d)"
crash_log="$(mktemp)"
"$bench" serve --addr 127.0.0.1:0 --state-dir "$state_dir" >"$crash_log" 2>&1 &
crash_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$crash_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "durable sxd never reported a listening address" >&2
    kill "$crash_pid" 2>/dev/null || true
    exit 1
fi
if ! "$bench" flood --addr "$addr" --clients 8 --jobs 48 >/dev/null; then
    echo "pre-crash flood failed its acceptance checks" >&2
    exit 1
fi
before="$("$bench" submit radabs --addr "$addr" --json true)"
case "$before" in *'"cached":true'*) ;; *) echo "flooded config should already be cached: $before" >&2; exit 1;; esac
kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true
: >"$crash_log"
"$bench" serve --addr 127.0.0.1:0 --state-dir "$state_dir" >"$crash_log" 2>&1 &
crash_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$crash_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "restarted sxd never reported a listening address" >&2
    kill "$crash_pid" 2>/dev/null || true
    exit 1
fi
# Every configuration the flood completed must be a cache hit after the
# restart — the journal replay is the only thing that can make it one.
for s in fig5 radabs table3; do
    reply="$("$bench" submit "$s" --addr "$addr" --json true)"
    case "$reply" in
        *'"cached":true'*) ;;
        *) echo "post-restart submit of $s must replay from the journal: $reply" >&2; exit 1;;
    esac
done
after="$("$bench" submit radabs --addr "$addr" --json true)"
if [ "$after" != "$before" ]; then
    echo "replayed radabs result is not byte-identical to the pre-crash reply" >&2
    exit 1
fi
stats="$("$bench" stats --addr "$addr")"
case "$stats" in
    *'"replayed":3'*) ;;
    *) echo "restarted daemon must report three replayed journal records: $stats" >&2; exit 1;;
esac
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "restarted daemon's counters must reconcile: $metrics" >&2; exit 1;;
esac
# Exit through the new drain verb: nothing is pending, so it exits 0 fast.
"$bench" drain --addr "$addr" --deadline 5 >/dev/null
if ! wait "$crash_pid"; then
    echo "sxd did not exit 0 after drain" >&2
    exit 1
fi
rm -rf "$state_dir" "$crash_log"

echo "==> sxd reactor smoke (1k-connection flood against a durable daemon, reconciled METRICS, drain)"
reactor_dir="$(mktemp -d)"
reactor_log="$(mktemp)"
"$bench" serve --addr 127.0.0.1:0 --state-dir "$reactor_dir" --idle-timeout 30 >"$reactor_log" 2>&1 &
reactor_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$reactor_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "reactor-smoke sxd never reported a listening address" >&2
    kill "$reactor_pid" 2>/dev/null || true
    exit 1
fi
# 1000 concurrent connections through one reactor thread: every job must
# complete and the admission counters must reconcile under the load.
if ! "$bench" flood --addr "$addr" --clients 1000 --jobs 2000; then
    echo "1k-connection flood failed its acceptance checks" >&2
    exit 1
fi
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "METRICS must reconcile after the 1k-connection flood: $metrics" >&2; exit 1;;
esac
stats="$("$bench" stats --addr "$addr")"
case "$stats" in
    *'"conns":{'*) ;;
    *) echo "STATS must surface the reactor connection counters: $stats" >&2; exit 1;;
esac
"$bench" drain --addr "$addr" --deadline 5 >/dev/null
if ! wait "$reactor_pid"; then
    echo "sxd did not exit 0 after the reactor-smoke drain" >&2
    exit 1
fi
rm -rf "$reactor_dir" "$reactor_log"

echo "==> sxd pipelined-flood smoke (depth-8 pipeline against a durable daemon, fast path engaged)"
pipe_dir="$(mktemp -d)"
pipe_log="$(mktemp)"
"$bench" serve --addr 127.0.0.1:0 --state-dir "$pipe_dir" --pipeline-depth 8 >"$pipe_log" 2>&1 &
pipe_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$pipe_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "pipelined-flood sxd never reported a listening address" >&2
    kill "$pipe_pid" 2>/dev/null || true
    exit 1
fi
# Pipelined clients (8 frames in flight per connection) against a depth-8
# server: replies must stay in order and byte-identical (the flood's
# per-reply key check enforces this), counters must reconcile, and the
# repeat configurations must have been answered inline on the reactor
# thread — fastpath_hits is required to be positive.
if ! "$bench" flood --addr "$addr" --clients 8 --jobs 256 --suite fig5 --suite radabs --pipeline 8; then
    echo "pipelined flood failed its acceptance checks" >&2
    exit 1
fi
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "METRICS must reconcile after the pipelined flood: $metrics" >&2; exit 1;;
esac
case "$metrics" in
    *'"fastpath_hits":0,'*) echo "pipelined flood must engage the reactor fast path: $metrics" >&2; exit 1;;
    *'"fastpath_hits":'*) ;;
    *) echo "METRICS must report the fastpath_hits counter: $metrics" >&2; exit 1;;
esac
"$bench" drain --addr "$addr" --deadline 5 >/dev/null
if ! wait "$pipe_pid"; then
    echo "sxd did not exit 0 after the pipelined-flood drain" >&2
    exit 1
fi
rm -rf "$pipe_dir" "$pipe_log"

echo "==> sxd cluster smoke (3 shards, routed flood, member drain + keyspace hand-off)"
cluster_dir="$(mktemp -d)"
cluster_log="$(mktemp)"
"$bench" serve --addr 127.0.0.1:0 --cluster 3 --state-dir "$cluster_dir" >"$cluster_log" 2>&1 &
cluster_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^sxd listening on //p' "$cluster_log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "cluster router never reported a listening address" >&2
    kill "$cluster_pid" 2>/dev/null || true
    exit 1
fi
grep -q '^sxd cluster: 3 shards on ' "$cluster_log" || {
    echo "cluster serve must announce its members" >&2
    exit 1
}
# Routed flood across the default suites: the merged counters must
# reconcile across members exactly as a single daemon's do.
if ! "$bench" flood --addr "$addr" --clients 8 --jobs 48; then
    echo "routed flood failed its acceptance checks" >&2
    exit 1
fi
# Spread distinct configs over the ring so every shard journals a slice
# of the keyspace before the membership change.
for n in 0 1 2 3 4 5 6 7; do
    "$bench" submit fig5 --addr "$addr" --param "n=$n" --json true >/dev/null
done
routed="$("$bench" submit radabs --addr "$addr" --show-route true --json true)"
case "$routed" in
    'route: member='*) ;;
    *) echo "submit --show-route must print the shard placement first: $routed" >&2; exit 1;;
esac
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "cluster METRICS must reconcile across members: $metrics" >&2; exit 1;;
esac
# Drain shard 0: the router hands its journal to the ring successors
# before acknowledging, so every config — including shard 0's — must
# still answer from a surviving member's cache.
"$bench" drain --addr "$addr" --member 0 --deadline 5 >/dev/null
for s in fig5 radabs table3; do
    reply="$("$bench" submit "$s" --addr "$addr" --json true)"
    case "$reply" in
        *'"cached":true'*) ;;
        *) echo "post-drain submit of $s must hit a surviving cache: $reply" >&2; exit 1;;
    esac
done
for n in 0 1 2 3 4 5 6 7; do
    reply="$("$bench" submit fig5 --addr "$addr" --param "n=$n" --json true)"
    case "$reply" in
        *'"cached":true'*) ;;
        *) echo "post-drain submit of fig5 n=$n must hit a surviving cache: $reply" >&2; exit 1;;
    esac
done
stats="$("$bench" stats --addr "$addr")"
case "$stats" in
    *'"members_alive":2'*) ;;
    *) echo "router stats must show 2 surviving members: $stats" >&2; exit 1;;
esac
metrics="$("$bench" metrics --addr "$addr" --json true)"
case "$metrics" in
    *'"reconciled":true'*) ;;
    *) echo "cluster METRICS must still reconcile after the hand-off: $metrics" >&2; exit 1;;
esac
"$bench" shutdown --addr "$addr" >/dev/null
if ! wait "$cluster_pid"; then
    echo "cluster did not exit 0 after shutdown" >&2
    exit 1
fi
rm -rf "$cluster_dir" "$cluster_log"

echo "==> perf smoke (release harness, schema validation, batched-vs-loop equivalence)"
# The equivalence property tests — including charge-program record/replay —
# must also hold under release-mode float optimization: bit-identical
# ledgers are the whole point.
cargo test --offline -q -p sxsim --release --test batch_props
cargo test --offline -q -p ccm-proxy --release program_tests
cargo test --offline -q -p ocean-models --release program_tests
cargo build --offline -q --release -p ncar-bench
perf_json="$(mktemp)"
target/release/ncar-bench perf --smoke --out "$perf_json" >/dev/null
target/release/ncar-bench perf --validate "$perf_json"
rm -f "$perf_json"
# The committed baseline must stay schema-valid too.
target/release/ncar-bench perf --validate BENCH_7.json

echo "==> servebench tests (the serving benchmark's gates build and pass against this tree)"
# servebench is a package outside the workspace that calls sxd, ccm-proxy
# and sxsim through their public APIs; an API change must not leave the
# benchmark unbuildable or its gates red.
cargo test --release --offline -q --manifest-path servebench/Cargo.toml

echo "==> CI OK"
