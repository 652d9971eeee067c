#!/usr/bin/env bash
# Local CI gate. Everything runs offline against the committed Cargo.lock —
# the build is hermetic (zero external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
# Two passes: the default features (the `cfg(not(feature))` arms), then
# every feature together.
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo clippy --offline --workspace --all-targets \
  --features sxd/faults,ncar-bench/faults,ncar-suite/lockcheck,sxd/lockcheck -- -D warnings

echo "==> cargo test"
# Serving is tested in-process and against the real `ncar-bench serve`
# binary by the sxd and ncar-bench integration tests this stage runs.
cargo test --offline --workspace -q

echo "==> lock-order audit (lockcheck feature: registry round-trip + flooded daemon AND cluster graphs)"
cargo test --offline -q -p ncar-suite -p sxd --features ncar-suite/lockcheck,sxd/lockcheck

echo "==> crash-recovery fault matrix (SXD_FAULTPOINT, kill-and-restart at every point)"
cargo test --offline -q -p ncar-bench --features faults --test crash_recovery

echo "==> release equivalence (batched-vs-loop and priced-vs-functional, under --release)"
# The equivalence tests — batched charges against the loop of single
# charges, and priced steps against functional ones (their ledgers and
# per-chunk charge traces) — must also hold under release-mode float
# optimization: bit-identical ledgers are the whole point.
cargo test --offline -q -p sxsim --release --test batch_props
cargo test --offline -q -p ccm-proxy --release pricing_tests
cargo test --offline -q -p ocean-models --release pricing_tests
cargo test --offline -q -p ncar-kernels --release pricing_tests

echo "==> servebench tests (the serving benchmark's gates build and pass against this tree)"
# servebench is a package outside the workspace that calls sxd, ccm-proxy
# and sxsim through their public APIs; an API change must not leave the
# benchmark unbuildable or its gates red.
cargo test --release --offline -q --manifest-path servebench/Cargo.toml

echo "==> CI OK"
