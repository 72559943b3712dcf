#!/bin/sh
# Runs every workload, each in its own process, from the repository
# root. Extra arguments (--seed, --seconds, --trace) go to every run.
# Stops at the first run that fails.
set -e
cd "$(dirname "$0")/.."
for w in handshake_churn oneshot_attest session_traffic; do
    cargo run --release --quiet --frozen --manifest-path svcbench/Cargo.toml -- --workload "$w" "$@"
done
