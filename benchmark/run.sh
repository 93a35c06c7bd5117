#!/bin/bash
# The one command: builds the benchmark from source and runs it. Without
# arguments it prints every metric of every workload (`--all`) and exits
# non-zero if an output check fails; the arguments of README.md pass through.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
