#!/usr/bin/env bash
# Full reproduction pipeline: tests, every paper figure, benchmarks,
# and the session-level delay decomposition (DESIGN.md §14).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tests =="
cargo test --workspace

echo "== paper figures (CSV in results/paper/) =="
cargo run --release -p pds-bench --bin figures -- all

echo "== session delay decomposition (results/delay_decomposition.txt) =="
# Trace the two-hop discovery+retrieval walkthrough, then decompose each
# session's end-to-end delay into queueing / contention / airtime /
# retransmission / processing along the cross-node critical path.
mkdir -p results
cargo run --release -p pds --example trace -- results/trace.jsonl >/dev/null
cargo run --release -p pds-obs -- critical-path results/trace.jsonl \
  | tee results/delay_decomposition.txt

echo "== benchmarks =="
benchmark/run.sh

echo "done — see results/ and EXPERIMENTS.md"
