#!/bin/sh
# The benchmark's own gate: format, lints, self-tests (which include a
# --quick pass over all six workloads), then one more --quick pass whose
# numbers are shown — and labelled — as not comparable.
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --quick --traced --reps 1
