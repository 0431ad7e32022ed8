#!/bin/sh
# The smoke and determinism gate CI runs after build/test/fmt/clippy.
# Run it from anywhere; it needs cargo, python3 and cmp. Trace files go
# to a temporary directory that is removed on exit.
set -eu
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

adroute() {
    cargo run --release -q -p adroute-cli -- "$@"
}

echo "== The benchmark still builds against this tree and passes its own gate"
# benchmark/ is its own workspace: `cargo test --workspace` never compiles
# it, so a signature it calls could break unnoticed until it is run.
benchmark/check.sh

echo "== Rustdoc builds without a warning (no dangling intra-doc link)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== Shapes: the paper's inequalities hold, and every 'Shape ✓' names a test that exists"
cargo test -q --test shapes
cargo test -q --test shapes -- --list > "$out/shapes.list"
python3 - "$out/shapes.list" <<'PY'
import re, sys
listed = {l.split(":")[0] for l in open(sys.argv[1]) if l.rstrip().endswith(": test")}
bad = []
for n, line in enumerate(open("EXPERIMENTS.md", encoding="utf-8"), 1):
    if "Shape ✓" not in line:
        continue
    cited = re.findall(r"`(?:tests/)?(\w+)\.rs::(\w+)`", line)
    if not cited:
        bad.append(f"EXPERIMENTS.md:{n}: 'Shape ✓' cites no test")
    for file, test in cited:
        if file == "shapes":
            found = test in listed
        else:
            found = re.search(rf"\bfn {test}\b", open(f"tests/{file}.rs", encoding="utf-8").read())
        if not found:
            bad.append(f"EXPERIMENTS.md:{n}: no test {file}.rs::{test}")
sys.exit("\n".join(bad) if bad else 0)
PY

echo "== The charge did not move: E4, E5, E8, E9, E10, E11 and E12 print the rows EXPERIMENTS.md records"
for b in exp4_pv_blowup exp5_lshbh_burden exp8_scaling exp9_qos_scaling exp10_convergence exp11_lateral_bypass exp12_dynamics; do
    cargo bench -q -p adroute-bench --bench "$b" > "$out/$b.txt"
    test "$(grep -c '^|' "$out/$b.txt")" -gt 2
    if grep '^|' "$out/$b.txt" | grep -vxFf EXPERIMENTS.md; then
        echo "$b prints the rows above, which EXPERIMENTS.md does not record"
        exit 1
    fi
done

echo "== Shared view: every LS-HBH router resolves as its own LSDB says (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test shared_view

echo "== Incremental IDRP: every router stores and sends what the from-scratch oracle does (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test pv_incremental

echo "== Incremental naive DV and ECMA: ledger, event log and FIBs equal the full-table oracle's (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test dv_incremental

echo "== Machine-readable outputs are valid JSON"
adroute report --ads 40 --seed 7 --flows 20 --json | python3 -m json.tool > /dev/null
adroute blame quickstart --json | python3 -m json.tool > /dev/null
adroute blame e7b --json | python3 -m json.tool > /dev/null
adroute audit quickstart --json | python3 -m json.tool > /dev/null
adroute audit e7b --json | python3 -m json.tool > /dev/null
adroute stress quickstart --json | python3 -m json.tool > /dev/null
adroute profile e7b --json | python3 -m json.tool > /dev/null
adroute stress quickstart --json --trace "$out/s.jsonl" | python3 -m json.tool > /dev/null
adroute audit quickstart --json --trace "$out/a.jsonl" | python3 -m json.tool > /dev/null
cmp "$out/a.jsonl" tests/golden/audit_quickstart_trace.jsonl

echo "== Paper-scale smoke (10^4-AD gossip flood, clean then faulted, 300 s each)"
# `timeout` cannot run the shell function; the binary is built by now.
timeout 300 cargo run --release -q -p adroute-cli -- profile e13 --ads 10000 --json | python3 -m json.tool > /dev/null
timeout 300 cargo run --release -q -p adroute-cli -- profile e13 --ads 10000 --loss 0.05 --json | python3 -m json.tool > /dev/null

echo "== Byzantine smoke"
adroute audit quickstart
adroute chaos --ads 30 --seed 11 --duration 250 --flows 20 --byzantine

echo "== Chaos faulted trace (partition/heal, double run)"
adroute chaos --ads 800 --seed 1990 --duration 250 --flows 20 --partition --trace "$out/chaos-a.jsonl"
adroute chaos --ads 800 --seed 1990 --duration 250 --flows 20 --partition --trace "$out/chaos-b.jsonl"
cmp "$out/chaos-a.jsonl" "$out/chaos-b.jsonl"
cargo test -q --test golden_trace chaos_trace

echo "== Overload smoke (stress ramp + deterministic trace)"
adroute stress quickstart --trace "$out/stress-a.jsonl"
adroute stress quickstart --trace "$out/stress-b.jsonl"
cmp "$out/stress-a.jsonl" "$out/stress-b.jsonl"

echo "== Sharded serving (differential battery + deterministic trace)"
cargo test -q --test sharded_synthesis
adroute stress quickstart --sharded --trace "$out/shard-a.jsonl"
adroute stress quickstart --sharded --trace "$out/shard-b.jsonl"
cmp "$out/shard-a.jsonl" "$out/shard-b.jsonl"

echo "== Examples run"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example $name"
    cargo run --release -q --example "$name"
done

echo "ci.sh: all steps passed"
