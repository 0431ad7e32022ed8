#!/bin/sh
# The smoke and determinism gate CI runs after build/test/fmt/clippy.
# Run it from anywhere; it needs cargo, python3 and cmp. Trace files go
# to a temporary directory that is removed on exit.
set -eu
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build --release -q -p adroute-cli
adroute="${CARGO_TARGET_DIR:-target}/release/adroute"

echo "== Visibility: every pub fn under crates/*/src is named in some other crate"
# A `pub fn` no other crate names hides from rustc's dead_code lint; make it
# pub(crate) or private and let clippy -D warnings find it if it is dead.
# tests/, examples/, benches/, benchmark/, the root src/ and each binary's
# main.rs count as other crates. `//` comments are stripped first (string
# and char literals are kept), but the match is by name, so a homonym in
# another crate still keeps a `pub fn` public. The exact count comes from
# a compile probe: make every such `pub fn` pub(crate), run `cargo check
# --all-targets` on the workspace and on benchmark/, and restore each one
# rustc reports as private (E0603, E0624, E0364) until both are clean.
python3 - <<'PY'
import pathlib, re, sys
files = [p for p in pathlib.Path(".").rglob("*.rs")
         if not {"target", "vendor", ".git"} & set(p.parts)]
text = {p: p.read_text(encoding="utf-8") for p in files}
literal_or_comment = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//[^\n]*', re.S)
code = {p: literal_or_comment.sub(lambda m: "" if m[0].startswith("//") else m[0], t)
        for p, t in text.items()}
def crate(p):
    parts = p.parts
    if len(parts) > 3 and parts[0] == "crates" and parts[2] == "src" and p.name != "main.rs":
        return parts[1]
    return None
words = {}
bad = []
for p in sorted(files):
    c = crate(p)
    if c is None:
        continue
    if c not in words:
        words[c] = {w for q in files if crate(q) != c for w in re.findall(r"\w+", code[q])}
    for n, line in enumerate(text[p].splitlines(), 1):
        m = re.match(r"\s*pub (?:const )?fn (\w+)", line)
        if m and m.group(1) not in words[c]:
            bad.append(f"{p}:{n}: pub fn {m.group(1)} is named in no other crate")
print(f"{len(bad)} pub fns named in no other crate")
sys.exit("\n".join(bad) if bad else 0)
PY

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

echo "== The charge did not move: T1, F1, E3, E4, E5, E6, E8, E9, E10, E11 and E12 print the rows EXPERIMENTS.md records"
for b in table1_design_space figure1_topology exp3_partial_order exp4_pv_blowup exp5_lshbh_burden \
    exp6_setup_amortization exp8_scaling exp9_qos_scaling exp10_convergence exp11_lateral_bypass exp12_dynamics; do
    cargo bench -q -p adroute-bench --bench "$b" > "$out/$b.txt"
    test "$(grep -c '^|' "$out/$b.txt")" -gt 2
    if grep '^|' "$out/$b.txt" | grep -vxFf EXPERIMENTS.md; then
        echo "$b prints the rows above, which EXPERIMENTS.md does not record"
        exit 1
    fi
done

echo "== Shared view: every LS-HBH router resolves as its own LSDB says (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test shared_view

echo "== Route Server views: shared, synced to each LSDB, answering like the flush oracle (raised case count)"
PROPTEST_CASES=1024 cargo test -q --test incremental_view

echo "== Incremental IDRP: every router stores and sends what the from-scratch oracle does (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test pv_incremental

echo "== Incremental naive DV and ECMA: ledger, event log and FIBs equal the full-table oracle's (raised case count)"
PROPTEST_CASES=2048 cargo test -q --test dv_incremental

echo "== The route oracle: (current, previous) states, avoid-sets and sweeps against exhaustive search (raised case count)"
PROPTEST_CASES=1024 cargo test -q --test properties oracle_

echo "== Transit verdicts: one asked per search stands for every previous and next AD (raised case count)"
PROPTEST_CASES=1024 cargo test -q -p adroute-policy --lib flow_verdict_is_exact

echo "== The shared invariants: flow checker, fault lifecycle and conservation (raised case count)"
PROPTEST_CASES=256 cargo test -q --test conformance
PROPTEST_CASES=256 cargo test -q --test conservation
PROPTEST_CASES=256 cargo test -q --test chaos fault_plans_replay_deterministically

echo "== Batched serving: request_batch twins the request loop, an unsharded ramp is a batch of one (raised case count)"
PROPTEST_CASES=256 cargo test -q --test sharded_synthesis

echo "== The LRU cache: returns, evictions and recency order equal the stamp-ordered reference's (raised case count)"
PROPTEST_CASES=1024 cargo test -q -p adroute-core --lib lru_matches_reference_model

echo "== help, -h and --help each exit 0 and print the same usage"
for h in help -h --help; do
    "$adroute" "$h" > "$out/usage$h.txt"
done
cmp "$out/usagehelp.txt" "$out/usage-h.txt"
cmp "$out/usagehelp.txt" "$out/usage--help.txt"

echo "== Machine-readable outputs are valid JSON"
"$adroute" report --ads 40 --seed 7 --flows 20 --json | python3 -m json.tool > /dev/null
"$adroute" blame quickstart --json | python3 -m json.tool > /dev/null
"$adroute" blame e7b --json | python3 -m json.tool > /dev/null
"$adroute" audit quickstart --json | python3 -m json.tool > /dev/null
"$adroute" audit e7b --json | python3 -m json.tool > /dev/null
"$adroute" stress quickstart --json | python3 -m json.tool > /dev/null
"$adroute" profile e7b --json | python3 -m json.tool > /dev/null
"$adroute" stress quickstart --json --trace "$out/s.jsonl" | python3 -m json.tool > /dev/null
"$adroute" audit quickstart --json --trace "$out/a.jsonl" | python3 -m json.tool > /dev/null
cmp "$out/a.jsonl" tests/golden/audit_quickstart_trace.jsonl

echo "== Paper-scale smoke (10^4-AD gossip flood, clean then faulted, 300 s each)"
timeout 300 "$adroute" profile e13 --ads 10000 --json | python3 -m json.tool > /dev/null
timeout 300 "$adroute" profile e13 --ads 10000 --loss 0.05 --json | python3 -m json.tool > /dev/null

echo "== Byzantine smoke (lossy opens, then forged-ack opens; double run)"
"$adroute" audit quickstart
"$adroute" chaos --ads 30 --seed 11 --duration 250 --flows 20 --byzantine --trace "$out/byz-a.jsonl"
"$adroute" chaos --ads 30 --seed 11 --duration 250 --flows 20 --byzantine --trace "$out/byz-b.jsonl"
cmp "$out/byz-a.jsonl" "$out/byz-b.jsonl"

echo "== Chaos faulted trace (partition/heal, double run)"
"$adroute" chaos --ads 800 --seed 1990 --duration 250 --flows 20 --partition --trace "$out/chaos-a.jsonl"
"$adroute" chaos --ads 800 --seed 1990 --duration 250 --flows 20 --partition --trace "$out/chaos-b.jsonl"
cmp "$out/chaos-a.jsonl" "$out/chaos-b.jsonl"
cargo test -q --test golden_trace chaos_trace

echo "== Overload smoke (stress ramp + deterministic trace)"
"$adroute" stress quickstart --trace "$out/stress-a.jsonl"
"$adroute" stress quickstart --trace "$out/stress-b.jsonl"
cmp "$out/stress-a.jsonl" "$out/stress-b.jsonl"

echo "== Sharded serving (deterministic trace)"
"$adroute" stress quickstart --sharded --trace "$out/shard-a.jsonl"
"$adroute" stress quickstart --sharded --trace "$out/shard-b.jsonl"
cmp "$out/shard-a.jsonl" "$out/shard-b.jsonl"

echo "== Every line of every exported trace is a JSON object with a kind"
python3 - "$out/a.jsonl" "$out/s.jsonl" "$out/byz-a.jsonl" "$out/chaos-a.jsonl" \
    "$out/stress-a.jsonl" "$out/shard-a.jsonl" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            try:
                rec = json.loads(line)
            except ValueError as e:
                sys.exit(f"{path}:{n}: not JSON ({e}): {line.rstrip()}")
            if not isinstance(rec, dict) or "kind" not in rec:
                sys.exit(f"{path}:{n}: no kind: {line.rstrip()}")
PY

echo "== Examples run"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "-- example $name"
    cargo run --release -q --example "$name"
done

echo "ci.sh: all steps passed"
