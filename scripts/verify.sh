#!/usr/bin/env sh
# Full verification gate: build, test, lint (warnings are errors).
# Mirrors `just verify` for hosts without just.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check (the workspace; benchmark/ is its own package)"
cargo fmt --all --check
echo "==> cargo build --release"
cargo build --release --workspace --offline
echo "==> cargo test"
cargo test -q --workspace --offline
echo "==> benchmark tests (every workload at tiny size with its output checks)"
# The benchmark is a package of its own, outside the workspace: this is
# the gate on its golden digests (e.g. paper_all's fig11, fig12).
cargo test --offline -q --manifest-path benchmark/Cargo.toml
echo "==> cargo clippy -D warnings (workspace, then the benchmark package)"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
echo "==> rustdoc -D warnings (library docs and their intra-doc links)"
# --lib: the enprop library and the enprop binary would write the same
# doc output file.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline
echo "==> enprop-lint (determinism, numeric hygiene, unit & lock coherence)"
# The pass exits 0 clean / 1 findings / 2 usage or I/O error (DESIGN.md §11, §15).
if ! lint_json="$(./target/release/enprop-lint --json)"; then
    printf '%s\n' "$lint_json"
    echo "verify: enprop-lint reported findings" >&2
    exit 1
fi
printf '%s\n' "$lint_json" | grep -q '"format":"enprop-lint-v2"'
# Lint-runtime budget: the whole-workspace scan must stay interactive
# (< 2000 ms), and the measured wall time lands next to the other perf
# gates so regressions show up in the BENCH_* history.
scan_ms="$(printf '%s' "$lint_json" | sed -n 's/.*"scan_ms":\([0-9][0-9]*\).*/\1/p')"
test -n "$scan_ms"
if [ "$scan_ms" -ge 2000 ]; then
    echo "verify: enprop-lint scan took ${scan_ms} ms (budget 2000 ms)" >&2
    exit 1
fi
printf '{"cmd":"lint.scan","wall_ms":%s,"seed":1}\n' "$scan_ms" >> BENCH_lint_scan.json
echo "==> dead API scan (library pub fns nothing outside tests calls, beyond the kept set)"
python3 scripts/dead_pub_fns.py
echo "==> obs smoke (trace + metrics exports)"
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
./target/release/enprop table4 --trace-out "$obs_tmp/t.json" \
    --metrics-out "$obs_tmp/m.json" >/dev/null
grep -q traceEvents "$obs_tmp/t.json"
grep -q enprop-obs-metrics-v1 "$obs_tmp/m.json"
echo "==> perf smoke (memo speedup at one thread, streaming vs materializing, trajectory)"
cargo run --release -p enprop-bench --bin perf_smoke --offline
echo "==> serve smoke (chaos replay + conservation + throughput trajectory)"
serve_out="$(./target/release/enprop replay --trace examples/replay_trace.jsonl \
    --mtbf 6 --stall 2 --slowdown 3 --repair 5 --seed 7)"
printf '%s\n' "$serve_out"
printf '%s\n' "$serve_out" | grep -q "conservation: OK"
cargo run --release -p enprop-bench --bin serve_replay --offline
echo "==> resume smoke (kill mid-run, resume from checkpoint, diff bit-exactly)"
ENPROP=./target/release/enprop ./scripts/resume_smoke.sh
echo "==> obs query smoke (windowed report + trace query + plane overhead gate)"
./target/release/enprop replay --trace examples/replay_trace.jsonl \
    --mtbf 6 --stall 2 --slowdown 3 --repair 5 --seed 7 \
    --trace-out "$obs_tmp/serve.jsonl" >/dev/null
obs_report="$(./target/release/enprop obs report --trace "$obs_tmp/serve.jsonl")"
printf '%s\n' "$obs_report" | grep -q p999_s
printf '%s\n' "$obs_report" | grep -q j_per_req
printf '%s\n' "$obs_report" | grep -q burn_fast
printf '%s\n' "$obs_report" | grep -q ' g0 '
obs_query="$(./target/release/enprop obs query --trace "$obs_tmp/serve.jsonl" \
    --name win.p99_s --quantiles win.p99_s)"
printf '%s\n' "$obs_query" | grep -q 'p99.9'
# A torn trace is a line-numbered exit-2 error, never silently shortened.
printf '{"t":1,"track":"controller","name":"x","id":0,"ki' >> "$obs_tmp/serve.jsonl"
set +e
./target/release/enprop obs query --trace "$obs_tmp/serve.jsonl" \
    >/dev/null 2>"$obs_tmp/torn.err"
torn_rc=$?
set -e
test "$torn_rc" -eq 2
grep -q 'line' "$obs_tmp/torn.err"
cargo run --release -p enprop-bench --bin obs_window --offline
echo "verify: OK"
