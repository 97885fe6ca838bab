# Developer task runner. `just verify` is the gate every PR must pass;
# `./scripts/verify.sh` is the no-just fallback.

# Build, test and lint the whole workspace and the benchmark package
# (warnings are errors), build the library docs with rustdoc warnings as
# errors (`--lib`: the enprop library and binary share a doc file name),
# run the benchmark package's own tests: every workload at tiny size
# with its output checks, including the golden digests; and fail when the
# dead-API scan lists a library function outside its kept set.
verify: && obs-smoke perf-smoke serve-smoke resume-smoke obs-query-smoke lint-budget
    cargo build --release --workspace --offline
    cargo test -q --workspace --offline
    cargo test --offline -q --manifest-path benchmark/Cargo.toml
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline
    cargo run --release -p enprop-lint --offline
    python3 scripts/dead_pub_fns.py

# Lint-runtime budget (DESIGN.md §15): the whole-workspace self-scan must
# stay interactive (< 2 s) and its wall time is recorded with the other
# perf gates (appends BENCH_lint_scan.json). Also pins the v2 JSON schema
# that scripts/verify.sh consumes.
lint-budget:
    #!/usr/bin/env sh
    set -eu
    json="$(cargo run --release -p enprop-lint --offline -- --json)"
    printf '%s\n' "$json" | grep -q '"format":"enprop-lint-v2"'
    scan_ms="$(printf '%s' "$json" | sed -n 's/.*"scan_ms":\([0-9][0-9]*\).*/\1/p')"
    test -n "$scan_ms"
    if [ "$scan_ms" -ge 2000 ]; then
        echo "lint-budget: scan took ${scan_ms} ms (budget 2000 ms)" >&2
        exit 1
    fi
    printf '{"cmd":"lint.scan","wall_ms":%s,"seed":1}\n' "$scan_ms" >> BENCH_lint_scan.json
    echo "lint-budget: OK (${scan_ms} ms)"

# Telemetry exports must stay well-formed: run a traced command and
# check both artifacts for their format markers.
obs-smoke:
    #!/usr/bin/env sh
    set -eu
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p enprop-cli --offline -- table4 \
        --trace-out "$tmp/t.json" --metrics-out "$tmp/m.json" >/dev/null
    grep -q traceEvents "$tmp/t.json"
    grep -q enprop-obs-metrics-v1 "$tmp/m.json"
    echo "obs-smoke: OK"

# Perf regression gate for the evaluation pipeline: reduced sweep,
# sequential and pooled, each uncached and memoized, plus the mega-scale
# streaming-vs-materializing scenario; appends BENCH_space_eval.json
# (DESIGN.md §12, §17). Exits 1 if the one-thread memoized sweep is not
# 1.2x faster than the one-thread uncached sweep of the same run, if
# streaming loses its 2x edge at 10^6 configs, or if the streamed sweep
# drifts past 3x the best earlier row in that file; 2 if the file cannot
# be read.
perf-smoke:
    cargo run --release -p enprop-bench --bin perf_smoke --offline

# Serving-mode gate (DESIGN.md §13): replay the bundled arrival trace
# under an active chaos plan, assert a clean exit and the conservation
# invariant, then run the serve_replay throughput gate (appends
# BENCH_serve_replay.json; exits 1 past min(10 s, 3x the best earlier
# serve_replay.1m_chaos row)).
serve-smoke:
    #!/usr/bin/env sh
    set -eu
    out="$(cargo run --release -p enprop-cli --offline -- replay \
        --trace examples/replay_trace.jsonl \
        --mtbf 6 --stall 2 --slowdown 3 --repair 5 --seed 7)"
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -q "conservation: OK"
    cargo run --release -p enprop-bench --bin serve_replay --offline
    echo "serve-smoke: OK"

# Crash-consistency gate (DESIGN.md §16): kill a checkpointed serving
# run mid-flight, resume it from the snapshot, and require the report
# and the telemetry tail to match the uninterrupted run bit for bit
# (appends the resume wall time to BENCH_serve_replay.json).
resume-smoke:
    #!/usr/bin/env sh
    set -eu
    cargo build --release -p enprop-cli --offline
    ENPROP=./target/release/enprop ./scripts/resume_smoke.sh

# Observability-plane gate (DESIGN.md §14): record a chaos replay as a
# raw JSONL trace, drive `enprop obs` over it (the per-window report
# must carry the tail and energy columns and per-group rows; the trace
# query must resolve sketch quantiles), then run the obs_window bench —
# the windowed plane may cost at most 10% over the plane-off baseline.
obs-query-smoke:
    #!/usr/bin/env sh
    set -eu
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    cargo run --release -p enprop-cli --offline -- replay \
        --trace examples/replay_trace.jsonl \
        --mtbf 6 --stall 2 --slowdown 3 --repair 5 --seed 7 \
        --trace-out "$tmp/serve.jsonl" >/dev/null
    report="$(cargo run --release -p enprop-cli --offline -- obs report \
        --trace "$tmp/serve.jsonl")"
    printf '%s\n' "$report" | grep -q p999_s
    printf '%s\n' "$report" | grep -q j_per_req
    printf '%s\n' "$report" | grep -q burn_fast
    printf '%s\n' "$report" | grep -q ' g0 '
    query="$(cargo run --release -p enprop-cli --offline -- obs query \
        --trace "$tmp/serve.jsonl" --name win.p99_s --quantiles win.p99_s)"
    printf '%s\n' "$query" | grep -q 'p99.9'
    cargo run --release -p enprop-bench --bin obs_window --offline
    echo "obs-query-smoke: OK"

# Fast signal while iterating.
check:
    cargo check --workspace --offline

test:
    cargo test -q --workspace --offline

# Clippy plus the domain-aware pass (determinism & numeric hygiene,
# DESIGN.md §11). `enprop-lint` exits 1 on findings, 2 on usage errors.
lint:
    cargo clippy --workspace --all-targets --offline -- -D warnings
    cargo run -p enprop-lint --offline

# Regenerate every paper artifact.
repro:
    cargo run --release -p enprop-cli --offline -- all
