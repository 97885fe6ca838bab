# Developer task runner.

# The gate every PR must pass: formatting, build, tests, clippy, rustdoc,
# enprop-lint, the dead-API scan, the benchmark package's tests, and the
# perf, serve, resume and obs smokes. `scripts/verify.sh` is its one
# definition.
verify:
    ./scripts/verify.sh

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
