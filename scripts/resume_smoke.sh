#!/usr/bin/env sh
# resume-smoke: crash-consistent checkpoint/resume gate (DESIGN.md §16).
#
# Kill a checkpointed serving run mid-flight at a seed-derived event
# count, resume it from the snapshot, and require bit-exact agreement
# with the uninterrupted run three times over: the printed report must be
# identical, the resumed run's raw telemetry stream must equal the tail
# of the uninterrupted run's stream line for line (the resume invariant:
# event-for-event, joule-for-joule), and a resumed run's final checkpoint
# must equal the uninterrupted run's byte for byte (a restore that drops
# or alters any state a checkpoint holds shows up there). Every run
# writes a trace, so every checkpoint carries the recorder's counter
# totals. Appends the resume wall time to BENCH_serve_replay.json so
# regressions show up in the history.
#
# $ENPROP overrides the binary under test (default: the release build).
set -eu
cd "$(dirname "$0")/.."
ENPROP="${ENPROP:-./target/release/enprop}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

seed=7
# Seed-derived kill point: past the first checkpoint window, well before
# the drain, for the 2000-request stream below (4036 events; at seed 7
# the kill lands at t = 2.6 s, after the checkpoints at 1 s and 2 s and
# before the last arrival at 7.0 s).
kill_at=$((1500 + seed % 500))
flags="--requests 2000 --utilization 0.7 --mtbf 40 --rack-mtbf 25 \
  --emergency-mtbf 30 --emergency-cap 80 --repair 5 --seed $seed --quiet"

# Capture, then grep: piping into `grep -q` would close the pipe early
# and kill the writer with EPIPE.
# shellcheck disable=SC2086  # $flags is a word list by construction
"$ENPROP" serve $flags --checkpoint-out "$tmp/ckpt.jsonl" \
    --kill-after-events "$kill_at" --trace-out "$tmp/killed.jsonl" > "$tmp/killed.txt"
grep -q "run killed" "$tmp/killed.txt"
test -f "$tmp/ckpt.jsonl"
grep -q "enprop-snapshot-v5" "$tmp/ckpt.jsonl"

start_ns=$(date +%s%N)
# shellcheck disable=SC2086
"$ENPROP" serve $flags --resume-from "$tmp/ckpt.jsonl" \
    --trace-out "$tmp/resumed.jsonl" > "$tmp/resumed.txt"
wall_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
# shellcheck disable=SC2086
"$ENPROP" serve $flags --trace-out "$tmp/full.jsonl" \
    --checkpoint-out "$tmp/full_ckpt.jsonl" > "$tmp/full.txt"
# An untimed resume that checkpoints too, for the final-checkpoint check.
# shellcheck disable=SC2086
"$ENPROP" serve $flags --resume-from "$tmp/ckpt.jsonl" \
    --trace-out "$tmp/resumed2.jsonl" --checkpoint-out "$tmp/resumed_ckpt.jsonl" \
    > "$tmp/resumed2.txt"

diff "$tmp/resumed.txt" "$tmp/full.txt"
diff "$tmp/resumed2.txt" "$tmp/full.txt"
grep -q "conservation: OK" "$tmp/full.txt"
# The resumed telemetry stream is the tail of the uninterrupted one.
tail_lines="$(wc -l < "$tmp/resumed.jsonl")"
tail -n "$tail_lines" "$tmp/full.jsonl" | diff - "$tmp/resumed.jsonl"
cmp "$tmp/resumed_ckpt.jsonl" "$tmp/full_ckpt.jsonl"

printf '{"cmd":"serve.resume","wall_ms":%s,"seed":%s}\n' \
    "$wall_ms" "$seed" >> BENCH_serve_replay.json
echo "resume-smoke: OK (killed at event $kill_at, resumed in ${wall_ms} ms)"
