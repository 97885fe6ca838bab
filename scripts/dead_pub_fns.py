#!/usr/bin/env python3
"""List the `pub fn`s of the ten library crates that nothing outside tests names.

A name counts as called when it appears in `crates/*/src`, `src/`,
`examples/` or `benchmark/src` anywhere but at a definition of a function
of that name. Every file is read with its `//` comments (doc comments
included), the contents of its string literals, its `pub use` re-exports
and its `#[cfg(test)]` items stripped, so a test, a doc link, a message
or a re-export is not a caller. Any other identifier with the same name
(`new`, `run`) is a mention too, and so counts: it can hide a dead
function.

    python3 scripts/dead_pub_fns.py [REPO_ROOT]

Prints one `path: name` line per uncalled function, then the count; exits
1 when a printed line is not in `KEPT` (`scripts/verify.sh` and
`just verify` gate on this).
"""
import glob
import os
import re
import sys

LIBS = ["faults", "obs", "metrics", "queueing", "nodesim", "workloads",
        "clustersim", "serve", "core", "explore"]
# Functions no library code calls that stay on purpose, as the scan
# prints them, each with its reason. Any other line it prints fails it.
KEPT = {
    # The mixture oracle a rate-share dispatch rule's tests will check.
    "crates/queueing/src/md1.rs: response_time_cdf",
    # A kept plain/_obs twin (ROADMAP Aim 2): its untraced callers are tests.
    "crates/clustersim/src/run.rs: run_job_under_plan",
    # The workload builder's entry point, driven by a tier-1 test.
    "crates/workloads/src/builder.rs: node_measured",
    # Offered to downstream users in DESIGN.md §7.
    "crates/nodesim/src/microbench.rs: characterize_dvfs_exponent",
    "crates/nodesim/src/spec.rs: custom",
}
# Whichever starts first wins: a comment, a raw or plain string, a char.
TOKEN = re.compile(r"""//[^\n]*|b?r(#*)".*?"\1|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])'""", re.S)
# A `pub use` re-export, up to its `;` (read after string contents are
# blanked, so a `;` in a string cannot end it early).
PUB_USE = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;")


def blank(token):
    """A comment as spaces and a string literal as its quotes around
    spaces, so offsets hold; a char literal as it is."""
    if token.startswith("//"):
        return " " * len(token)
    if token.startswith("'"):
        return token
    head, tail = token.index('"') + 1, token.rindex('"')
    return token[:head] + " " * (tail - head) + token[tail:]


def strip(text):
    # Blank comments and string contents, drop `pub use` items, then cut
    # each `#[cfg(test)]` item, finding its extent in a copy with every
    # comment, string and char literal masked so their braces are inert.
    kept = PUB_USE.sub(lambda m: " " * len(m[0]), TOKEN.sub(lambda m: blank(m[0]), text))
    mask = TOKEN.sub(lambda m: "x" * len(m[0]), text)
    cuts = []
    for m in re.finditer(r"#\[cfg\(test\)\]", mask):
        if cuts and m.start() <= cuts[-1][1]:
            continue  # inside an item already cut
        brace, semi = mask.find("{", m.end()), mask.find(";", m.end())
        if semi >= 0 and (brace < 0 or semi < brace):
            end = semi
        else:
            depth, end = 0, brace
            while True:
                depth += {"{": 1, "}": -1}.get(mask[end], 0)
                if depth == 0:
                    break
                end += 1
        cuts.append((m.start(), end))
    for start, end in reversed(cuts):
        kept = kept[:start] + kept[end + 1:]
    return kept


def main(root):
    def files(pattern):
        return sorted(glob.glob(os.path.join(root, pattern), recursive=True))

    libs = [f for c in LIBS for f in files(f"crates/{c}/src/**/*.rs")]
    corpus = (files("crates/*/src/**/*.rs") + files("src/**/*.rs")
              + files("examples/**/*.rs") + files("benchmark/src/**/*.rs"))
    text = {f: strip(open(f, encoding="utf-8").read()) for f in set(libs + corpus)}
    body = "\n".join(text[f] for f in corpus)
    dead = [(f, m[1]) for f in libs for m in re.finditer(r"\bpub fn (\w+)", text[f])
            if len(re.findall(rf"\b{m[1]}\b", body))
            <= len(re.findall(rf"\bfn {m[1]}\b", body))]
    lines = [f"{os.path.relpath(f, root)}: {name}" for f, name in dead]
    print("\n".join(lines + [str(len(lines))]))
    unkept = [line for line in lines if line not in KEPT]
    for line in unkept:
        print(f"dead_pub_fns: not kept: {line}", file=sys.stderr)
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
