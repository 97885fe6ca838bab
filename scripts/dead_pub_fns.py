#!/usr/bin/env python3
"""List the `pub fn`s of the ten library crates that nothing outside tests calls.

The callers are `crates/*/src`, `src/`, `examples/` and `benchmark/src`.
Every file is read with its `//` comments (doc comments included), the
contents of its string literals, its `pub use` re-exports and its
`#[cfg(test)]` items stripped, so a test, a doc link, a message or a
re-export is not a caller. Then:

- an associated function without a `self` receiver is called only
  through `Type::name`, or `Self::name` inside an impl of its own type;
- any other function is called by any mention of its name other than at
  a definition of a function of that name, so another identifier with
  the same name counts, and can hide a dead method;
- a mention in the function's own body does not count, nor does one in
  the body of a function the scan lists (repeated until nothing changes,
  so a helper only a listed function calls is listed too).

    python3 scripts/dead_pub_fns.py [REPO_ROOT]

Prints one `path: name` line per uncalled function (`path: Type::name`
inside an impl), then the count; exits 1 when a printed line is not in
`KEPT` (`scripts/verify.sh`, and so `just verify`, gate on this).
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
    # The mixture oracle a rate-share dispatch rule's tests will check,
    # and the wait-time half it sums.
    "crates/queueing/src/md1.rs: MD1::response_time_cdf",
    "crates/queueing/src/md1.rs: MD1::wait_cdf",
    # A kept plain/_obs twin (ROADMAP Aim 2): its untraced callers are tests.
    "crates/clustersim/src/run.rs: ClusterSim::run_job_under_plan",
    # The workload builder (DESIGN.md §7): its entry points, driven by a
    # tier-1 test.
    "crates/workloads/src/builder.rs: WorkloadBuilder::new",
    "crates/workloads/src/builder.rs: WorkloadBuilder::node_measured",
    # Offered to downstream users in DESIGN.md §7.
    "crates/nodesim/src/microbench.rs: characterize_dvfs_exponent",
    "crates/nodesim/src/spec.rs: NodeSpec::custom",
    # Thermal throttling, offered in DESIGN.md §7.
    "crates/nodesim/src/thermal.rs: run_with_thermal",
    # M/M/c and M/D/c, offered in DESIGN.md §7.
    "crates/queueing/src/mdc.rs: MMc::new",
    "crates/queueing/src/mdc.rs: MMc::from_utilization",
    "crates/queueing/src/mdc.rs: MDc::new",
    "crates/queueing/src/mdc.rs: MDc::from_utilization",
    # Batch arrivals, offered in DESIGN.md §7.
    "crates/queueing/src/batch.rs: BatchMD1::new",
    "crates/queueing/src/batch.rs: BatchMD1::from_utilization",
    # QueueSim's closed-form test oracles.
    "crates/queueing/src/mm1.rs: MM1::new",
    "crates/queueing/src/mm1.rs: MM1::from_utilization",
    "crates/queueing/src/mg1.rs: MG1::new",
    "crates/queueing/src/mg1.rs: MG1::from_utilization",
}
# Whichever starts first wins: a comment, a raw or plain string, a char.
TOKEN = re.compile(r"""//[^\n]*|b?r(#*)".*?"\1|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])'""", re.S)
# A `pub use` re-export, up to its `;` (read after string contents are
# blanked, so a `;` in a string cannot end it early).
PUB_USE = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;")
# A `self` receiver: the first parameter is `self`, `&self`, `&'a mut
# self`, `mut self` or `self: T`.
RECEIVER = re.compile(r"\(\s*(?:&\s*(?:'\w+\s+)?)?(?:mut\s+)?self\b")


def blank(token):
    """A comment as spaces and a string literal as its quotes around
    spaces, so offsets hold; a char literal as it is."""
    if token.startswith("//"):
        return " " * len(token)
    if token.startswith("'"):
        return token
    head, tail = token.index('"') + 1, token.rindex('"')
    return token[:head] + " " * (tail - head) + token[tail:]


def masked(text):
    """`text` with every comment, string and char literal as `x`s, so
    their brackets are inert."""
    return TOKEN.sub(lambda m: "x" * len(m[0]), text)


def close(mask, i):
    """The index of the `}` that closes the `{` at `i`."""
    depth = 0
    while True:
        depth += {"{": 1, "}": -1}.get(mask[i], 0)
        if depth == 0:
            return i
        i += 1


def head_end(mask, i):
    """The first `{` or `;` from `i` outside parentheses and brackets:
    the end of an item's head (`[u64; 4]` is a type, not an end)."""
    depth = 0
    for j in range(i, len(mask)):
        c = mask[j]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c in "{;":
            return j
    return len(mask)


def strip(text):
    # Blank comments and string contents, drop `pub use` items, then cut
    # each `#[cfg(test)]` item, finding its extent in the masked copy.
    kept = PUB_USE.sub(lambda m: " " * len(m[0]), TOKEN.sub(lambda m: blank(m[0]), text))
    mask = masked(text)
    cuts = []
    for m in re.finditer(r"#\[cfg\(test\)\]", mask):
        if cuts and m.start() <= cuts[-1][1]:
            continue  # inside an item already cut
        end = head_end(mask, m.end())
        if mask[end] == "{":
            end = close(mask, end)
        cuts.append((m.start(), end))
    for start, end in reversed(cuts):
        kept = kept[:start] + kept[end + 1:]
    return kept


def impl_type(head):
    """The self type's name in an impl head (between `impl` and `{`)."""
    head = re.split(r"\bwhere\b", head.replace("->", "  "))[0].strip()
    if head.startswith("<"):  # the impl's own generics
        depth = 0
        for j, c in enumerate(head):
            depth += {"<": 1, ">": -1}.get(c, 0)
            if depth == 0:
                head = head[j + 1:]
                break
    head = re.split(r"\bfor\b", head)[-1].split("<")[0]
    return re.findall(r"\w+", head)[-1]


class Source:
    """One stripped file: its impl blocks `(type, start, end)` and its
    function definitions `(name, pub, type, receiver, body start, end)`."""

    def __init__(self, path):
        self.text = strip(open(path, encoding="utf-8").read())
        mask = masked(self.text)
        self.words = {}
        for m in re.finditer(r"\w+", self.text):
            self.words.setdefault(m[0], []).append(m.start())
        self.impls = []
        for m in re.finditer(r"\bimpl\b", mask):
            brace = head_end(mask, m.end())
            if brace < len(mask) and mask[brace] == "{":
                self.impls.append((impl_type(mask[m.end():brace]), brace, close(mask, brace)))
        self.fns = []
        for m in re.finditer(r"\b(pub )?fn (\w+)", mask):
            brace = head_end(mask, m.end())
            if brace >= len(mask) or mask[brace] != "{":
                continue  # a declaration without a body
            owner = [t for t, s, e in self.impls if s < m.start() < e]
            receiver = bool(RECEIVER.search(mask[m.end():brace]))
            self.fns.append((m[2], bool(m[1]), owner[-1] if owner else None, receiver,
                             brace, close(mask, brace)))

    def mentions(self, name, owner):
        """Offsets of what counts as a call of `name`: through `owner::`
        or `Self::` in an impl of `owner` when `owner` is set, else any
        mention but a definition."""
        found = []
        for at in self.words.get(name, []):
            before = self.text[max(0, at - 80):at]
            if owner is None:
                if not re.search(r"\bfn\s+$", before):
                    found.append(at)
            elif re.search(rf"\b{owner}(?:::<[^>]*>)?::$", before) or (
                    before.endswith("Self::")
                    and any(t == owner and s < at < e for t, s, e in self.impls)):
                found.append(at)
        return found


def main(root):
    def files(pattern):
        return sorted(glob.glob(os.path.join(root, pattern), recursive=True))

    libs = [f for c in LIBS for f in files(f"crates/{c}/src/**/*.rs")]
    corpus = (files("crates/*/src/**/*.rs") + files("src/**/*.rs")
              + files("examples/**/*.rs") + files("benchmark/src/**/*.rs"))
    src = {f: Source(f) for f in set(libs + corpus)}
    candidates = []
    for f in libs:
        for name, pub, owner, receiver, start, end in src[f].fns:
            if pub:
                assoc = owner if owner and not receiver else None
                calls = [(g, at) for g in corpus for at in src[g].mentions(name, assoc)]
                candidates.append((f, name, owner, (start, end), calls))

    def called(c, dead):
        """Whether a call of `c` lies outside its own body and every listed one."""
        bodies = [(f, body) for f, _, _, body, _ in dead + [c]]
        return any(not any(g == f and s < at < e for f, (s, e) in bodies) for g, at in c[4])

    dead = []
    while more := [c for c in candidates if c not in dead and not called(c, dead)]:
        dead += more
    lines = [f"{os.path.relpath(f, root)}: {owner + '::' if owner else ''}{name}"
             for f, name, owner, _, _ in sorted(dead, key=lambda c: (libs.index(c[0]), c[3]))]
    print("\n".join(lines + [str(len(lines))]))
    unkept = [line for line in lines if line not in KEPT]
    for line in unkept:
        print(f"dead_pub_fns: not kept: {line}", file=sys.stderr)
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))
