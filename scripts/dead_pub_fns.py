#!/usr/bin/env python3
"""List the `pub fn`s of the ten library crates that nothing outside tests names.

A name counts as called when it appears in `crates/*/src`, `src/`,
`examples/` or `benchmark/src` anywhere but at a definition of a function
of that name. Every file is read with its `//` comments (doc comments
included) and its `#[cfg(test)]` items stripped, so a test or a doc link
is not a caller. A `pub use` re-export, a string literal holding the name
and any other identifier with the same name (`new`, `run`) are mentions
too, and so count: each can hide a dead function.

    python3 scripts/dead_pub_fns.py [REPO_ROOT]

Prints one `path: name` line per uncalled function, then the count.
"""
import glob
import os
import re
import sys

LIBS = ["faults", "obs", "metrics", "queueing", "nodesim", "workloads",
        "clustersim", "serve", "core", "explore"]
# Whichever starts first wins: a comment, a raw or plain string, a char.
TOKEN = re.compile(r"""//[^\n]*|b?r(#*)".*?"\1|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])'""", re.S)


def strip(text):
    # Drop `//` comments (as spaces, so offsets hold), then cut each
    # `#[cfg(test)]` item, finding its extent in a copy with every
    # comment, string and char literal masked so their braces are inert.
    kept = TOKEN.sub(lambda m: " " * len(m[0]) if m[0].startswith("//") else m[0], text)
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
    for f, name in dead:
        print(f"{os.path.relpath(f, root)}: {name}")
    print(len(dead))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
