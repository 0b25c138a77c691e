"""Write the golden CLI corpus: every command below, with its digests.

    python tests/golden/write.py [MANIFEST]

Run it once, at the commit whose outputs the corpus pins; it writes
``manifest.jsonl`` beside this file by default.  Later changes replay the
manifest with ``replay.py`` and never write it again wholesale: a change
that moves a digest names the command, with its old and new output, in
CHANGES.md.  The corpus leaves out ``--output`` paths and internal errors
(exit 4), whose tracebacks carry file paths and line numbers.
"""

from __future__ import annotations

import itertools
import json
import sys

from replay import MANIFEST, record, run

F5_FILE = "rings/f5_xyz_xy.json"
F5_XY2 = ('{"kind": "graded", "p": 5, "vars": ["x", "y", "z"], '
          '"relations": ["x*y^2"]}')
F3_XXYY = ('{"kind": "graded", "p": 3, "vars": ["x", "y"], '
           '"relations": ["x^2", "y^2"]}')
Z9 = '{"kind": "finite", "p": 3, "k": 2}'
Z27 = '{"kind": "finite", "p": 3, "k": 3}'
Z8 = '{"kind": "finite", "p": 2, "k": 3}'
Z4_T2 = ('{"kind": "finite", "p": 2, "k": 2, "vars": ["t"], '
         '"relations": ["t^2"]}')
F2_T3 = ('{"kind": "finite", "p": 2, "k": 1, "vars": ["t"], '
         '"relations": ["t^3"]}')

# (ring, x, y, extra flags, the a elements, the b elements, the --b
# sequences of run-main); rings/f5_xyz_xy.json runs in the default degree
# window, the other graded rings in a small one
SETTINGS = [
    (F5_FILE, "x", "y", [], ["z", "z^2", "0"],
     ["z", "z^2"], ["z", "z,z^2"]),
    (F5_XY2, "x", "y^2", ["--degree", "4"], ["z", "y", "0"],
     ["z", "z^2"], ["z"]),
    (F5_XY2, "y^2", "x", ["--degree", "4"], ["z", "y", "0"],
     ["z", "z^2"], ["z"]),
    (F3_XXYY, "x", "x", ["--degree", "3"], ["y", "x", "0"],
     ["y", "x*y"], ["y"]),
    (F3_XXYY, "x+y", "x-y", ["--degree", "3"], ["y", "x", "0"],
     ["y", "x*y"], ["y"]),
    (Z9, "3", "3", [], ["3", "6", "0"], ["3", "1"], ["3", "2"]),
    (Z27, "3", "9", [], ["3", "9", "0"], ["3", "9"], ["3"]),
    (Z8, "2", "4", [], ["2", "4", "0"], ["2", "4"], ["2"]),
    (Z4_T2, "t", "t", [], ["t", "2", "0"], ["t", "2"], ["t"]),
    (F2_T3, "t", "t^2", [], ["t", "t^2", "0"], ["t", "t^2"], ["t"]),
]

MODES = [[], ["--probe"], ["--format", "json"]]


def verb_commands(ring, x, y, extra, a_elems, b_elems, b_seqs):
    """Every verb on one ring and pair, before the output mode."""
    base = ["--ring", ring, "--x", x, "--y", y, *extra]
    yield ["pair", "verify", *base]
    for a in a_elems:
        for action in ("build", "verify-complex", "verify-tr", "identify"):
            yield ["family", action, *base, "--a", a]
        yield ["hom", "verify-end", *base, "--a", a]
        for b in b_elems:
            for action in ("verify-hg", "verify-gaba", "verify-ext"):
                yield ["hom", action, *base, "--a", a, "--b", b]
    for b in b_seqs:
        yield ["family", "run-main", *base, "--b", b]
    flavors = [f"{kind}:{a}" for kind in ("gamma", "eta") for a in a_elems]
    for source, target in itertools.product(flavors, repeat=2):
        yield ["hom", "compute", *base, "--source", source,
               "--target", target]
        yield ["oracle", "hom", *base, "--source", source,
               "--target", target]


def refusals():
    """Inputs that end in a failed check, an unmet precondition or a
    refused input, before the output mode."""
    f5 = ["--ring", F5_FILE, "--x", "x", "--y", "y"]
    z9 = ["--ring", Z9, "--x", "3", "--y", "3"]
    # inhomogeneous elements
    yield ["pair", "verify", "--ring", F5_FILE, "--x", "x", "--y", "y+z^2"]
    yield ["pair", "verify", "--ring", F5_FILE, "--x", "x+z", "--y", "y"]
    for action in ("build", "verify-complex", "verify-tr", "identify"):
        yield ["family", action, *f5, "--a", "z+z^2"]
    yield ["hom", "verify-end", *f5, "--a", "z+z^2"]
    for action in ("verify-hg", "verify-gaba", "verify-ext"):
        yield ["hom", action, *f5, "--a", "z+z^2", "--b", "z"]
        yield ["hom", action, *f5, "--a", "z", "--b", "z+1"]
    yield ["family", "run-main", *f5, "--b", "z+z^2"]
    yield ["hom", "compute", *f5, "--source", "gamma:z+z^2",
           "--target", "eta:z"]
    # pairs that are not exact, and units
    for ring, x, y in ((Z8, "2", "2"), (Z27, "3", "3"), (F5_FILE, "x", "x"),
                       (F5_XY2, "x", "y"), (Z9, "0", "3"), (Z9, "1", "3"),
                       (F5_FILE, "1", "y")):
        pair = ["--ring", ring, "--x", x, "--y", y]
        yield ["pair", "verify", *pair]
        yield ["family", "build", *pair, "--a", "0"]
        yield ["hom", "verify-ext", *pair, "--a", "0", "--b", "0"]
    yield ["family", "run-main", *z9, "--b", "1"]
    yield ["family", "run-main", *f5, "--b", "x"]
    yield ["hom", "verify-hg", *z9, "--a", "1", "--b", "3"]
    # integer flags at and past their caps, and a --b list past 16
    yield ["family", "verify-complex", *z9, "--a", "3", "--length", "64"]
    yield ["family", "verify-complex", *z9, "--a", "3", "--length", "65"]
    yield ["family", "verify-tr", *z9, "--a", "3", "--i-max", "65"]
    yield ["hom", "verify-ext", *z9, "--a", "3", "--b", "3",
           "--i-max", "65"]
    yield ["family", "run-main", *f5, "--b", "z", "--n-max", "17"]
    yield ["family", "run-main", *f5, "--b", "z", "--i-max", "65"]
    yield ["family", "run-main", *f5, "--b", ",".join(["z"] * 17)]
    yield ["family", "run-main", "--ring", "rings/missing.json",
           "--x", "x", "--y", "y", "--b", ",".join(["z"] * 17)]
    yield ["family", "run-main", *f5, "--b", "z,z^2", "--n-max", "3"]
    yield ["family", "run-main", *f5, "--b", ",,"]
    # degree windows: below deg x + deg y, negative, past the carrier
    for window in ("-1", "0", "1", "2", "100000"):
        yield ["pair", "verify", *f5, "--degree", window]
        yield ["family", "verify-tr", *f5, "--a", "z", "--degree", window]
    yield ["pair", "verify", "--ring", F5_XY2, "--x", "x", "--y", "y^2",
           "--degree", "2"]
    yield ["pair", "verify", "--ring", F3_XXYY, "--x", "x+y", "--y", "x-y",
           "--degree", "1"]
    yield ["pair", "verify", "--ring", F3_XXYY, "--x", "x", "--y", "x",
           "--degree", "1"]
    yield ["pair", "verify", "--ring", F5_FILE, "--x", "0", "--y", "y",
           "--degree", "0"]
    yield ["pair", "verify", *z9, "--degree", "-1"]
    yield ["pair", "verify", *z9, "--degree", "3"]
    # budgets
    yield ["oracle", "hom", *z9, "--source", "gamma:3", "--target", "eta:3",
           "--budget", "1"]
    yield ["hom", "verify-end", *z9, "--a", "3", "--probe",
           "--idempotent-budget", "1"]
    # ring descriptors: malformed, missing or unsupported
    for ring in ("{bad", "{}", "[1]", "rings/missing.json", "rings",
                 '{"kind": "nope"}', '{"kind": "finite", "p": 3}',
                 '{"kind": "finite", "p": 4, "k": 1}',
                 '{"kind": "finite", "p": "3", "k": 2}',
                 '{"kind": "finite", "p": 3, "k": 0}',
                 '{"kind": "finite", "p": 2, "k": 2, "vars": ["s", "t"], '
                 '"relations": ["s^2", "t^2"]}',
                 '{"kind": "finite", "p": 2, "k": 2, "vars": ["t"], '
                 '"relations": ["t^2+t"]}',
                 '{"kind": "graded", "p": 5, "vars": []}',
                 '{"kind": "graded", "p": 5, "vars": ["x"], '
                 '"relations": ["x+1"]}',
                 '{"kind": "graded", "p": 6, "vars": ["x"], '
                 '"relations": []}'):
        yield ["pair", "verify", "--ring", ring, "--x", "3", "--y", "3"]
    yield ["pair", "verify", "--ring", Z9, "--x", "3", "--y", "bogus"]
    yield ["pair", "verify", *f5[:4], "--y", "w"]
    yield ["pair", "verify", *f5[:4], "--y", "y^"]
    # presentations written flavor:element
    for text in ("z", "gamma:", ":z", "foo:z", "gamma:q", "G:z", "h:z"):
        yield ["hom", "compute", *f5, "--source", text, "--target", "eta:z"]
        yield ["oracle", "hom", *z9, "--source", "gamma:3", "--target",
               text.replace("z", "3")]


def usage():
    """Command lines that argparse refuses, and the help texts."""
    z9 = ["--ring", Z9, "--x", "3", "--y", "3"]
    yield []
    yield ["pair"]
    yield ["nope", "verify"]
    yield ["pair", "verify", *z9[:4]]
    yield ["pair", "verify", *z9, "--format", "xml"]
    yield ["family", "verify-tr", *z9, "--a", "3", "--i-max", "two"]
    yield ["family", "build", *z9]
    yield ["hom", "compute", *z9, "--source", "gamma:3"]
    yield ["pair", "verify", *z9, "--degree"]
    yield ["pair", "verify", *z9, "--bogus"]
    yield ["--help"]
    for group, actions in (("pair", ["verify"]),
                           ("family", ["build", "verify-complex",
                                       "verify-tr", "identify",
                                       "run-main"]),
                           ("hom", ["compute", "verify-hg", "verify-gaba",
                                    "verify-end", "verify-ext"]),
                           ("oracle", ["hom"])):
        yield [group, "--help"]
        for action in actions:
            yield [group, action, "--help"]


def commands():
    for setting in SETTINGS:
        for argv in verb_commands(*setting):
            for mode in MODES:
                yield argv + mode
    for argv in refusals():
        for mode in (MODES[0], MODES[2]):
            yield argv + mode
    yield from usage()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    path = args[0] if args else MANIFEST
    lines = []
    for argv in commands():
        code, out, err = run(argv)
        if code == 4:
            raise SystemExit(f"internal error on {json.dumps(argv)}")
        lines.append(json.dumps(record(argv, code, out, err)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"{len(lines)} commands written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
