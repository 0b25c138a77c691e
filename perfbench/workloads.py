"""Seeded workloads of the totref benchmark and the checker of their outputs.

Each workload in ``WORKLOADS`` is a function of the seed that parses its
rings, certifies its exact pairs and draws its inputs from
``random.Random(seed)``, then returns the operations to time.  Each operation is ``(key, call)``:
``call()`` makes the same public library calls a ``totref`` command makes
and renders the result to JSON, as the command does.  ``key`` names the
operation without the drawn units, so it also names the expected values in
``expected.json``: the units a seed draws never change a verdict, a class
count, a Hilbert function or a map count.

``summarize(output)`` reduces an output to what the checker compares, out
of the timed region.  ``scope`` fields and timings are never compared, so a
change that makes a scope exact does not count as a failure.

This module imports ``totref`` only inside the workload functions, so the
parent process of ``run.py`` can use the checker without importing the
program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

FAMILY_RING = {"kind": "graded", "p": 5, "vars": ["x", "y", "z"],
               "relations": ["x*y"]}
Z81 = {"kind": "finite", "p": 3, "k": 4}
Z27 = {"kind": "finite", "p": 3, "k": 3}

# (descriptor, x, y, valuations of a); None is a = 0.  Z/81 with a of
# valuation 2 or more, and a = 0, is left out: verify_end_ring refuses it
# with TooLarge, and a refusal has no time to compare.
END_INPUTS = ((Z81, 9, 9, (0, 1)), (Z27, 3, 9, (0, 1, 2, None)))

# valuation pattern of the twelve oracle multipliers over Z/27
ORACLE_PATTERN = (0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, None)

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _valuation_text(v) -> str:
    return "0" if v is None else f"3^{v}"


def _multiplier(rng: random.Random, n: int, v, taken=()) -> int:
    """A random u * 3^v in Z/n, distinct from ``taken``; v None gives 0."""
    if v is None:
        return 0
    choices = [u * 3 ** v % n for u in range(1, n) if u % 3]
    choices = sorted(set(choices) - set(taken))
    return rng.choice(choices)


def family_graded(seed: int):
    from totref import homcalc
    from totref.rings import ring_from_descriptor
    from totref.zerodiv import exact_pair

    unit = random.Random(seed).randrange(1, 5)
    ring = ring_from_descriptor(FAMILY_RING)
    pair = exact_pair(ring, ring.parse("x"), ring.parse("y"), 8)
    b = ring.parse(f"{unit}*z")
    return [("run_family(F_5[x,y,z]/(xy),x,y,b=c*z,n=3,D=8,i=2)",
             lambda: homcalc.run_family(pair, [b], 3, 8, 2).to_json())]


def end_finite(seed: int):
    from totref import family, homcalc
    from totref.rings import ring_from_descriptor
    from totref.zerodiv import exact_pair

    rng = random.Random(seed)
    ops = []
    for desc, x, y, valuations in END_INPUTS:
        ring = ring_from_descriptor(desc)
        n = ring.n
        pair = exact_pair(ring, ring.from_int(x), ring.from_int(y))
        elems = [ring.from_int(_multiplier(rng, n, v)) for v in valuations]
        tags = [_valuation_text(v) for v in valuations]
        where = f"Z/{n},{x},{y}"
        for k, a in enumerate(elems):
            j = (k + 1) % len(elems)
            ops.append((f"end({where},a={tags[k]})",
                        lambda a=a, pair=pair: homcalc.verify_end_ring(
                            pair, a, None, None, strict=False).to_json()))
            ops.append((f"tr({where},a={tags[k]})",
                        lambda a=a, pair=pair: family.verify_total_reflexivity(
                            pair, a, 2, None, strict=False).to_json()))
            ops.append((f"ext({where},a={tags[k]},b={tags[j]})",
                        lambda a=a, b=elems[j], pair=pair:
                        homcalc.verify_ext_swap(pair, a, b, 2,
                                                None).to_json()))
    return ops


def oracle_finite(seed: int):
    from totref import homcalc
    from totref.family import module_g, module_h
    from totref.rings import ring_from_descriptor
    from totref.zerodiv import exact_pair

    rng = random.Random(seed)
    ring = ring_from_descriptor(Z27)
    pair = exact_pair(ring, ring.from_int(3), ring.from_int(9))
    drawn: list[int] = []
    modules = []
    for v in ORACLE_PATTERN:
        drawn.append(_multiplier(rng, ring.n, v, drawn))
        a = ring.from_int(drawn[-1])
        tag = _valuation_text(v)
        modules.append((f"G[{tag}]", module_g(pair, a, strict=False)))
        modules.append((f"H[{tag}]", module_h(pair, a, strict=False)))

    def call(source, target):
        maps = homcalc.brute_force_hom_oracle(source, target)
        hp = homcalc.hom_presentation(source, target)
        return maps, homcalc.hom_maps_from_presentation(hp)

    return [(f"hom({s_tag},{t_tag})", lambda s=s, t=t: call(s, t))
            for s_tag, s in modules for t_tag, t in modules]


WORKLOADS = {"family-graded": family_graded, "end-finite": end_finite,
             "oracle-finite": oracle_finite}


# ---------------------------------------------------------------------------
# reducing outputs to checked values

def _walk(node: dict, depth: int = 0):
    yield depth, node
    for sub in node.get("subreports", []):
        yield from _walk(sub, depth + 1)


VERDICT_MARKS = {"pass": "p", "fail": "f", "precondition-failed": "c"}


def _tree_verdicts(root: dict) -> str:
    """The verdict tree in preorder, one ``<depth><mark>`` token a node."""
    return " ".join(f"{depth}{VERDICT_MARKS[node['verdict']]}"
                    for depth, node in _walk(root))


def _monomial(text: str) -> str:
    # a Fitting generator up to its unit coefficient: the same ideal
    return re.sub(r"^\d+\*", "", text)


def summarize(output):
    """(digest of the output bytes, checked values, report node count)."""
    if isinstance(output, tuple):
        maps, closure = output
        text = repr(sorted(maps))
        return (_digest(text),
                {"verdicts": "0p" if maps == closure else "0f",
                 "maps": len(maps)},
                0)
    doc = json.loads(output)
    if doc.get("kind") == "family-report":
        root = doc["certificates"]
        summary = {
            "verdicts": _tree_verdicts(root),
            "modules": [[m["flavor"], m["index"], m["mu"],
                         sorted(_monomial(g) for g in m["fitting_1"]),
                         m["hilbert"]] for m in doc["modules"]],
            # the cross-check's verdict, or "inconclusive" without reason
            "pairwise": [[p["verdict"], p["fitting_crosscheck"].split(":")[0]]
                         for p in doc["pairwise"]],
            "hom_table": [f"{h['route']}:{h['verdict']}"
                          for h in doc["hom_table"]],
        }
    else:
        root = doc
        summary = {"verdicts": _tree_verdicts(root),
                   "numbers": [[depth, key, node["details"][key]]
                               for depth, node in _walk(root)
                               for key in ("classes", "sizes", "other")
                               if key in node["details"]]}
    return _digest(output), summary, sum(1 for _ in _walk(root))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def flip_verdict(summary: dict) -> dict:
    """A copy of ``summary`` whose first verdict is inverted."""
    flipped = dict(summary)
    text = summary["verdicts"]
    swap = {"p": "f", "f": "p", "c": "p"}
    cut = next(i for i, ch in enumerate(text) if ch in swap)
    flipped["verdicts"] = text[:cut] + swap[text[cut]] + text[cut + 1:]
    return flipped


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def op_failed(record: dict, expected: dict) -> bool:
    """Whether an operation record misses its expected values.

    A record is ``{"key", "error", "summary"}``; an operation fails when it
    raised or when any checked value differs from the frozen one.
    """
    return record["error"] is not None or \
        record["summary"] != expected.get(record["key"])
