"""Command line front end.

Verbs: ``pair verify``, ``family build|verify-complex|verify-tr|identify``,
``hom compute|verify-hg|verify-gaba|verify-end|verify-ext``,
``family run-main`` and ``oracle hom``.  Each verb is one row of
``_HANDLERS``: a function of the parsed arguments, the ring and the pair
that returns the verb's payload.  ``main`` does the shared work once: it
checks the flag caps, loads the ring, builds the pair (checked exact for
every verb but ``pair verify``), runs the row and renders its payload.
Exit codes: 0 all checks pass,
1 a mathematical check failed (the report names the first failing
certificate), 2 usage or parse error, 3 a theorem precondition is unmet,
4 an internal error (an exception that is not a ``TotrefError``).
Every error also appears as a structured JSON record.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import traceback

from .errors import (LIMITS, EquivalenceViolation, ParseError,
                     PreconditionFailed, TotrefError, UnitInput, check_size)
from .family import (module_g, module_h, verify_complex,
                     verify_g_description, verify_total_reflexivity)
from .homcalc import (brute_force_hom_oracle, hom_presentation, run_family,
                      verify_end_ring, verify_ext_swap, verify_hom_g_ab_a,
                      verify_hom_hg)
from .modules import hilbert_function, minimal_generator_count
from .report import SCHEMA_VERSION, VerificationReport
from .rings import (DEFAULT_DEGREE_BOUND, FiniteLocalRing,
                    GradedMonomialRing, degree_bound, ring_from_descriptor)
from .zerodiv import check_window, exact_pair, verify_regular_pair

PRECONDITION_ERRORS = (PreconditionFailed, UnitInput)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totref",
        description="verify zero-divisor pair constructions and the "
                    "module families they generate")
    groups = parser.add_subparsers(dest="group", required=True)

    def common(sub):
        sub.add_argument("--ring", required=True,
                         help="ring descriptor: a JSON file path or an "
                              "inline JSON object")
        sub.add_argument("--x", required=True, help="first pair member")
        sub.add_argument("--y", required=True, help="second pair member")
        sub.add_argument("--degree", type=int, default=None,
                         help="degree bound for graded scopes "
                              f"(default {DEFAULT_DEGREE_BOUND})")
        sub.add_argument("--format", choices=("text", "json"),
                         default="text")
        sub.add_argument("--output", default=None,
                         help="write the report to this file instead of "
                              "stdout")
        sub.add_argument("--probe", action="store_true",
                         help="run checks even when theorem hypotheses "
                              "fail, recording their status")
        return sub

    pair_g = groups.add_parser("pair").add_subparsers(dest="action",
                                                      required=True)
    common(pair_g.add_parser("verify"))

    family_g = groups.add_parser("family").add_subparsers(dest="action",
                                                          required=True)
    sub = common(family_g.add_parser("build"))
    sub.add_argument("--a", required=True)
    sub = common(family_g.add_parser("verify-complex"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--length", type=int, default=4)
    sub = common(family_g.add_parser("verify-tr"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--i-max", type=int, default=2)
    sub = common(family_g.add_parser("identify"))
    sub.add_argument("--a", required=True)
    sub = common(family_g.add_parser("run-main"))
    sub.add_argument("--b", required=True,
                     help="multiplier element, or a comma separated "
                          "sequence b_1,...,b_n")
    sub.add_argument("--n-max", type=int, default=None)
    sub.add_argument("--i-max", type=int, default=2)

    hom_g = groups.add_parser("hom").add_subparsers(dest="action",
                                                    required=True)
    sub = common(hom_g.add_parser("compute"))
    sub.add_argument("--source", required=True,
                     help="flavor:element, e.g. gamma:z or eta:3")
    sub.add_argument("--target", required=True)
    sub = common(hom_g.add_parser("verify-hg"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub = common(hom_g.add_parser("verify-gaba"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub = common(hom_g.add_parser("verify-end"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--idempotent-budget", type=int, default=None,
                     help="cap on |End/m End|, whose elements are "
                          "tested for idempotents unless End = A is "
                          f"certified (default {LIMITS['end_maps']})")
    sub = common(hom_g.add_parser("verify-ext"))
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)
    sub.add_argument("--i-max", type=int, default=2)

    oracle_g = groups.add_parser("oracle").add_subparsers(dest="action",
                                                          required=True)
    sub = common(oracle_g.add_parser("hom"))
    sub.add_argument("--source", required=True)
    sub.add_argument("--target", required=True)
    sub.add_argument("--budget", type=int, default=None)
    return parser


def _load_ring(source: str):
    text = source.strip()
    if text.startswith("{"):
        try:
            desc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid inline ring descriptor: {exc}")
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                desc = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read ring file {source!r}: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"invalid ring file {source!r}: {exc}")
    return ring_from_descriptor(desc)


def _pair_of(ring, args, verified: bool):
    x, y = ring.parse(args.x), ring.parse(args.y)
    if isinstance(ring, GradedMonomialRing):
        window = degree_bound(args.degree)
        # the window enumerates every monomial of degree <= window
        nvars = len(ring.variables)
        check_size(math.comb(window + nvars, nvars), LIMITS["carrier"],
                   "--degree {window} spans {value} monomials, past the "
                   "carrier budget", window=window)
        check_window(x, y, window, "--degree")
    pair = exact_pair(ring, x, y, args.degree)
    if verified and not pair.is_exact:
        raise PreconditionFailed(
            f"({args.x}, {args.y}) is not an exact pair of zero divisors: "
            f"{pair.exact_report.first_failure() or 'exactness fails'}")
    return pair


def _presentation(pair, text: str):
    kind, sep, expr = text.partition(":")
    if not sep or not expr:
        raise ParseError("presentations are written flavor:element, "
                         "e.g. gamma:z or eta:3")
    kind = kind.strip().lower()
    elem = pair.ring.parse(expr)
    if kind in ("gamma", "g"):
        return module_g(pair, elem)
    if kind in ("eta", "h"):
        return module_h(pair, elem)
    raise ParseError(f"unknown presentation flavor {kind!r}; "
                     "use gamma or eta")


def _module_stats(module, bound) -> dict:
    stats = {"label": module.label,
             "presentation": repr(module.rho),
             "minimal_generators": minimal_generator_count(module)}
    if isinstance(module.ring, FiniteLocalRing):
        stats["size"] = module.size()
    else:
        stats["hilbert_function"] = hilbert_function(module, 0,
                                                     degree_bound(bound))
    return stats


def _pair_verify(args, ring, pair):
    rep = pair.exact_report
    reg = verify_regular_pair(pair, args.degree)
    rep.details["regular"] = pair.regular
    rep.details["regularity_conditions"] = {
        key: reg.details[key]
        for key in ("x_injective_mod_y", "y_injective_mod_x",
                    "intersection_trivial")}
    return rep


def _family_build(args, ring, pair):
    a = ring.parse(args.a)
    return {"schema": SCHEMA_VERSION, "kind": "family-build",
            "ring": ring.descriptor(), "pair": pair.describe(),
            "a": ring.format(a),
            "modules": [_module_stats(module_g(pair, a), args.degree),
                        _module_stats(module_h(pair, a), args.degree)]}


def _hom_compute(args, ring, pair):
    source = _presentation(pair, args.source)
    target = _presentation(pair, args.target)
    hp = hom_presentation(source, target, args.degree)
    return {"schema": SCHEMA_VERSION, "kind": "hom-presentation",
            "source": source.label, "target": target.label,
            "scope": hp.scope,
            "generators": [repr(g) for g in hp.generators],
            "generator_degrees": list(hp.gen_degrees),
            "module": _module_stats(hp.module, args.degree)}


def _oracle_hom(args, ring, pair):
    source = _presentation(pair, args.source)
    target = _presentation(pair, args.target)
    maps = brute_force_hom_oracle(source, target, args.budget)
    return {"schema": SCHEMA_VERSION, "kind": "hom-oracle",
            "source": source.label, "target": target.label,
            "map_count": len(maps)}


# each verb maps (args, ring, pair) to its payload: a VerificationReport, a
# FamilyReport or a dict; main loads the ring and checks the pair first
_HANDLERS = {
    ("pair", "verify"): _pair_verify,
    ("family", "build"): _family_build,
    ("family", "verify-complex"): lambda args, ring, pair: verify_complex(
        pair, ring.parse(args.a), args.length, args.degree,
        strict=not args.probe),
    ("family", "verify-tr"): lambda args, ring, pair:
        verify_total_reflexivity(pair, ring.parse(args.a), args.i_max,
                                 args.degree, strict=not args.probe),
    ("family", "identify"): lambda args, ring, pair: verify_g_description(
        pair, ring.parse(args.a), args.degree, strict=not args.probe),
    ("family", "run-main"): lambda args, ring, pair: run_family(
        pair, args.b, args.n_max, args.degree, args.i_max),
    ("hom", "compute"): _hom_compute,
    ("hom", "verify-hg"): lambda args, ring, pair: verify_hom_hg(
        pair, ring.parse(args.a), ring.parse(args.b), args.degree,
        strict=not args.probe),
    ("hom", "verify-gaba"): lambda args, ring, pair: verify_hom_g_ab_a(
        pair, ring.parse(args.a), ring.parse(args.b), args.degree,
        strict=not args.probe),
    ("hom", "verify-end"): lambda args, ring, pair: verify_end_ring(
        pair, ring.parse(args.a), args.degree, args.idempotent_budget,
        strict=not args.probe),
    ("hom", "verify-ext"): lambda args, ring, pair: verify_ext_swap(
        pair, ring.parse(args.a), ring.parse(args.b), args.i_max,
        args.degree),
    ("oracle", "hom"): _oracle_hom,
}


def _render(args, payload, code: int) -> str:
    if isinstance(payload, dict):
        if args.format == "json":
            return json.dumps(payload, indent=2)
        lines = []
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            lines.append(f"{key}: {value}")
        return "\n".join(lines)
    # a FamilyReport is its certificates under a header of its records
    rep, lines = payload, []
    if not isinstance(payload, VerificationReport):
        rep = payload.certificates
        lines = [f"family run: {'pass' if payload.passed else 'fail'}",
                 f"ring: {json.dumps(payload.ring)}",
                 f"pair: {json.dumps(payload.pair)}",
                 f"b: {payload.b_elements}", f"a: {payload.a_elements}"]
        lines += ["module " + json.dumps(entry) for entry in payload.modules]
        lines += ["pairwise " + json.dumps(entry)
                  for entry in payload.pairwise]
        lines += ["hom " + json.dumps(entry) for entry in payload.hom_table]
    if code == 1:
        rep.details["first_failing_certificate"] = rep.first_failure()
    if args.format == "json":
        return payload.to_json()
    lines += rep.summary_lines()
    if code == 1:
        lines.append(f"first failing certificate: {rep.first_failure()}")
    return "\n".join(lines)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text, flush=True)


def _emit_error(args, exc: BaseException, code: int) -> int:
    record = {"schema": SCHEMA_VERSION, "kind": "error",
              "error": type(exc).__name__, "message": str(exc),
              "exit_code": code}
    if getattr(args, "format", "text") == "json":
        with contextlib.suppress(OSError):  # else stderr takes the record
            _emit(args, json.dumps(record, indent=2))
            return code
    print(f"error: {exc}", file=sys.stderr)
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        record = {"schema": SCHEMA_VERSION, "kind": "error",
                  "error": "UsageError",
                  "message": "invalid command line", "exit_code": 2}
        print(json.dumps(record), file=sys.stderr)
        return 2
    handler = _HANDLERS[(args.group, args.action)]
    try:
        if args.degree is not None and args.degree < 0:
            raise ParseError(f"--degree must be non-negative, "
                             f"got {args.degree}")
        # a budget below 1 would refuse every input
        for name in ("budget", "idempotent_budget"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise ParseError(f"--{name.replace('_', '-')} must be at "
                                 f"least 1, got {value}")
        for name in ("length", "i_max", "n_max"):  # the flags LIMITS caps
            value = getattr(args, name, None)
            if value is not None:
                check_size(value, LIMITS[name],
                           "--{flag} {value} is past the cap of {cap}",
                           flag=name.replace("_", "-"))
        if args.action == "run-main":  # the --b list sets n_max too
            args.b = [part.strip() for part in args.b.split(",")
                      if part.strip()]
            check_size(len(args.b), LIMITS["n_max"],
                       "--b lists {value} multipliers, past the cap of {cap}")
        ring = _load_ring(args.ring)
        pair = _pair_of(ring, args, verified=args.group != "pair")
        payload = handler(args, ring, pair)
        code = 0 if getattr(payload, "passed", True) else 1
        text = _render(args, payload, code)
    except PRECONDITION_ERRORS as exc:
        return _emit_error(args, exc, 3)
    except EquivalenceViolation as exc:
        return _emit_error(args, exc, 1)
    except TotrefError as exc:
        return _emit_error(args, exc, 2)
    except Exception as exc:
        traceback.print_exc()
        return _emit_error(args, exc, 4)
    try:
        _emit(args, text)
    except OSError as exc:
        if args.output or not isinstance(exc, BrokenPipeError):
            return _emit_error(args, ParseError(str(exc)), 2)
        # the reader closed stdout early: the verdict stands, and the
        # flush at exit goes to the null device instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
