"""The two backends where they overlap: F_p[t]/(t^d).

The finite descriptor ``{"kind": "finite", "p": p, "k": 1, "vars": ["t"],
"relations": ["t^d"]}`` and the graded one ``{"kind": "graded", "p": p,
"vars": ["t"], "relations": ["t^d"]}`` name the same ring.  Its exact
pairs are (t^i, t^(d - i)).  The finite backend answers by enumeration, so
it is an oracle for the graded kernels and slices: every verb must reach
the same verdict and exit code on both, and a finite module of size p^n
must have graded slices of total dimension n.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from totref import cli, homcalc
from totref.family import module_g, module_h
from totref.rings import ring_from_descriptor
from totref.zerodiv import exact_pair

# the graded window of the command line's default --degree; every slice
# of these modules and of their Hom and Ext lies at or below it for d <= 6
BOUND = 8

FLAVORS = {"G": module_g, "H": module_h}

# (group, action, takes --a, takes --b)
VERBS = (("pair", "verify", False, False),
         ("family", "build", True, False),
         ("family", "verify-complex", True, False),
         ("family", "verify-tr", True, False),
         ("family", "identify", True, False),
         ("hom", "verify-hg", True, True),
         ("hom", "verify-gaba", True, True),
         ("hom", "verify-end", True, False),
         ("hom", "verify-ext", True, True))


def _descriptor(kind: str, p: int, d: int) -> dict:
    desc = {"kind": kind, "p": p, "vars": ["t"], "relations": [f"t^{d}"]}
    if kind == "finite":
        desc["k"] = 1
    return desc


def _power(j) -> str:
    return "0" if j is None else f"t^{j}"


@st.composite
def overlaps(draw):
    """(p, d, i, a, b): the pair (t^i, t^(d - i)), and a and b each a
    power of t below t^d, or None for 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    d = draw(st.integers(2, 6))
    i = draw(st.integers(1, d - 1))
    power = st.one_of(st.none(), st.integers(1, d - 1))
    return p, d, i, draw(power), draw(power)


def _run(kind, case, group, action, takes_a, takes_b):
    """(exit code, verdict or error or payload kind) of one command."""
    p, d, i, a, b = case
    argv = [group, action, "--ring", json.dumps(_descriptor(kind, p, d)),
            "--x", f"t^{i}", "--y", f"t^{d - i}", "--format", "json"]
    if takes_a:
        argv += ["--a", _power(a)]
    if takes_b:
        argv += ["--b", _power(b)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    payload = json.loads(out.getvalue())
    return code, payload.get("verdict", payload.get("error",
                                                    payload.get("kind")))


@settings(max_examples=30)
@given(overlaps(), st.sampled_from(VERBS), st.sampled_from("GH"),
       st.sampled_from("GH"))
def test_backends_agree_on_verdicts_and_module_sizes(case, verb, fa, fb):
    assert _run("graded", case, *verb) == _run("finite", case, *verb)
    # |Hom(M_a, N_b)| and |Ext^i(M_a, N_b)| against the graded dimensions
    p, d, i, a, b = case
    answers = []
    for kind in ("finite", "graded"):
        ring = ring_from_descriptor(_descriptor(kind, p, d))
        bound = BOUND if kind == "graded" else None
        pair = exact_pair(ring, ring.parse(f"t^{i}"),
                          ring.parse(f"t^{d - i}"), bound)
        elem_a, elem_b = (ring.zero() if j is None else ring.parse(f"t^{j}")
                          for j in (a, b))
        source = FLAVORS[fa](pair, elem_a)
        target = FLAVORS[fb](pair, elem_b)
        hom = homcalc.hom_presentation(source, target, bound).module
        ext = homcalc._ext_profile(pair, fa, elem_a, target, 2, bound)
        answers.append((hom, ext))
    (hom_f, ext_f), (hom_g, ext_g) = answers
    hom_dim = sum(hom_g.slice_dim(e)
                  for e in range(min(hom_g.gen_degs), BOUND + 1))
    assert hom_f.size() == p ** hom_dim
    assert ext_f == [p ** sum(dims.values()) for dims in ext_g]


def test_graded_ext_swap_accepts_a_zero_element():
    case = (3, 4, 2, None, 1)
    verb = ("hom", "verify-ext", True, True)
    assert _run("graded", case, *verb) == _run("finite", case, *verb)
