"""Command line behavior: exit codes, JSON records, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from totref import cli, homcalc
from totref.cli import main
from totref.errors import LIMITS

Z9 = '{"kind": "finite", "p": 3, "k": 2}'
Z8 = '{"kind": "finite", "p": 2, "k": 3}'
F5 = ('{"kind": "graded", "p": 5, "vars": ["x", "y", "z"], '
      '"relations": ["x*y"]}')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_verify_exact_non_regular(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", Z9,
                       "--x", "3", "--y", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["verdict"] == "pass"
    assert payload["details"]["regular"] == "false"


def test_pair_verify_regular_graded(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", F5,
                       "--x", "x", "--y", "y", "--degree", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["regular"] == "true"
    conds = payload["details"]["regularity_conditions"]
    assert list(conds.values()) == [True, True, True]


def test_pair_verify_on_a_carrier_too_large_to_enumerate(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring",
                       '{"kind": "finite", "p": 2, "k": 40}', "--x", "2",
                       "--y", str(2 ** 39), "--format", "json")
    assert code == 0
    assert json.loads(out)["details"]["regular"] == "false"


def test_pair_verify_inhomogeneous_member_is_a_structured_error(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", F5, "--x", "x",
                       "--y", "y+z^2", "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "NonHomogeneous"
    assert record["exit_code"] == 2


def test_pair_verify_non_exact_exits_one(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", Z8,
                       "--x", "2", "--y", "2", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["details"]["first_failing_certificate"]


def test_unit_input_exits_three(capsys):
    code, _, err = run(capsys, "pair", "verify", "--ring", Z9,
                       "--x", "1", "--y", "3")
    assert code == 3
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "UnitInput"
    assert record["exit_code"] == 3


def test_precondition_gate_on_verify_verbs(capsys):
    code, _, err = run(capsys, "hom", "verify-end", "--ring", Z9,
                       "--x", "3", "--y", "3", "--a", "3")
    assert code == 3
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "PreconditionFailed"


def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "pair", "verify", "--ring", Z9,
                       "--x", "3", "--y", "bogus")
    assert code == 2
    record = json.loads(err.strip().splitlines()[-1])
    assert record["exit_code"] == 2


def test_missing_ring_file_exits_two(capsys):
    code, _, err = run(capsys, "pair", "verify", "--ring",
                       "/no/such/file.json", "--x", "3", "--y", "3")
    assert code == 2


def test_usage_error_exits_two(capsys):
    code, _, _ = run(capsys, "pair", "verify", "--ring", Z9, "--x", "3")
    assert code == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_json_error_record_on_json_format(capsys):
    code, out, _ = run(capsys, "hom", "verify-end", "--ring", Z9,
                       "--x", "3", "--y", "3", "--a", "3",
                       "--format", "json")
    assert code == 3
    record = json.loads(out)
    assert record["kind"] == "error"


def test_internal_error_exits_four_with_a_record(capsys, monkeypatch):
    def broken(args, ring, pair):
        raise RuntimeError("defect")

    monkeypatch.setitem(cli._HANDLERS, ("pair", "verify"), broken)
    code, out, err = run(capsys, "pair", "verify", "--ring", Z9,
                         "--x", "3", "--y", "3", "--format", "json")
    assert code == 4
    assert "RuntimeError: defect" in err
    record = json.loads(out)
    assert record["kind"] == "error"
    assert record["error"] == "RuntimeError"
    assert record["exit_code"] == 4


def test_family_build_payload(capsys):
    code, out, _ = run(capsys, "family", "build", "--ring", F5,
                       "--x", "x", "--y", "y", "--a", "z",
                       "--degree", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "family-build"
    labels = [m["label"] for m in payload["modules"]]
    assert labels == ["G(z)", "H(z)"]
    assert payload["modules"][0]["hilbert_function"][:3] == [2, 4, 6]


def test_family_verify_complex_text(capsys):
    code, out, _ = run(capsys, "family", "verify-complex", "--ring", Z9,
                       "--x", "3", "--y", "3", "--a", "2")
    assert code == 0
    assert "periodic-complex: ok" in out


def test_family_verify_complex_refuses_a_window_without_exactness(capsys):
    # below two differentials no position is checked, so a pass would be
    # vacuous
    for length in ("1", "0", "-3"):
        code, out, _ = run(capsys, "family", "verify-complex", "--ring",
                           F5, "--x", "x", "--y", "y", "--a", "z",
                           "--degree", "8", "--length", length,
                           "--format", "json")
        assert code == 2, length
        assert json.loads(out)["error"] == "TotrefError"


def test_family_verbs_at_a_zero_when_x_and_y_differ_in_degree(capsys):
    # G_0 and H_0 must chain in the periodic resolution although
    # deg x != deg y
    cases = [('{"kind": "graded", "p": 5, "vars": ["x", "y", "z"], '
              '"relations": ["x*y^2"]}', "x", "y^2"),
             ('{"kind": "graded", "p": 2, "vars": ["t"], '
              '"relations": ["t^5"]}', "t^2", "t^3")]
    for ring, x, y in cases:
        for verb in ("verify-tr", "verify-complex"):
            code, out, _ = run(capsys, "family", verb, "--ring", ring,
                               "--x", x, "--y", y, "--a", "0",
                               "--degree", "8", "--format", "json")
            assert code == 0, (ring, verb)
            assert json.loads(out)["verdict"] == "pass", (ring, verb)


def test_family_identify_verb(capsys):
    args = ("family", "identify", "--ring", F5, "--x", "x", "--y", "y",
            "--degree", "8", "--format", "json")
    for a, node in (("z*x", "decomposable-case"),
                    ("z", "ideal-description")):
        code, out, _ = run(capsys, *args, "--a", a)
        assert code == 0, a
        payload = json.loads(out)
        assert (payload["name"], payload["verdict"]) == (node, "pass")
    # y is neither in (x) nor injective on A/(y)
    code, out, _ = run(capsys, *args, "--a", "y")
    assert code == 3
    assert json.loads(out)["error"] == "PreconditionFailed"
    code, out, _ = run(capsys, *args, "--a", "y", "--probe")
    assert code == 1
    assert json.loads(out)["name"] == "ideal-description"


def test_hom_compute_and_oracle_agree(capsys):
    code, out, _ = run(capsys, "hom", "compute", "--ring", Z9,
                       "--x", "3", "--y", "3", "--source", "gamma:0",
                       "--target", "gamma:0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "hom-presentation"
    assert payload["module"]["size"] == 81
    code, out, _ = run(capsys, "oracle", "hom", "--ring", Z9,
                       "--x", "3", "--y", "3", "--source", "gamma:0",
                       "--target", "gamma:0", "--format", "json")
    assert code == 0
    assert json.loads(out)["map_count"] == 81


def test_hom_compute_rejects_bad_flavor(capsys):
    code, _, err = run(capsys, "hom", "compute", "--ring", Z9,
                       "--x", "3", "--y", "3", "--source", "delta:0",
                       "--target", "gamma:0")
    assert code == 2


def test_probe_flag_runs_despite_failed_hypotheses(capsys):
    code, out, _ = run(capsys, "hom", "verify-hg", "--ring", Z9,
                       "--x", "3", "--y", "3", "--a", "2", "--b", "3",
                       "--probe", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["details"]["hypotheses"]["satisfied"] is False


def test_verify_ext_verb(capsys):
    code, out, _ = run(capsys, "hom", "verify-ext", "--ring", Z9,
                       "--x", "3", "--y", "3", "--a", "3", "--b", "6",
                       "--i-max", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_output_file_and_determinism(tmp_path, capsys):
    args = ["family", "run-main", "--ring", F5, "--x", "x", "--y", "y",
            "--b", "z", "--n-max", "2", "--degree", "5",
            "--format", "json"]
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    capsys.readouterr()
    blob1 = first.read_bytes()
    blob2 = second.read_bytes()
    assert blob1 == blob2
    payload = json.loads(blob1)
    assert payload["kind"] == "family-report"
    assert payload["certificates"]["verdict"] == "pass"


def test_run_main_text_format(capsys):
    code, out, _ = run(capsys, "family", "run-main", "--ring", F5,
                       "--x", "x", "--y", "y", "--b", "z",
                       "--n-max", "2", "--degree", "5")
    assert code == 0
    assert out.startswith("family run: pass")


@pytest.mark.parametrize("b, n_max, floor", [("z", 5, 5), ("z^2", 3, 6),
                                              ("z^2", 4, 8)])
def test_run_main_window_is_floored_at_the_largest_a_n(capsys, monkeypatch,
                                                       b, n_max, floor):
    # below deg a_n the window cannot tell a_n from 0, nor the run's
    # certificates G(a_n) from H(a_n); the refusal comes before the first
    # certificate
    ring = str(Path(__file__).resolve().parents[1] / "rings" /
               "f5_xyz_xy.json")
    args = ["family", "run-main", "--ring", ring, "--x", "x", "--y", "y",
            "--b", b, "--n-max", str(n_max), "--format", "json"]
    certify = homcalc.verify_total_reflexivity
    started = []

    def counted(*rest):
        started.append(rest)
        return certify(*rest)

    monkeypatch.setattr(homcalc, "verify_total_reflexivity", counted)
    start = time.perf_counter()
    code, out, _ = run(capsys, *args, "--degree", str(floor - 1))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and not started
    record = json.loads(out)
    assert record["error"] == "ParseError"
    assert record["message"] == (
        f"window {floor - 1} is below deg a_n = {floor} for the largest "
        "a_n; the window cannot tell a_n from 0")
    code, out, _ = run(capsys, *args, "--degree", str(floor))
    assert code == 0 and len(started) == n_max
    assert json.loads(out)["certificates"]["verdict"] == "pass"


@pytest.mark.parametrize("flags, n_max", [(("--b", ",,"), 0),
                                          (("--b", "z", "--n-max", "0"), 0),
                                          (("--b", "z", "--n-max", "-2"), -2)])
def test_run_main_refuses_an_empty_family(capsys, flags, n_max):
    code, out, _ = run(capsys, "family", "run-main", "--ring", F5, "--x", "x",
                       "--y", "y", *flags, "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "TotrefError"
    assert record["message"] == f"n_max must be at least 1, got {n_max}"


def test_inline_vs_file_ring_descriptors(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(Z9, encoding="utf-8")
    code_inline, out_inline, _ = run(capsys, "pair", "verify", "--ring",
                                     Z9, "--x", "3", "--y", "3",
                                     "--format", "json")
    code_file, out_file, _ = run(capsys, "pair", "verify", "--ring",
                                 str(path), "--x", "3", "--y", "3",
                                 "--format", "json")
    assert code_inline == code_file == 0
    assert out_inline == out_file


def test_negative_degree_is_a_usage_error(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", F5,
                       "--x", "x", "--y", "y", "--degree", "-3",
                       "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["kind"] == "error"
    assert record["exit_code"] == 2


def test_malformed_ring_descriptors_exit_two(capsys):
    for ring in ('{"kind":"finite"}', '{"kind":"finite","p":"a","k":2}'):
        code, out, _ = run(capsys, "pair", "verify", "--ring", ring,
                           "--x", "3", "--y", "3", "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["error"] == "ParseError"
        assert record["exit_code"] == 2


def test_window_below_the_pair_degree_is_refused(capsys):
    ring = str(Path(__file__).resolve().parents[1] / "rings" /
               "f5_xyz_xy.json")
    for y, degree, expected in (("y*z", "0", 2), ("y*z", "3", 1),
                                ("y", "1", 2), ("y", "2", 0)):
        code, out, _ = run(capsys, "pair", "verify", "--ring", ring,
                           "--x", "x", "--y", y, "--degree", degree,
                           "--format", "json")
        assert code == expected, (y, degree)
        if expected == 2:
            assert json.loads(out)["error"] == "ParseError"


# every graded verb that takes a family element, with an inhomogeneous one
INHOMOGENEOUS = "z^2+x"
GRADED_VERB_SHAPES = {
    "build": ("family", "build", "--a", INHOMOGENEOUS),
    "verify-complex": ("family", "verify-complex", "--a", INHOMOGENEOUS),
    "verify-tr": ("family", "verify-tr", "--a", INHOMOGENEOUS),
    "identify": ("family", "identify", "--a", INHOMOGENEOUS),
    "run-main": ("family", "run-main", "--b", INHOMOGENEOUS),
    "compute-source": ("hom", "compute", "--source",
                       f"gamma:{INHOMOGENEOUS}", "--target", "eta:z"),
    "compute-target": ("hom", "compute", "--source", "eta:z",
                       "--target", f"gamma:{INHOMOGENEOUS}"),
    "verify-hg": ("hom", "verify-hg", "--a", INHOMOGENEOUS, "--b", "z"),
    "verify-gaba": ("hom", "verify-gaba", "--a", INHOMOGENEOUS, "--b", "z"),
    "verify-end": ("hom", "verify-end", "--a", INHOMOGENEOUS),
    "verify-ext": ("hom", "verify-ext", "--a", INHOMOGENEOUS, "--b", "z"),
}


@pytest.mark.parametrize("probe", [(), ("--probe",)], ids=["", "probe"])
@pytest.mark.parametrize("shape", GRADED_VERB_SHAPES.values(),
                         ids=GRADED_VERB_SHAPES.keys())
def test_graded_verbs_refuse_inhomogeneous_elements(capsys, shape, probe):
    ring = str(Path(__file__).resolve().parents[1] / "rings" /
               "f5_xyz_xy.json")
    code, out, _ = run(capsys, *shape[:2], "--ring", ring, "--x", "x",
                       "--y", "y", "--format", "json", *shape[2:], *probe)
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "NonHomogeneous"
    assert record["exit_code"] == 2


def test_degree_window_past_the_carrier_budget_is_refused(capsys,
                                                          monkeypatch):
    ring = str(Path(__file__).resolve().parents[1] / "rings" /
               "f5_xyz_xy.json")

    def reached(*args):
        raise cli.PreconditionFailed("the window was accepted")

    monkeypatch.setattr(cli, "exact_pair", reached)
    # a window of C(D + 3, 3) monomials: C(229, 3) = 1,975,354 fits the
    # carrier budget of 2,000,000, C(230, 3) = 2,001,460 does not
    for degree, expected in (("99999999999", 2), ("227", 2), ("226", 3)):
        code, out, _ = run(capsys, "pair", "verify", "--ring", ring,
                           "--x", "x", "--y", "y", "--degree", degree,
                           "--format", "json")
        assert code == expected, degree
        if expected == 2:
            assert json.loads(out)["error"] == "TooLarge"


def test_integer_flags_past_their_cap_are_refused_before_any_work(
        capsys, monkeypatch):
    def reached(*args):
        raise cli.PreconditionFailed("the value was accepted")

    monkeypatch.setattr(cli, "_load_ring", reached)
    for argv, flag in ((("family", "verify-complex", "--a", "1"), "--length"),
                       (("family", "verify-tr", "--a", "1"), "--i-max"),
                       (("family", "run-main", "--b", "3"), "--n-max"),
                       (("family", "run-main", "--b", "3"), "--i-max"),
                       (("hom", "verify-ext", "--a", "1", "--b", "1"),
                        "--i-max")):
        cap = LIMITS[flag[2:].replace("-", "_")]
        for value, expected in ((str(cap), 3), (str(cap + 1), 2),
                                ("100000000000", 2)):
            code, out, _ = run(capsys, *argv, flag, value, "--ring", Z9,
                               "--x", "3", "--y", "3", "--format", "json")
            assert code == expected, (argv, flag, value)
            record = json.loads(out)
            assert record["kind"] == "error"
            assert record["exit_code"] == expected
            if expected == 2:
                assert record["error"] == "TooLarge"
    # a --b list longer than the --n-max cap sets n_max past it
    cap = LIMITS["n_max"]
    for count, expected in ((cap, 3), (cap + 1, 2)):
        code, out, _ = run(capsys, "family", "run-main", "--b",
                           ",".join(["3"] * count), "--ring", Z9, "--x", "3",
                           "--y", "3", "--format", "json")
        assert code == expected, count
        assert json.loads(out)["exit_code"] == expected


def test_budgets_below_one_are_refused_before_the_ring_is_read(
        capsys, monkeypatch):
    def reached(*args):
        raise cli.PreconditionFailed("the value was accepted")

    monkeypatch.setattr(cli, "_load_ring", reached)
    for argv, flag in ((("oracle", "hom", "--source", "gamma:3", "--target",
                         "eta:3"), "--budget"),
                       (("hom", "verify-end", "--a", "3"),
                        "--idempotent-budget")):
        for value, expected in (("-1", 2), ("0", 2), ("1", 3)):
            code, out, _ = run(capsys, *argv, flag, value, "--ring", Z9,
                               "--x", "3", "--y", "3", "--format", "json")
            assert code == expected, (flag, value)
            record = json.loads(out)
            assert record["exit_code"] == expected
            if expected == 2:
                assert record["error"] == "ParseError"
                assert record["message"] == \
                    f"{flag} must be at least 1, got {value}"


def test_a_caller_budget_refusal_names_the_count_and_the_budget(capsys):
    code, out, _ = run(capsys, "oracle", "hom", "--ring", Z9, "--x", "3",
                       "--y", "3", "--source", "gamma:3", "--target",
                       "eta:3", "--budget", "100", "--format", "json")
    assert code == 2
    assert json.loads(out)["message"] == \
        "coset table of 162 cells exceeds the budget of 100"


def test_closed_stdout_keeps_the_verdict_exit_code():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "totref.cli", "pair", "verify", "--ring", Z9,
         "--x", "3", "--y", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_deep_parenthesis_nesting_is_a_parse_error(capsys):
    code, out, _ = run(capsys, "pair", "verify", "--ring", F5,
                       "--x", "(" * 3000 + "x" + ")" * 3000, "--y", "y",
                       "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["error"] == "ParseError"
    assert record["exit_code"] == 2
    code, _, _ = run(capsys, "pair", "verify", "--ring", F5, "--degree", "4",
                     "--x", "(" * 100 + "x" + ")" * 100, "--y", "y")
    assert code == 0
    # the JSON decoder of a ring descriptor recurses on nesting too
    deep = '{"kind": ' + "[" * 20000 + "]" * 20000 + "}"
    code, out, _ = run(capsys, "pair", "verify", "--ring", deep,
                       "--x", "3", "--y", "3", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


def test_run_main_has_no_probe_mode(capsys):
    # --probe is accepted, but run-main still needs a regular pair
    code, _, err = run(capsys, "family", "run-main", "--ring",
                       '{"kind": "finite", "p": 2, "k": 4}', "--x", "4",
                       "--y", "4", "--b", "2", "--n-max", "2", "--probe")
    assert code == 3
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "PreconditionFailed"


def test_fuzz_findings_are_structured_errors(capsys):
    # verify-tr read d_2 off a resolution of length i_max + 1 (exit 4 at
    # i_max 0), verify-ext passed with no Ext degree compared at i_max 0,
    # and an unwritable --output escaped as a traceback
    tr = ("family", "verify-tr", "--a", "1")
    for argv in ((*tr, "--i-max", "0"),
                 (*tr, "--output", "no_such_dir/out.json"),
                 ("hom", "verify-ext", "--a", "1", "--b", "1", "--i-max",
                  "0")):
        code, out, err = run(capsys, *argv, "--ring", Z9, "--x", "3",
                             "--y", "3", "--format", "json")
        assert code == 2, argv
        assert "Traceback" not in err
        record = json.loads(out or err.strip().splitlines()[-1])
        assert record["exit_code"] == 2


# -- exit-code fuzz ---------------------------------------------------------

Z4T = ('{"kind": "finite", "p": 2, "k": 2, "vars": ["t"], '
       '"relations": ["t^2"]}')
# well-formed inputs (ring, x, y, module element) the fuzz starts from
SETUPS = ((Z9, "3", "3", "1"), (Z8, "2", "4", "3"), (F5, "x", "y", "z"),
          (Z4T, "t", "t", "1"))
# descriptor fields: well-formed small values beside wrong types and values
DESCRIPTORS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["finite", "graded", "mystery", None, 3])},
    optional={
        "p": st.sampled_from([2, 3, 5, 4, 1, 0, -3, "3", "a", 2.5, True,
                              None, [3]]),
        "k": st.sampled_from([1, 2, 3, 0, -1, "2", 2.5, None]),
        "vars": st.sampled_from([[], ["x"], ["x", "y"], ["t"], "x", [1],
                                 ["x", "x"], [""], ["x y"]]),
        "relations": st.sampled_from([[], ["x^2"], ["x*y"], ["t^2"],
                                      ["t^2", "t^3"], "x", [3], ["x+1"],
                                      ["1"], ["0"], ["y^2"], ["t"]])})
BAD_RINGS = st.one_of(DESCRIPTORS.map(json.dumps),
                      st.sampled_from(["{", "[1, 2]", "", "{\"kind\": "]),
                      st.text(max_size=10))
BAD_ELEMENTS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "x", "y", "z", "t", "x+y", "x*y",
                     "3*x", "(x", "x)", "x^-1", "x^", "", "1/2", "2x",
                     "x y", "x^^2", "((z))", "z^2+z", "x+1"]),
    st.text(alphabet="xyzt0123+-*^() ", max_size=6))
FLAVORS = st.sampled_from(["eta", "g", "h", "beta", ""])
# verb -> (element flags it requires, integer flags it takes)
VERBS = {("pair", "verify"): ((), ()),
         ("family", "build"): (("--a",), ()),
         ("family", "verify-complex"): (("--a",), ("--length",)),
         ("family", "verify-tr"): (("--a",), ("--i-max",)),
         ("family", "identify"): (("--a",), ()),
         ("family", "run-main"): (("--b",), ("--n-max", "--i-max")),
         ("hom", "compute"): (("--source", "--target"), ()),
         ("hom", "verify-hg"): (("--a", "--b"), ()),
         ("hom", "verify-gaba"): (("--a", "--b"), ()),
         ("hom", "verify-end"): (("--a",), ("--idempotent-budget",)),
         ("hom", "verify-ext"): (("--a", "--b"), ("--i-max",)),
         ("oracle", "hom"): (("--source", "--target"), ("--budget",))}
# numbers stay small so every run is quick: the degree window is 3 unless
# a drawn --degree replaces it.  The capped flags may also draw a value
# past their cap, which is refused before any work: --degree by the
# carrier budget on a graded ring (a finite ring has no window), the
# others by their fixed caps
NUMBERS = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "1", "2", "a"])
CAPPED = {"--degree", "--length", "--i-max", "--n-max"}
CAPPED_NUMBERS = st.one_of(NUMBERS, st.just("100000000000"))
COMMON = st.sampled_from([
    ("--degree", CAPPED_NUMBERS), ("--probe", None),
    ("--format", st.sampled_from(["json", "text", "json", "xml"])),
    ("--output", st.just("no_such_dir/out.json"))])


@st.composite
def command_lines(draw):
    """A well-formed command line with at most one malformed field."""
    group, action = draw(st.sampled_from(sorted(VERBS)))
    required, numeric = VERBS[group, action]
    ring, x, y, elem = draw(st.sampled_from(SETUPS))
    bad = draw(st.sampled_from([None, None, None, "--ring", "--x", "--y",
                                *required]))
    argv = [group, action, "--degree", "3"]
    for flag, value in (("--ring", ring), ("--x", x), ("--y", y),
                        *((flag, elem) for flag in required)):
        if flag == bad:
            value = draw(BAD_RINGS if flag == "--ring" else BAD_ELEMENTS)
        if flag in ("--source", "--target"):
            value = f"{draw(FLAVORS) if flag == bad else 'gamma'}:{value}"
        argv += [flag, value]
    optional = st.one_of(COMMON, st.sampled_from(numeric).map(
        lambda flag: (flag, CAPPED_NUMBERS if flag in CAPPED else NUMBERS))
    ) if numeric else COMMON
    for flag, values in draw(st.lists(optional, max_size=2)):
        argv += [flag] if values is None else [flag, draw(values)]
    junk = draw(st.sampled_from([None] * 7 + ["--bogus", "--degree",
                                             "extra"]))
    return argv if junk is None else argv + [junk]


def _error_record(out: str, err: str) -> dict:
    """The JSON error record: on stdout under --format json, else stderr."""
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return json.loads(err.strip().splitlines()[-1])


@settings(max_examples=150)
@given(command_lines())
def test_malformed_command_lines_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code in (2, 3):
        record = _error_record(out.getvalue(), err.getvalue())
        assert record["kind"] == "error", argv
        assert record["exit_code"] == code, argv
