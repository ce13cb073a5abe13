"""The command-line interface: outputs, exit codes, JSON/text parity."""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehopf import cli
from treehopf.algebra import (
    EXPONENT_LIMIT,
    Combination,
    Element,
    TensorElement,
    parse_coeff,
    parse_element,
    parse_tensor,
)
from treehopf.hopf import CheckOutcome, VerificationReport
from treehopf.prelie import DualElement
from treehopf.trees import parse_forest


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--vertices", "5", "--count")
    assert code == 0 and out.strip() == "9"


def test_enumerate_listing(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--vertices", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert sorted(lines) == sorted(["[1:[1:[]]]", "[1:[],1:[]]"])


def test_enumerate_planar_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--n", "1", "--variant", "planar", "--vertices", "5", "--count"
    )
    assert code == 0 and out.strip() == "14"


@pytest.mark.parametrize("variant", ["symmetric", "planar"])
def test_enumerate_more_colours_than_the_recursion_limit(capsys, variant):
    code, out, _ = run(
        capsys, "enumerate", "--n", "1000", "--variant", variant, "--vertices", "2", "--count"
    )
    assert code == 0 and out.strip() == "1000"


def test_coproduct_ck_terms(capsys):
    code, out, _ = run(capsys, "coproduct", "--n", "1", "--q", "1,0", "[1:[]]")
    assert code == 0
    assert parse_tensor(out.strip(), 1) == parse_tensor(
        "1 ⊗ [1:[]] + [] ⊗ [] + [1:[]] ⊗ 1", 1
    )


def test_antipode_symbolic(capsys):
    code, out, _ = run(capsys, "antipode", "--n", "1", "[1:[]]")
    assert code == 0
    assert parse_element(out.strip(), 1) == parse_element(
        "-[1:[]] + q11 []*[] + q21 []*[]", 1
    )


def test_bracket_and_bullet(capsys):
    code, out, _ = run(capsys, "bullet", "--n", "1", "--q", "1,0", "[]", "[]")
    assert code == 0 and out.strip() == "D[1:[]]"
    code, out, _ = run(capsys, "bracket", "--n", "1", "--q", "1,0", "[]", "[1:[]]")
    assert code == 0 and out.strip() == "2 D[1:[],1:[]]"


def test_planar_bullet(capsys):
    code, out, _ = run(
        capsys, "bullet", "--n", "1", "--q", "1,0", "--variant", "planar", "[]", "[1:[]]"
    )
    assert code == 0
    assert out.strip() == "2 D[1:[],1:[]] + D[1:[1:[]]]"


def test_simplicial(capsys):
    code, out, _ = run(
        capsys, "simplicial", "--n", "2", "--map", "d", "--index", "1", "[1:[],2:[]]"
    )
    assert code == 0 and out.strip() == "[1:[],1:[]]"
    code, out, _ = run(
        capsys, "simplicial", "--n", "1", "--map", "s", "--index", "0", "[1:[]]"
    )
    assert code == 0 and out.strip() == "[2:[]]"


def test_phi(capsys):
    code, out, _ = run(capsys, "phi", "--n", "2", "[1:[]]")
    assert code == 0
    assert out.strip() == "(1)[(1)[]] + (2)[(1)[]]"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--q", "sym", "--max-degree", "3")
    assert code == 0
    assert "ALL PASSED" in out


def test_verify_many_slots_at_low_degree(capsys):
    # the slot tuples are grown within the degree bound, not filtered out
    # of the 8-fold product of the forest list
    code, out, _ = run(capsys, "verify", "--n", "8", "--max-degree", "2")
    assert code == 0
    assert "root-constructor square (9 cases)" in out


@pytest.mark.parametrize(
    "variant, degree, cases",
    [
        ("symmetric", 0, [1, 1, 1, 0, 0, 1]),
        ("symmetric", 1, [2, 2, 2, 1, 1, 2]),
        ("symmetric", 2, [3, 3, 4, 1, 1, 3]),
        ("planar", 0, [1, 1, 1, 1]),
        ("planar", 1, [2, 2, 3, 2]),
        ("planar", 2, [3, 3, 6, 3]),
    ],
)
def test_verify_with_no_colours(capsys, variant, degree, cases):
    # over n = 0 the σ products are empty: each must be the unit of its kind
    code, out, _ = run(
        capsys, "verify", "--n", "0", "--variant", variant,
        "--max-degree", str(degree), "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    assert [c["cases"] for c in payload["checks"]] == cases


def test_verify_planar(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "1", "--variant", "planar", "--max-degree", "3"
    )
    assert code == 0 and "ALL PASSED" in out


def test_mixed_q_entries(capsys):
    code, out, _ = run(capsys, "coproduct", "--n", "1", "--q", "sym,1/2", "[1:[]]")
    assert code == 0
    d = parse_tensor(out.strip(), 1)
    assert d.coefficient((parse_forest("[]"), parse_forest("[]"))) == parse_coeff(
        "1/2 + q11"
    )


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "coproduct", "--n", "1", "[1:[")
    assert code == 2
    assert "position" in err


def test_exponent_over_the_limit_exits_2(capsys):
    code, out, err = run(capsys, "coproduct", "--n", "1", f"q11^{EXPONENT_LIMIT} [1:[]]")
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(EXPONENT_LIMIT) in err and err.count("\n") == 1


def test_bad_qspec_exits_2(capsys):
    code, _, err = run(capsys, "coproduct", "--n", "2", "--q", "1,0", "[1:[]]")
    assert code == 2
    assert "--q" in err


def test_zero_denominator_in_qspec_exits_2(capsys):
    code, out, err = run(capsys, "coproduct", "--n", "1", "--q", "1/0,1", "[]")
    assert code == 2
    assert err.startswith("error:") and "q11" in err
    assert out == ""


@pytest.mark.parametrize("command", ["coproduct", "antipode"])
def test_zero_denominator_in_an_expression_exits_2(capsys, command):
    code, out, err = run(capsys, command, "--n", "1", "1/0 []")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err and err.count("\n") == 1
    assert "position 2" in err


def test_an_entry_too_long_to_print_is_named(capsys):
    code, out, err = run(capsys, "coproduct", "--n", "1", "--q", "1e999999,0", "[]")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "q11 = '1e999999'" in err and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["1e999999999", "1e-999999999"])
def test_a_huge_decimal_exponent_is_refused_before_the_power(capsys, entry):
    start = time.perf_counter()
    code, out, err = run(capsys, "coproduct", "--n", "1", "--q", f"{entry},0", "[]")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"q11 = '{entry}'" in err and err.count("\n") == 1


def test_symbolic_entries_past_the_colour_limit_name_n(capsys):
    code, out, err = run(capsys, "coproduct", "--n", "1025", "[]")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--n 1025" in err and "1024-colour limit" in err
    assert err.count("\n") == 1
    # rational entries have no such limit
    q = ",".join(["1"] * 2050)
    code, out, _ = run(capsys, "coproduct", "--n", "1025", "--q", q, "[]")
    assert code == 0 and out == "1 ⊗ [] + [] ⊗ 1\n"


def test_a_symbolic_n_past_the_limit_is_refused_before_its_words_are_built(capsys):
    # 2n symbolic words for n = 2,000,000 would take about 32 MB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "coproduct", "--n", "2000000", "[]")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--n 2000000" in err and "1024-colour limit" in err
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [["bullet"], ["bracket"], ["bullet", "--variant", "planar"]],
    ids=["bullet", "bracket", "planar-bullet"],
)
def test_dual_products_past_the_colour_limit_name_their_limit(capsys, argv):
    # the dual product is computed over the symbols, so rational entries
    # do not lift its colour limit; it is refused before any symbol is made
    q = ",".join(["1/2"] * 2200)
    code, out, err = run(capsys, *argv, "--n", "1100", "--q", q, "[1:[]]", "[]")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "dual product" in err and "1024-colour limit" in err and "n = 1100" in err
    assert "q11025" not in err


@pytest.mark.parametrize("command", ["coproduct", "antipode"])
def test_coproduct_and_antipode_run_past_the_colour_limit_at_a_rational_point(capsys, command):
    q = ",".join(["1/2"] * 2200)
    code, out, _ = run(capsys, command, "--n", "1100", "--q", q, "[1:[]]")
    assert code == 0
    expected = {
        "coproduct": "1 ⊗ [1:[]] + [] ⊗ [] + [1:[]] ⊗ 1",
        "antipode": "[]*[] - [1:[]]",
    }[command]
    assert out.strip() == expected


@pytest.mark.parametrize("variant", ["symmetric", "planar"])
def test_deep_nesting_exits_2(capsys, variant):
    chain = "[1:" * 1199 + "[]" + "]" * 1199
    code, out, err = run(capsys, "coproduct", "--n", "1", "--variant", variant, chain)
    assert code == 2
    assert err.startswith("error:") and "nested deeper" in err
    assert out == ""
    # the error quotes an excerpt, not the whole input
    assert "position" in err and err.count("\n") == 1 and len(err.encode()) < 300


def test_colour_mismatch_exits_5(capsys):
    code, _, err = run(capsys, "coproduct", "--n", "1", "[2:[]]")
    assert code == 5
    code, _, err = run(
        capsys, "coproduct", "--n", "1", "--variant", "planar", "[2:[]]"
    )
    assert code == 5


def test_budget_exits_4(capsys):
    code, _, err = run(
        capsys, "bullet", "--n", "1", "--budget", "3", "[1:[1:[]]]", "[1:[]]"
    )
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("argv", [["bullet"], ["bullet", "--variant", "planar"], ["bracket"]])
def test_negative_budget_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "1", "--budget", "-1", "[]", "[]")
    assert (code, out, err) == (2, "", "error: --budget must be >= 0\n")


@pytest.mark.parametrize("variant", ["symmetric", "planar"])
def test_enumerate_count_counts_without_listing(capsys, variant):
    # 13.5 million trees: counted by the series, never listed
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "enumerate", "--n", "3000", "--variant", variant, "--vertices", "3", "--count"
    )
    assert time.perf_counter() - start < 1
    assert code == 0 and out == "13501500\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_cases_below_one_exits_2(capsys, value):
    code, out, err = run(capsys, "verify", "--n", "1", "--max-degree", "2", "--max-cases", value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_cases" in err and err.count("\n") == 1


@pytest.mark.parametrize("variant", ["symmetric", "planar"])
def test_negative_max_degree_exits_2(capsys, variant):
    code, out, err = run(capsys, "verify", "--n", "1", "--variant", variant, "--max-degree", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "max_degree" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--vertices", "2"],
        ["coproduct", "[]"],
        ["antipode", "[]"],
        ["bullet", "[]", "[]"],
        ["bracket", "[]", "[]"],
        ["simplicial", "--map", "s", "--index", "0", "[]"],
        ["phi", "[]"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_n_exits_2_and_names_the_flag(capsys, argv):
    code, out, err = run(capsys, argv[0], "--n=-1", *argv[1:])
    assert (code, out, err) == (2, "", "error: --n must be >= 0\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["antipode", "--n", "1"],
        ["coproduct", "--n", "1"],
        ["simplicial", "--n", "1", "--map", "d", "--index", "0"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("expr", ["-[1:[]]", "-q11[1:[]]", "-2[]"])
def test_an_expression_may_begin_with_its_sign(capsys, argv, fmt, expr):
    # argparse took such an expression for an unknown option; it must read
    # as the positional, as it does after "--"
    signed = run(capsys, *argv, "--format", fmt, expr)
    escaped = run(capsys, *argv, "--format", fmt, "--", expr)
    assert signed == escaped
    assert signed[0] == 0 and signed[1] and not signed[2]


def test_a_negative_q_entry_may_follow_the_flag(capsys):
    spaced = run(capsys, "coproduct", "--n", "1", "--q", "-1/2,3", "[1:[]]")
    joined = run(capsys, "coproduct", "--n", "1", "--q=-1/2,3", "[1:[]]")
    assert spaced == joined and spaced[0] == 0


@pytest.mark.parametrize("command", ["antipode", "coproduct", "simplicial"])
@pytest.mark.parametrize("where", ["before", "after"])
def test_an_unknown_option_still_exits_2(capsys, command, where):
    argv = [command, "--n", "1"]
    if command == "simplicial":
        argv += ["--map", "d", "--index", "0"]
    argv += ["-x", "[]"] if where == "before" else ["[]", "-x"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: -x" in capsys.readouterr().err


def test_verify_failure_exits_3(capsys, monkeypatch):
    # no honest parameter choice breaks the axioms, so force a failing
    # report to pin the exit-code contract
    broken = VerificationReport(n=1, max_degree=2)
    broken.checks.append(CheckOutcome("coassociativity", 3, "forced failure"))

    monkeypatch.setattr(cli, "verify_bialgebra", lambda *a, **k: broken)
    code, out, _ = run(capsys, "verify", "--n", "1", "--max-degree", "2")
    assert code == 3
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def test_json_text_parity_coproduct(capsys):
    _, text_out, _ = run(capsys, "coproduct", "--n", "1", "[1:[]]")
    _, json_out, _ = run(capsys, "coproduct", "--n", "1", "--format", "json", "[1:[]]")
    data = json.loads(json_out)
    assert data["command"] == "coproduct" and data["n"] == 1
    assert data["qspec"] == ["q11", "q21"]
    rebuilt = TensorElement.zero(1)
    for term in data["terms"]:
        rebuilt = rebuilt + TensorElement(
            1,
            {
                (parse_forest(term["left"], 1), parse_forest(term["right"], 1)): parse_coeff(
                    term["coefficient"]
                )
            },
        )
    assert rebuilt == parse_tensor(text_out.strip(), 1)


def test_json_text_parity_antipode(capsys):
    _, text_out, _ = run(capsys, "antipode", "--n", "1", "--q", "1,0", "[1:[1:[]]]")
    _, json_out, _ = run(
        capsys, "antipode", "--n", "1", "--q", "1,0", "--format", "json", "[1:[1:[]]]"
    )
    data = json.loads(json_out)
    rebuilt = Element.zero(1)
    for term in data["terms"]:
        rebuilt = rebuilt + Element(
            1, {parse_forest(term["basis"], 1): parse_coeff(term["coefficient"])}
        )
    assert rebuilt == parse_element(text_out.strip(), 1)


COMMON = ["command", "n", "variant", "qspec"]
TENSOR_TERM = ["coefficient", "left", "right"]
BASIS_TERM = ["coefficient", "basis"]
JSON_KEYS = [
    ("enumerate --vertices 2", ["command", "variant", "n", "vertices", "count", "trees"], None),
    ("enumerate --vertices 2 --count", ["command", "variant", "n", "vertices", "count"], None),
    ("coproduct [1:[]]", COMMON + ["input", "terms"], TENSOR_TERM),
    ("coproduct --variant planar [1:[]]", COMMON + ["input", "terms"], TENSOR_TERM),
    ("antipode [1:[]]", COMMON + ["input", "terms"], BASIS_TERM),
    ("antipode --variant planar [1:[]]", COMMON + ["input", "terms"], BASIS_TERM),
    ("bullet [] []", COMMON + ["input", "terms"], BASIS_TERM),
    ("bullet --variant planar [] []", COMMON + ["input", "terms"], BASIS_TERM),
    ("bracket [] [1:[]]", ["command", "n", "qspec", "input", "terms"], BASIS_TERM),
    ("simplicial --map d --index 1 [1:[]]",
     ["command", "n", "map", "result_n", "input", "terms"], BASIS_TERM),
    ("phi [1:[]]", ["command", "n", "input", "terms"], BASIS_TERM),
    ("verify --max-degree 1", COMMON + ["max_degree", "checks", "passed"], None),
    ("verify --variant planar --max-degree 1", COMMON + ["max_degree", "checks", "passed"], None),
]


@pytest.mark.parametrize("cmdline, keys, term_keys", JSON_KEYS, ids=[c[0] for c in JSON_KEYS])
def test_json_key_order(capsys, cmdline, keys, term_keys):
    argv = cmdline.split()
    code, out, _ = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0 and list(payload) == keys
    if term_keys is not None:
        assert payload["terms"] and all(list(t) == term_keys for t in payload["terms"])
    if argv[0] in ("bullet", "bracket"):
        assert all(t["basis"].startswith("D[") for t in payload["terms"])
    if argv[0] == "verify":
        assert all(list(c) == ["name", "cases", "passed", "failure"] for c in payload["checks"])


def test_json_verify_shape(capsys):
    _, json_out, _ = run(
        capsys, "verify", "--n", "1", "--max-degree", "2", "--format", "json"
    )
    data = json.loads(json_out)
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"coassociativity", "counit laws"}
    assert all(c["failure"] is None for c in data["checks"])


# characters the escaper treats differently from json.dumps's other routes:
# quotes, backslashes, control characters, separators JSON leaves alone,
# lone surrogates and characters outside the Basic Multilingual Plane
TRICKY = '"\\\x00\x01\x08\t\n\x0c\r\x1f\x7f\u00a0\u2028\u2029\u3000\ud800\udfff\U0001f333⊗é'
json_texts = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=12)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.sampled_from([0, -1, 10**39, -(10**39) - 7]),
    json_texts,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_the_writer_is_json_dumps(value):
    assert cli._json(value) == json.dumps(value, ensure_ascii=False, indent=2)


@pytest.mark.parametrize("value", [1.5, {1}, [0, {"a": 0.0}], {1: "a"}, {"a": b"b"}])
def test_the_writer_refuses_what_the_cli_never_prints(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_output_is_deterministic(capsys):
    a = run(capsys, "coproduct", "--n", "2", "[1:[],2:[]]")
    b = run(capsys, "coproduct", "--n", "2", "[1:[],2:[]]")
    assert a == b
    a = run(capsys, "enumerate", "--n", "2", "--vertices", "3", "--format", "json")
    b = run(capsys, "enumerate", "--n", "2", "--vertices", "3", "--format", "json")
    assert a == b


def test_the_parser_is_built_once_and_keeps_no_request_state(capsys):
    run(capsys, "enumerate", "--n", "1", "--vertices", "3", "--count")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bullet", "--n", "1", "--budget=x", "[]", "[]"])
    assert exc.value.code == 2
    code, _, _ = run(capsys, "bullet", "--n", "1", "--budget=3", "[1:[]]", "[1:[]]")
    assert code == 4
    # the rejected budgets must not stick to the next request
    code, out, _ = run(capsys, "bullet", "--n", "1", "[1:[]]", "[1:[]]")
    assert code == 0 and out.strip()
    assert cli._build_parser.cache_info().currsize == 1


PARSE_CASES = [
    ["enumerate", "--n", "2", "--vertices", "3", "--count"],
    ["coproduct", "--n", "1", "--q", "1,0", "--format", "json", "[1:[]]"],
    ["antipode", "--variant", "planar", "--q=-1/2,3", "[1:[]]"],
    ["bullet", "--budget", "7", "[]", "[1:[]]"],
    ["bracket", "--n", "2", "[2:[]]", "[]"],
    ["simplicial", "--map", "d", "--index", "1", "-[1:[]]"],
    ["phi", "--n", "2", "[1:[]]"],
    ["verify", "--max-degree", "2", "--max-cases", "3", "--seed", "4"],
    ["coproduct", "--n", "1", "--", "-[1:[]]"],
    ["coproduct", "--n", "1", "-x", "[]"],
    ["coproduct", "--n", "1", "[]", "-x"],
    ["bullet", "[]", "[]", "[]"],
    ["coproduct", "--n", "1"],
    ["coproduct", "--n", "x", "[]"],
    ["coproduct", "--variant", "bogus", "[]"],
    ["transpose", "[]"],
    ["--n", "1", "coproduct", "[]"],
    [],
    ["-h"],
    ["verify", "-h"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_the_subcommand_route_parses_as_the_top_parser(capsys, argv):
    def parsed(parse):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    assert parsed(cli._parse) == parsed(cli._build_parser().parse_args)


# values for the differential below: a positional may carry its sign, and
# no value need parse as an expression or a --q text, as only flags are read
INTS = ["0", "1", "2", "3", "-1", "07", " 4", "1_0"]
TEXTS = ["sym", "1,0", "-1/2,3", "1,1,0,0", "", "q11"]
POSITIONALS = ["[]", "[1:[]]", "-[1:[]]", "-2[]", "q11 []", "", "[1:[]]*[]", "x"]
# what a mutation inserts or puts in place of an argument: help, "--",
# unknown, malformed and option-like arguments, and flags with bad values
INSERTS = [
    "--", "-h", "--help", "-x", "--bogus", "--bogus=1", "-", "---n", "--=x", "-n",
    "--count", "--count=1", "--count=", "--n 1", "--n=", "--format=", "--q=",
]
BAD_VALUES = ["x", "1.5", "", "-x", "-.5", "--n", "-", "bogus", "--", "json "]


def _well_formed(rng, command):
    """A request to ``command`` that ``cli._read`` takes: each required
    option and some others, as ``--flag value`` or ``--flag=value``, with
    the positionals in order among them."""
    options, positionals = [], []
    for name, keywords in cli._COMMANDS[command][1].items():
        if name[0] != "-":
            positionals.append([rng.choice(POSITIONALS)])
        elif keywords.get("action") == "store_true":
            options += [[name]] if rng.random() < 0.5 else []
        elif keywords.get("required") or rng.random() < 0.5:
            values = keywords.get("choices") or (INTS if "type" in keywords else TEXTS)
            value = rng.choice(values)
            options.append([name, value] if rng.random() < 0.5 else [f"{name}={value}"])
    rng.shuffle(options)
    argv = [command]
    for group in options:
        while positionals and rng.random() < 0.3:
            argv += positionals.pop(0)
        argv += group
    for group in positionals:
        argv += group
    return argv


def _mutated(rng, argv):
    """``argv`` with one argument after the command abbreviated, replaced,
    dropped or repeated, or with one argument inserted."""
    argv = list(argv)
    at, j = rng.randint(1, len(argv)), rng.randrange(1, len(argv)) if len(argv) > 1 else 0
    kind = rng.randrange(6) if j else 0
    if kind == 0:
        argv.insert(at, rng.choice(INSERTS + POSITIONALS))
    elif kind == 1:  # an abbreviation, when argv[j] is a long flag
        flag, eq, value = argv[j].partition("=")
        if flag.startswith("--"):
            argv[j] = flag[: rng.randint(3, max(3, len(flag) - 1))] + eq + value
    elif kind == 2:
        argv[j] = rng.choice(BAD_VALUES)
    elif kind == 3:
        del argv[j]
    else:
        argv.insert(at, argv[j])
    return argv


def _parsed(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = exc.code
    return result, *capsys.readouterr()


def test_the_reader_parses_as_argparse(capsys):
    # a seeded differential over every subcommand: each argv must give the
    # same namespace, or the same exit code and output, by both routes
    rng = random.Random(0)
    read = 0
    for k in range(6000):
        argv = _well_formed(rng, rng.choice(list(cli._COMMANDS)))
        for _ in range(k % 3):
            argv = _mutated(rng, argv)
        read += cli._read(argv[0], argv[1:]) is not None
        expected = _parsed(capsys, cli._build_parser().parse_args, argv)
        assert _parsed(capsys, cli._parse, argv) == expected, argv
    # every well-formed argv and some mutated ones take the reader's route
    assert read >= 2500


WELL_FORMED = [
    ["enumerate", "--n", "1", "--vertices", "2", "--count"],
    ["coproduct", "--n", "1", "--q=1,0", "[1:[]]"],
    ["antipode", "--variant", "planar", "--format", "json", "[1:[]]"],
    ["bullet", "--q", "1,0", "--budget=5", "[]", "[]"],
    ["bracket", "[]", "--n=2", "[2:[]]"],
    ["simplicial", "--map", "s", "--index=0", "-[1:[]]"],
    ["phi", "--n", "2", "[1:[]]"],
    ["verify", "--max-degree", "1", "--max-cases=1", "--seed", "3"],
]


def test_a_well_formed_request_builds_no_parser(capsys):
    cli._build_parser.cache_clear()
    for argv in WELL_FORMED:
        assert run(capsys, *argv)[0] == 0
    assert cli._build_parser.cache_info().currsize == 0
    # help and refusals come from argparse, built once for both
    for argv in (["bullet", "--budget=x", "[]", "[]"], ["coproduct", "-h"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert cli._build_parser.cache_info().currsize == 1
    assert cli._build_parser.cache_info().misses == 1


COMPUTED = [
    ["coproduct", "[1:[]]"],
    ["coproduct", "--variant", "planar", "[1:[]]"],
    ["antipode", "[1:[]]"],
    ["antipode", "--variant", "planar", "[1:[]]"],
    ["bullet", "[]", "[]"],
    ["bullet", "--variant", "planar", "[]", "[]"],
    ["bracket", "[]", "[1:[]]"],
    ["simplicial", "--map", "d", "--index", "0", "[1:[]]"],
    ["phi", "[1:[]]"],
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", COMPUTED, ids=" ".join)
def test_a_request_builds_only_the_form_it_prints(capsys, monkeypatch, argv, fmt):
    calls = {"terms": 0, "str": 0}
    terms = cli._terms

    def counted_terms(result):
        calls["terms"] += 1
        return terms(result)

    monkeypatch.setattr(cli, "_terms", counted_terms)
    for cls in (Combination, TensorElement, DualElement):
        def counted_str(self, printer=cls.__str__):
            calls["str"] += 1
            return printer(self)

        monkeypatch.setattr(cls, "__str__", counted_str)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    assert calls == ({"terms": 1, "str": 0} if fmt == "json" else {"terms": 0, "str": 1})


def test_a_refused_q_is_not_remembered(capsys):
    refused = run(capsys, "coproduct", "--n", "1", "--q", "1/0,1", "[]")
    assert refused[0] == 2 and refused[1] == ""
    assert run(capsys, "coproduct", "--n", "1", "--q", "1/0,1", "[]") == refused
    code, out, _ = run(capsys, "coproduct", "--n", "1", "--q", "1,1", "[]")
    assert code == 0 and out == "1 ⊗ [] + [] ⊗ 1\n"
    # an accepted text is read once: a repeat gets the same context
    assert cli._context(1, "1,1")[0] is cli._context(1, "1,1")[0]


def test_help_matches_a_freshly_built_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli._build_parser.__wrapped__().format_help()


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "treehopf.cli", "enumerate", "--n", "1", "--vertices", "4", "--count"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "4"


def test_the_package_runs_as_a_module():
    # ``python -m treehopf`` is the ``python -m treehopf.cli`` route
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(module, *argv):
        command = [sys.executable, "-m", module, *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env)

    listing = ["enumerate", "--n", "1", "--vertices", "3", "--format", "json"]
    package, module = run("treehopf", *listing), run("treehopf.cli", *listing)
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout and json.loads(package.stdout)["count"] == 2
    for route in ("treehopf", "treehopf.cli"):
        malformed = run(route, "coproduct", "--n", "1", "[1:")
        assert malformed.returncode == 2 and "Traceback" not in malformed.stderr
