"""Per-layer metrics: what the traced run counts and how each is derived.

``hooks(th)`` tells the tracer which spans feed a named group (inclusive
time of the outermost span) or a counter.  ``PER_LAYER`` derives each metric
from one traced pass's summary; ``OP_LEVEL`` derives the op-latency rows
from the untraced passes of the same run.
"""

from __future__ import annotations

import statistics

COPRODUCT_SIZES = (8, 9, 10, 11, 12)


def _add_len(key):
    def on_result(counters, result):
        counters[key] = counters.get(key, 0) + len(result)
    return on_result


def _add_cases(key):
    def on_result(counters, report):
        counters[key] = counters.get(key, 0) + sum(c.cases for c in report.checks)
    return on_result


def hooks(th) -> dict:
    combos = (th.Element, th.TensorElement)
    combination = th.algebra.Combination

    def touched(counters, args):
        # operand sizes of Element/TensorElement add, mul and scale
        if isinstance(args[0], combos):
            size = len(args[0].data)
            if len(args) > 1 and isinstance(args[1], combination):
                size += len(args[1].data)
            counters["algebra.terms_touched"] = counters.get("algebra.terms_touched", 0) + size

    group = lambda name: {"groups": (name,)}
    return {
        "algebra.Combination.__add__": {"on_call": touched},
        "algebra.Combination.scale": {"on_call": touched},
        "algebra.Element.__mul__": {"on_call": touched},
        "algebra.TensorElement.__mul__": {"on_call": touched},
        "trees.enumerate_trees": group("trees.enumerate"),
        "trees.enumerate_forests": group("trees.enumerate"),
        "trees.enumerate_forests_up_to": group("trees.enumerate"),
        "trees.parse_tree": group("trees.parse"),
        "trees.parse_forest": group("trees.parse"),
        "trees.Scanner.tree": group("trees.parse"),
        "trees.Scanner.forest": group("trees.parse"),
        "hopf.coproduct": {"groups": ("hopf.coproduct",), "on_result": _add_len("hopf.coproduct_terms")},
        "hopf.antipode_recursive": {"groups": ("hopf.antipode",),
                                    "on_result": _add_len("hopf.antipode_terms")},
        "hopf.antipode_partitions": {"groups": ("hopf.antipode",),
                                     "on_result": _add_len("hopf.antipode_terms")},
        "hopf.verify_bialgebra": {"groups": ("hopf.verify",), "on_result": _add_cases("hopf.verify_cases")},
        "prelie.bullet": {"on_result": _add_len("prelie.bullet_terms")},
        "prelie.bullet_prime": group("prelie.graft"),
        "prelie.free_graft": group("prelie.graft"),
        "prelie.free_bullet": group("prelie.graft"),
        "planar.planar_coproduct": group("planar.coproduct"),
        "planar.planar_antipode": group("planar.antipode"),
        "planar.planar_bullet": group("planar.bullet"),
        "planar.verify_planar": {"groups": ("planar.verify",), "on_result": _add_cases("planar.verify_cases")},
    }


def _calls(*names):
    return lambda rec: sum(rec["trace"]["calls"].get(n, 0) for n in names)


def _group(name):
    return lambda rec: rec["trace"]["group_incl_s"].get(name, 0.0)


def _counter(name):
    return lambda rec: rec["trace"]["counters"].get(name, 0)


def _self(layer):
    return lambda rec: rec["trace"]["self_s"][layer]


PER_LAYER = {
    "algebra.self_s": ("s", _self("algebra")),
    "algebra.coeff_mul_calls": ("count", _calls("algebra.Coeff.__mul__", "algebra.Coeff.__rmul__")),
    "algebra.coeff_add_calls": ("count", _calls("algebra.Coeff.__add__", "algebra.Coeff.__radd__",
                                                "algebra.Coeff.__sub__", "algebra.Coeff.__rsub__")),
    "algebra.evaluate_calls": ("count", _calls("algebra.evaluate_exponents")),
    "algebra.combination_terms_touched": ("count", _counter("algebra.terms_touched")),
    "trees.self_s": ("s", _self("trees")),
    "trees.induced_calls": ("count", _calls("trees.induced_structure")),
    "trees.canonicalize_calls": ("count", _calls("trees.ColouredTree.__init__", "trees.Forest.__init__",
                                                 "trees.canonicalize")),
    "trees.enumerate_s": ("s", _group("trees.enumerate")),
    "trees.parse_s": ("s", _group("trees.parse")),
    "hopf.self_s": ("s", _self("hopf")),
    "hopf.coproduct_s": ("s", _group("hopf.coproduct")),
    "hopf.coproduct_calls": ("count", _calls("hopf.coproduct")),
    "hopf.coproduct_terms_out": ("count", _counter("hopf.coproduct_terms")),
    "hopf.antipode_s": ("s", _group("hopf.antipode")),
    "hopf.antipode_terms_out": ("count", _counter("hopf.antipode_terms")),
    "hopf.verify_s": ("s", _group("hopf.verify")),
    "hopf.verify_cases": ("count", _counter("hopf.verify_cases")),
    "prelie.self_s": ("s", _self("prelie")),
    "prelie.bullet_terms_out": ("count", _counter("prelie.bullet_terms")),
    "prelie.graft_s": ("s", _group("prelie.graft")),
    "planar.self_s": ("s", _self("planar")),
    "planar.coproduct_s": ("s", _group("planar.coproduct")),
    "planar.antipode_s": ("s", _group("planar.antipode")),
    "planar.bullet_s": ("s", _group("planar.bullet")),
    "planar.verify_s": ("s", _group("planar.verify")),
    "planar.verify_cases": ("count", _counter("planar.verify_cases")),
    "cli.self_s": ("s", _self("cli")),
    "cli.requests": ("count", _calls("cli.main")),
    "cli.output_bytes": ("bytes", lambda rec: rec["cli"]["output_bytes"]),
    "cli.exit_nonzero": ("count", lambda rec: rec["cli"]["exit_nonzero"]),
}


def _latencies_ms(recs, keep) -> list[float]:
    return [lat * 1e3 for rec in recs for lat, kind, size in zip(rec["lat"], rec["kinds"], rec["vertices"])
            if keep(kind, size)]


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean_or_zero(values) -> float:
    return statistics.fmean(values) if values else 0.0


OP_LEVEL = {
    # the first bullet per (n, m) builds that size's table: mean of those calls
    "prelie.bullet_cold_ms": ("ms", lambda recs: _mean_or_zero(
        _latencies_ms(recs, lambda kind, _: kind == "bullet.cold"))),
    "prelie.bullet_warm_ms": ("ms", lambda recs: _median_or_zero(
        _latencies_ms(recs, lambda kind, _: kind == "bullet.warm"))),
    **{
        f"hopf.coproduct_ms.v{k}": ("ms", lambda recs, k=k: _median_or_zero(
            _latencies_ms(recs, lambda kind, size: kind.startswith("coproduct.") and size == k)))
        for k in COPRODUCT_SIZES
    },
}
