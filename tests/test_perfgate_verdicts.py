"""Golden verdicts of the perfgate comparators and contract checks.

Each case starts from one committed ``benchmarks/baselines/*.json``,
doctors a copy of it, and gates the copy against the untouched baseline:
the copy alone through the layer's contract check, the pair through its
comparator.  The render is one line per case -- layer, case, and the
sorted violation codes -- compared against
``tests/data/perfgate_verdicts.expected``; the fresh render is written
next to it as ``.actual`` for diffing.

Cases: the report unchanged; every timing metric x1.05 and x1.15; every
exact metric perturbed; every match key changed; for perf_smoke, a row's
execution path flipped and an engine dropped; and every contract input
set just below its floor, set falsy, and deleted.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from repro.analysis import budgets
from repro.analysis.perf import BENCHES, check_contract, compare

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

# layer -> (match keys, exact metrics, timing metrics)
KEYS = {
    "perf_smoke": (budgets.PERFGATE_MATCH_KEYS,
                   budgets.PERFGATE_EXACT_METRICS,
                   budgets.PERFGATE_TIMING_METRICS),
    "service": (budgets.SERVICE_MATCH_KEYS, budgets.SERVICE_EXACT_METRICS,
                budgets.SERVICE_TIMING_METRICS),
    "frontier": (budgets.FRONTIER_MATCH_KEYS, budgets.FRONTIER_EXACT_METRICS,
                 budgets.FRONTIER_TIMING_METRICS),
    "ranges": (budgets.RANGES_MATCH_KEYS, budgets.RANGES_EXACT_METRICS, ()),
    "placement": (budgets.PLACEMENT_MATCH_KEYS,
                  budgets.PLACEMENT_EXACT_METRICS,
                  budgets.PLACEMENT_TIMING_METRICS),
}

# layer -> {contract input: floor}; ``True`` means "must be True", a
# number means "must be a number at least this large".
FLOORS = {
    "service": {"model_speedup": budgets.SERVICE_MIN_BATCH_SPEEDUP},
    "frontier": {"bit_exact": True,
                 "tail_model_savings": budgets.FRONTIER_MIN_MODEL_SAVINGS,
                 "skip_fraction": budgets.FRONTIER_MIN_SKIP_FRACTION},
    "ranges": {"bit_exact": True, "narrowed_fields": 1,
               "byte_reduction": budgets.RANGES_MIN_BYTE_REDUCTION},
    "placement": {"bit_exact": True, "exchange_bytes": 1,
                  "model_speedup": budgets.PLACEMENT_MIN_MODEL_SPEEDUP},
}


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, list):
        return value + ["x"]
    if isinstance(value, dict):
        return {**value, "seed": value.get("seed", 0) + 1}
    raise TypeError(f"cannot perturb {value!r}")


def _below(value, floor):
    """The largest value just under ``floor`` of ``value``'s type, or
    ``None`` when the input has no numeric floor."""
    if floor is True or isinstance(value, list):
        return None
    if isinstance(value, int):
        return floor - 1
    return math.nextafter(floor, -math.inf)


def _rows(layer: str, report: dict) -> dict:
    """The metric rows a doctoring case edits: every engine row of the
    perf smoke, the one section of every other layer."""
    if layer == "perf_smoke":
        return report["engines"]
    return {layer: report[layer]}


def cases(layer: str, baseline: dict):
    """Yield ``(case name, doctored copy of baseline)``."""
    match_keys, exact, timing = KEYS[layer]

    def doctored(edit):
        report = copy.deepcopy(baseline)
        edit(report)
        return report

    yield "unchanged", copy.deepcopy(baseline)
    for key in match_keys:
        yield f"match {key} changed", doctored(
            lambda r, k=key: r.__setitem__(k, _perturb(r[k])))
    for row in sorted(_rows(layer, baseline)):
        for mk in timing:
            for factor in (1.05, 1.15):
                yield f"{row}.{mk} x{factor}", doctored(
                    lambda r, row=row, mk=mk, f=factor:
                    _rows(layer, r)[row].__setitem__(
                        mk, _rows(layer, r)[row][mk] * f))
        for mk in exact:
            yield f"{row}.{mk} perturbed", doctored(
                lambda r, row=row, mk=mk:
                _rows(layer, r)[row].__setitem__(
                    mk, _perturb(_rows(layer, r)[row][mk])))
    if layer == "perf_smoke":
        first, last = sorted(baseline["engines"])[0], \
            sorted(baseline["engines"])[-1]
        for pk in ("exec_path", "reference_exec_path"):
            yield f"{first}.{pk} flipped", doctored(
                lambda r, pk=pk: r["engines"][first].__setitem__(
                    pk, "fast" if r["engines"][first][pk] != "fast"
                    else "reference"))
        yield f"{last} dropped", doctored(
            lambda r: r["engines"].pop(last))
    for mk, floor in FLOORS.get(layer, {}).items():
        value = baseline[layer][mk]
        below = _below(value, floor)
        if below is not None:
            yield f"contract {mk} below floor", doctored(
                lambda r, mk=mk, v=below: r[layer].__setitem__(mk, v))
        yield f"contract {mk} falsy", doctored(
            lambda r, mk=mk, v=type(value)(): r[layer].__setitem__(mk, v))
        yield f"contract {mk} deleted", doctored(
            lambda r, mk=mk: r[layer].pop(mk))


def render() -> str:
    lines = []
    for spec in BENCHES:
        layer = spec.name
        baseline = json.loads(
            (ROOT / "benchmarks" / "baselines" / f"{layer}.json").read_text())
        for name, current in cases(layer, baseline):
            hard, timing = compare(spec, baseline, current)
            codes = sorted(v.code for v in
                           check_contract(spec, current) + hard + timing)
            lines.append(f"{layer} | {name} | {' '.join(codes) or 'pass'}")
    return "\n".join(lines) + "\n"


def test_perfgate_verdicts_match_golden():
    actual = render()
    DATA.joinpath("perfgate_verdicts.actual").write_text(actual)
    expected = DATA.joinpath("perfgate_verdicts.expected").read_text()
    assert actual == expected
