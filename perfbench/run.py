"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload pr-social --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer and no
wrapper installed; ``--trace 1`` measures the per-layer metrics (see
``workloads.py`` and ``layers.py``).  ``--workload all`` runs every
workload in turn; ``--describe`` prints what each workload and metric is
for.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it carries
the sample counts, the error rate and an environment stamp.  The exit
code is 0 when every result was correct, 1 when one was not, and 2 when
the benchmark could not run (for example outside a checkout with
``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha() -> str:
    """HEAD's sha read from ``.git`` (no subprocess); "unknown" without."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _describe(spec: dict) -> dict:
    import layers
    import workloads

    timed = {layer.metric: layer for layer in layers.LAYERS}

    def note(name: str):
        if name in timed:
            layer = timed[name]
            return {"times": list(layer.targets), "pass": layer.phase,
                    "moves": layer.moves}
        return layers.DERIVED[
            "model.<span>_ms" if name.startswith("model.") else name]

    return {
        "workloads": {
            w["name"]: {
                "why": w["why"],
                "engine": workloads.WORKLOADS[w["name"]].engine,
                "program": workloads.WORKLOADS[w["name"]].program,
                "overlaps": workloads.WORKLOADS[w["name"]].overlaps,
            }
            for w in spec["workloads"]
        },
        "per_layer": {m["name"]: note(m["name"]) for m in spec["per_layer"]},
        "not_measured": list(layers.OFF_PATH),
    }


def result_object(spec: dict, out: dict, trace: bool) -> dict:
    """The contract's result object: every metric ``BENCHMARK.json`` names
    for this mode, with its unit.  A run that produced another set of
    metrics is incorrect."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in out["metrics"]
    }
    same = set(out["metrics"]) == {m["name"] for m in wanted}
    return {"correct": out["correct"] and same,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": metrics}


def _one(spec: dict, name: str, seed: int, seconds: float, trace: int) -> bool:
    import workloads

    out = workloads.run(name, seed, seconds, bool(trace))
    result = result_object(spec, out, bool(trace))
    print(json.dumps({"workload": name, "seed": seed, "trace": trace,
                      **out["info"], "env": _env()}))
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv: list[str] | None = None) -> int:
    spec = _spec() if (ROOT / "BENCHMARK.json").exists() else None
    names = [w["name"] for w in spec["workloads"]] if spec else []
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"] if spec else None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    if spec is None or not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: needs BENCHMARK.json and src/repro under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.describe:
        print(json.dumps(_describe(spec), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    todo = names if args.workload == "all" else [args.workload]
    ok = [_one(spec, n, args.seed, args.seconds, args.trace) for n in todo]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
