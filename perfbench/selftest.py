"""Self-test of the benchmark at tiny size (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

It shrinks every workload, pins digests for the shrunk cells, and then
checks, for each workload:

* the untraced run emits every end-to-end metric and the traced run
  every per-layer metric, each with the unit ``BENCHMARK.json`` gives it,
  and both report zero failed cells;
* with one pinned digest altered, the run counts the affected cells as
  failed and reports ``correct: false``.

Exit status 0 means every check passed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import pin  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import units  # noqa: E402

TINY = {
    "SPARSE_NODES": 20,
    "SPARSE_PACKETS": 120,
    "SPARSE_CONTACTS": 30,
    "SPARSE_BUFFER": 8 * units.KB,
    "DENSE_DURATION": 40.0,
    "DENSE_BUFFER": 60 * units.KB,
    "SWEEP_DAYS": 1,
    "SWEEP_LOADS": (2.0,),
}


def main() -> int:
    problems = []
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    for key, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.LAYERS)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [(m.name, m.unit, m.better) for m in table]:
            problems.append(f"BENCHMARK.json {key} disagrees with the catalog")
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for name, value in TINY.items():
        setattr(workloads, name, value)
    pins = pin.compute_pins()
    seed = catalog.DEFAULT_SEED

    for name in catalog.WORKLOADS:
        for trace in (0, 1):
            result, _, _ = run.run(name, seed, 0.0, trace, pins)
            emitted = {key: metric["unit"] for key, metric in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) ^ set(emitted))
                problems.append(f"{name} --trace {trace}: metrics or units differ {missing}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} --trace {trace}: {result['failed']} of "
                                f"{result['attempted']} cells failed against fresh pins")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")

        altered = copy.deepcopy(pins)
        table = altered["trace_sweep"] if name == "trace_sweep" else altered["cells"]
        key = next(iter(table)) if name == "trace_sweep" else name
        table[key] = "0" * 64
        result, _, _ = run.run(name, seed, 0.0, 0, altered)
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: an altered digest gave {result['failed']} failed cells, "
                            "expected 1")
        print(f"{name}: checked", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
