"""Write ``digests.json``: the result digests the benchmark checks at the default seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when a change is meant to alter simulated output; a change
meant only to be faster must leave every digest as it is.  The
single-cell digests are taken from ``Simulator.run()`` directly and the
sweep digests from ``ExperimentEngine.run_cells`` results, keyed by the
cell's cache key, while the benchmark itself checks the results it reads
back from the cold pass's cache — so the pins also hold the cache round
trip to the computed results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from catalog import DEFAULT_SEED  # noqa: E402
from repro.engine import ExperimentEngine  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_WORKERS,
    canonical,
    dense_simulator,
    digest,
    sparse_simulator,
    sweep_config,
    sweep_grid,
)


def compute_pins() -> dict:
    """Digests of every cell the benchmark checks at the default seed."""
    cells = {}
    for name, build in (("sparse_evict", sparse_simulator), ("dense_control", dense_simulator)):
        simulator, _, _ = build(DEFAULT_SEED)
        cells[name] = digest(canonical(simulator.run().to_dict()))
    specs = sweep_grid(sweep_config(), DEFAULT_SEED).cells()
    with ExperimentEngine(workers=SWEEP_WORKERS) as engine:
        results = engine.run_cells(specs)
    sweep = {
        spec.cache_key(): digest(canonical(result.to_dict()))
        for spec, result in zip(specs, results)
    }
    return {"seed": DEFAULT_SEED, "cells": cells, "trace_sweep": sweep}


def main() -> int:
    pins = compute_pins()
    with open(HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(pins['cells'])} cells and {len(pins['trace_sweep'])} sweep cells "
          f"at seed {DEFAULT_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
