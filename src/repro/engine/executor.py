"""Cell executor: one execution method over one worker pool.

The executor is deliberately dumb: it takes a list of cells and returns
their observed payloads *in the same order*.  Caching, aggregation and
progress accounting live above it (:class:`repro.engine.ExperimentEngine`),
input reconstruction lives below it (:mod:`repro.engine.worker`).

Determinism: every cell carries its own seeds inside the spec, and
workers rebuild inputs from those seeds, so the result of a cell does not
depend on whether it ran in-process or in which worker process.

With one worker and neither retries nor a timeout, cells run in-process
and their payloads carry live results.  Every other configuration ships
spec dictionaries to :func:`repro.engine.worker.execute_cell_observed`
on a :class:`~repro.engine.resilient.ResilientPool`, one cell per worker
at a time; retries and a timeout only turn on its retry and
partial-result behaviour.  The pool starts lazily on the first
multiprocess run and is *reused* across runs, so exhibits that submit
many small batches (e.g. a buffer sweep looping over ``run_protocol``)
pay pool start-up once and keep the workers' memoized inputs warm.
Workers are daemonic and die with the parent; call :meth:`Executor.close`
(or use the executor as a context manager) to release them earlier.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from ..dtn.results import SimulationResult
from ..exceptions import CellFailedError, ConfigurationError
from ..observability import ObservabilityOptions
from .resilient import CellFailure, ResilientPool
from .spec import ScenarioSpec
from .worker import execute_cell_observed, run_observed_cell

#: Progress callbacks receive ``(completed_cells, total_cells, spec)``.
ProgressCallback = Callable[[int, int, ScenarioSpec], None]


def default_workers() -> int:
    """A sensible worker count for this host (capped to keep spawn cheap)."""
    return max(1, min(os.cpu_count() or 1, 8))


class Executor:
    """Runs scenario cells in-process or on the worker pool.

    Args:
        workers: Number of worker processes; ``1`` runs cells in-process
            unless retries or a timeout need a worker to isolate them.
        retries: Extra attempts per cell after the first.  Together with
            *cell_timeout* it makes the executor *resilient*: a cell that
            exhausts its attempts becomes ``None`` in the returned list
            and a :class:`~repro.engine.resilient.CellFailure` in
            :attr:`last_failures` instead of failing the run.
        cell_timeout: Per-attempt deadline in seconds.
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = 0,
        cell_timeout: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if retries < 0:
            raise ConfigurationError("retries must not be negative")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive")
        self.workers = workers
        self.retries = retries
        self.cell_timeout = cell_timeout
        #: Cells of the most recent :meth:`run_observed` batch that
        #: exhausted their retries (indices refer to that batch).
        self.last_failures: List[CellFailure] = []
        self._pool: Optional[ResilientPool] = None

    @property
    def resilient(self) -> bool:
        """Whether failed cells become partial results instead of errors."""
        return self.retries > 0 or self.cell_timeout is not None

    def run_observed(
        self,
        cells: Sequence[ScenarioSpec],
        observability: ObservabilityOptions,
        progress: Optional[ProgressCallback] = None,
    ) -> List[Optional[dict]]:
        """Execute *cells*; return their observed payloads in submission order.

        Each payload is ``{"result": SimulationResult, "wall_s": float,
        "trace": [lines], "decisions": [lines]}``.  In-process and pool
        runs produce identical results and trace bytes; only ``wall_s``
        (telemetry about the run, never part of it) differs.
        *progress* receives ``(settled, total, spec)`` with the spec of
        the cell that just settled.

        A failed cell raises unless the executor is :attr:`resilient`:
        in-process the cell's own exception propagates, on the pool a
        :class:`~repro.exceptions.CellFailedError` names every failed
        cell and its worker's error.  A resilient executor instead
        leaves ``None`` at the failed cell's index and reports it in
        :attr:`last_failures`.
        """
        cells = list(cells)
        self.last_failures = []
        if not cells:
            return []
        if self.workers == 1 and not self.resilient:
            observed: List[Optional[dict]] = []
            for index, spec in enumerate(cells):
                observed.append(run_observed_cell(spec, observability))
                if progress is not None:
                    progress(index + 1, len(cells), spec)
            return observed

        if self._pool is None:
            self._pool = ResilientPool(
                execute_cell_observed,
                workers=self.workers,
                retries=self.retries,
                cell_timeout=self.cell_timeout,
            )
        on_settled = None
        if progress is not None:

            def on_settled(done: int, total: int, index: int) -> None:
                progress(done, total, cells[index])

        options = observability.to_dict()
        observed, failures = self._pool.run(
            [{"spec": spec.to_dict(), "observability": options} for spec in cells],
            labels=[spec.label for spec in cells],
            progress=on_settled,
        )
        if failures and not self.resilient:
            raise CellFailedError(
                "; ".join(f"cell {f.label!r} failed: {f.error}" for f in failures)
            )
        self.last_failures = failures
        for payload in observed:
            if payload is not None:
                payload["result"] = SimulationResult.from_dict(payload["result"])
        return observed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (a later run transparently recreates it)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
