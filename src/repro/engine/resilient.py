"""The engine's worker pool: crash isolation, timeouts, retries.

Every multiprocess run of :class:`~repro.engine.executor.Executor` goes
through :class:`ResilientPool`.  Its default configuration (no retries,
no timeout) runs each cell once; ``--retries`` and ``--cell-timeout``
turn on the rest:

* **crash isolation** — every worker owns a private pipe; a worker that
  dies mid-cell (OOM kill, segfault, ``SIGKILL``) surfaces as a broken
  pipe on *its* cell only.  The dead worker is reaped, a replacement is
  spawned, and the cell is retried — the sweep keeps going.
* **per-cell timeout** — a cell that exceeds its deadline has its worker
  terminated (the only way to stop a stuck simulation) and is retried on
  a fresh one.
* **bounded deterministic backoff** — attempt *n* of a cell waits
  ``backoff_base * 2**(n-1)`` seconds before redispatch.  The delay is a
  pure function of the attempt number (no jitter), so retry schedules are
  reproducible.
* **partial results** — a cell that exhausts its retries becomes a
  :class:`CellFailure` in the returned report instead of an exception;
  its slot in the ordered result list is ``None``.

Workers start lazily on the first :meth:`ResilientPool.run` and persist
across runs until :meth:`ResilientPool.close` (or until the pool is
garbage-collected), so a caller that submits many small batches pays
process start-up once and keeps the workers' memoized inputs warm.

Determinism is unaffected: a cell's result is a pure function of its
spec, so it does not matter which worker — or which attempt — produced
it.  A sweep with one worker SIGKILLed mid-run therefore yields results
byte-identical to an undisturbed run.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = ["CellFailure", "ResilientPool"]


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted its retry budget.

    ``index`` is the position of the cell in the submitted batch (the
    caller maps it back to grid coordinates); ``attempts`` counts every
    try including the first; ``error`` is a short human-readable cause
    (worker traceback tail, "worker died", or "timed out").
    """

    index: int
    label: str
    attempts: int
    error: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible row for telemetry reports."""
        return {
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "error": self.error,
        }


def _worker_main(conn, fn) -> None:
    """Worker loop: receive ``(index, payload)``, send ``(index, ok, value)``.

    Errors inside *fn* are caught and shipped back as a trimmed traceback
    string so the parent can decide to retry; only a dead process (which
    cannot send anything) surfaces as a broken pipe.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        index, payload = message
        try:
            value = fn(payload)
        except KeyboardInterrupt:
            return
        except BaseException:
            tail = traceback.format_exc().strip().splitlines()[-1]
            conn.send((index, False, tail))
        else:
            conn.send((index, True, value))


class _WorkerSlot:
    """One worker process, its pipe, and what it is currently running."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[int] = None
        self.deadline: Optional[float] = None


def _reap(slot: _WorkerSlot) -> None:
    try:
        slot.conn.close()
    except OSError:  # pragma: no cover - best-effort cleanup
        pass
    if slot.process.is_alive():
        slot.process.terminate()
    slot.process.join(timeout=5.0)


def _close_slots(slots: List[_WorkerSlot]) -> None:
    """Ask idle workers to exit, reap every worker, and empty *slots*."""
    for slot in slots:
        if slot.task is None and slot.process.is_alive():
            try:
                slot.conn.send(None)
            except OSError:
                pass
    for slot in slots:
        _reap(slot)
    slots.clear()


class ResilientPool:
    """A persistent, self-healing worker pool with deadlines and retries.

    Unlike :class:`multiprocessing.pool.Pool` the dispatch window is one
    task per worker, which is what makes a deadline enforceable (the
    parent knows exactly which task a terminated worker was running).

    Args:
        fn: Top-level function each worker applies to a payload.
        workers: Number of worker processes.
        retries: Extra attempts per task after the first (``0`` = fail on
            the first error).
        cell_timeout: Per-attempt deadline in seconds (``None`` = none).
        backoff_base: Base of the deterministic exponential backoff.
    """

    def __init__(
        self,
        fn: Callable[[object], object],
        workers: int = 1,
        retries: int = 0,
        cell_timeout: Optional[float] = None,
        backoff_base: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if retries < 0:
            raise ConfigurationError("retries must not be negative")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive")
        if backoff_base < 0:
            raise ConfigurationError("backoff_base must not be negative")
        self.fn = fn
        self.workers = workers
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.backoff_base = backoff_base
        self._slots: List[_WorkerSlot] = []
        # Reaps the workers of a pool dropped without close(); holds the
        # slot list, not the pool, so the pool stays collectable.
        weakref.finalize(self, _close_slots, self._slots)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> _WorkerSlot:
        parent_conn, child_conn = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(child_conn, self.fn), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerSlot(process, parent_conn)

    def _replace(self, slot: _WorkerSlot) -> None:
        """Reap *slot*'s worker and put a fresh one in its place."""
        _reap(slot)
        self._slots[self._slots.index(slot)] = self._spawn()

    def close(self) -> None:
        """Stop every worker (a later :meth:`run` starts fresh ones)."""
        _close_slots(self._slots)

    def _backoff(self, attempts: int) -> float:
        """Deterministic delay before attempt ``attempts + 1`` of a task."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * (2.0 ** (attempts - 1))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Sequence[object],
        labels: Optional[Sequence[str]] = None,
        progress: Optional[Callable[[int, int, int], None]] = None,
    ) -> Tuple[List[Optional[object]], List[CellFailure]]:
        """Run every payload; return ``(ordered results, failures)``.

        Results keep submission order; a task that exhausted its retries
        holds ``None`` in the result list and one :class:`CellFailure`
        (at the same index) in the failure list.  *progress* is called
        as ``(settled, total, index)`` each time a task settles, where
        *index* is the submission index of the task that just settled
        (tasks settle out of submission order).  Any exception —
        ``KeyboardInterrupt`` included — stops every worker before
        propagating, so an interrupted sweep leaves no orphaned
        processes behind.
        """
        payloads = list(payloads)
        total = len(payloads)
        results: List[Optional[object]] = [None] * total
        failures: List[CellFailure] = []
        if not payloads:
            return results, failures

        attempts: Dict[int, int] = {index: 0 for index in range(total)}
        # Tasks eligible for dispatch as (not_before_monotonic, index);
        # a retried task re-enters with its backoff deadline.
        pending: List[Tuple[float, int]] = [(0.0, index) for index in range(total)]
        done = 0
        slots = self._slots
        for slot in [slot for slot in slots if not slot.process.is_alive()]:
            self._replace(slot)  # died while idle between runs
        while len(slots) < min(self.workers, total):
            slots.append(self._spawn())

        def label_of(index: int) -> str:
            return labels[index] if labels is not None else str(index)

        def settle(index: int, error: str) -> None:
            """Record a failed attempt: retry with backoff or give up."""
            nonlocal done
            attempts[index] += 1
            if attempts[index] > self.retries:
                failures.append(
                    CellFailure(
                        index=index,
                        label=label_of(index),
                        attempts=attempts[index],
                        error=error,
                    )
                )
                done += 1
                if progress is not None:
                    progress(done, total, index)
            else:
                not_before = time.monotonic() + self._backoff(attempts[index])
                pending.append((not_before, index))

        try:
            while done < total:
                now = time.monotonic()
                # Dispatch eligible tasks onto idle workers.
                idle = [slot for slot in slots if slot.task is None]
                if idle and pending:
                    pending.sort()
                    while idle and pending and pending[0][0] <= now:
                        _, index = pending.pop(0)
                        slot = idle.pop(0)
                        slot.conn.send((index, payloads[index]))
                        slot.task = index
                        if self.cell_timeout is not None:
                            slot.deadline = now + self.cell_timeout

                busy = [slot for slot in slots if slot.task is not None]
                # How long to block: until the nearest deadline, the next
                # backed-off task becoming eligible (only worth waking for
                # when a worker is idle to take it), or a coarse tick.
                timeout = 1.0
                for slot in busy:
                    if slot.deadline is not None:
                        timeout = min(timeout, max(0.0, slot.deadline - now))
                if pending and len(busy) < len(slots):
                    timeout = min(timeout, max(0.0, pending[0][0] - now))
                if not busy:
                    if timeout > 0:
                        time.sleep(min(timeout, 0.05))
                    continue

                ready = multiprocessing.connection.wait(
                    [slot.conn for slot in busy], timeout=timeout
                )
                for conn in ready:
                    slot = next(s for s in busy if s.conn is conn)
                    index = slot.task
                    try:
                        _, ok, value = conn.recv()
                    except (EOFError, OSError):
                        # The worker died mid-cell: reap it, spawn a
                        # replacement, and charge the cell one attempt.
                        self._replace(slot)
                        settle(index, "worker died mid-cell")
                        continue
                    slot.task = None
                    slot.deadline = None
                    if ok:
                        results[index] = value
                        done += 1
                        if progress is not None:
                            progress(done, total, index)
                    else:
                        settle(index, str(value))

                # Enforce deadlines on workers that stayed silent.
                now = time.monotonic()
                for slot in slots:
                    if (
                        slot.task is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                    ):
                        index = slot.task
                        self._replace(slot)
                        settle(
                            index,
                            f"cell timed out after {self.cell_timeout:g}s",
                        )
        except BaseException:
            # Workers may be mid-task with replies this run will never
            # read; stop them all so none keeps simulating and the next
            # run starts from clean pipes.
            self.close()
            raise

        failures.sort(key=lambda failure: failure.index)
        return results, failures
