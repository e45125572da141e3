"""A crash-safe worker pool for the batch-verification scheduler.

``multiprocessing.Pool`` cannot express the failure model the ISSUE
demands: when a pool worker dies (segfault, ``os._exit``, the OOM
killer), the ``AsyncResult`` for the job it was running never
resolves, and there is no way to learn *which* job took the worker
down.  This module manages workers directly — one ``Process`` and one
duplex ``Pipe`` per worker — so the parent can:

* **attribute failure** — a dead pipe/sentinel while a job is assigned
  pins the crash to that exact job (classified *crash*, distinct from
  *timeout* and from a worker-raised *error*);
* **recycle the pool** — a dead or hung worker is killed, joined and
  respawned without disturbing its siblings;
* **bound retries** — a crashed job is re-dispatched up to the retry
  budget, then degraded to an ``unknown`` outcome instead of aborting
  the batch;
* **enforce hard deadlines** — a worker stuck past the job's hard
  timeout (a hang outside the solver's cooperative deadline checks) is
  SIGKILLed and the job is reported ``timed_out``;
* **checkpoint incrementally** — every resolved outcome is handed to
  ``on_outcome`` the moment it exists, so the cache reflects partial
  progress and a killed batch resumes where it died.

Fault injection rides the same path: the parent consults the chaos
plan (site ``engine.worker.run``) before each dispatch and attaches a
fault marker to the payload; the worker wrapper acts it out.  Keeping
the decision in the parent makes firings deterministic regardless of
worker interleaving, fork vs. spawn, or pool size.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence

from .. import chaos

#: worker-process site consulted before every dispatch attempt
WORKER_SITE = "engine.worker.run"

#: jobs a warm worker completes before it is replaced with a fresh
#: process at its next idle moment (bounds resident-state growth)
RECYCLE_AFTER = 512


def _worker_main(conn, worker) -> None:
    """Worker-process loop: recv payload, run, send outcome; forever."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        fault = payload.pop("_chaos", None)
        try:
            if fault is not None:
                chaos.execute_worker_fault(fault, inline=False)
            result = worker(payload)
        except KeyboardInterrupt:  # pragma: no cover - parent shutdown
            return
        except BaseException as e:
            message = "%s: %s" % (type(e).__name__, e)
            try:
                conn.send(("error", message))
            except (OSError, BrokenPipeError):  # pragma: no cover
                return
        else:
            try:
                conn.send(("ok", result))
            except (OSError, BrokenPipeError):  # pragma: no cover
                return


class _Worker:
    """One managed worker process and its parent-side pipe end."""

    __slots__ = ("process", "conn", "job", "completed")

    def __init__(self, ctx, worker_fn):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn, worker_fn),
                                   daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        #: (payload, attempts, deadline | None) while busy, else None
        self.job = None
        #: jobs finished over this process's lifetime (RECYCLE_AFTER)
        self.completed = 0

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)


def _pool_context():
    """fork shares the imported interpreter state and is the fast path
    on Linux; spawn is the portable fallback."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_pool(
    worker: Callable[[dict], dict],
    payloads: Sequence[dict],
    processes: int,
    stats,
    record: Callable[[dict], None],
    error_outcome: Callable[..., dict],
    max_retries: int,
    hard_timeout: Callable[[dict], Optional[float]],
    on_outcome: Optional[Callable[[str, dict], None]] = None,
) -> Dict[str, dict]:
    """Run *payloads* across a self-healing pool; key → outcome map.

    *stats* is an :class:`~repro.engine.stats.EngineStats`; *record*
    books a successful outcome into it; *error_outcome* builds the
    ``unknown`` outcome for an abandoned job (the scheduler owns both
    so inline and pooled execution stay byte-identical).
    """
    ctx = _pool_context()
    queue = deque((payload, 0) for payload in payloads)
    outcomes: Dict[str, dict] = {}
    workers: List[_Worker] = [
        _Worker(ctx, worker)
        for _ in range(min(processes, max(1, len(queue))))
    ]

    def resolve(key: str, outcome: dict) -> None:
        if key in outcomes:  # pragma: no cover - double-report guard
            return
        outcomes[key] = outcome
        if on_outcome is not None:
            on_outcome(key, outcome)

    def give_up_or_requeue(payload: dict, attempts: int,
                           why: str) -> None:
        if attempts < max_retries:
            stats.retries += 1
            queue.append((payload, attempts + 1))
        else:
            stats.errors += 1
            resolve(payload["key"], error_outcome(payload["key"], why))

    def handle_crash(w: _Worker) -> None:
        payload, attempts, _deadline = w.job
        w.job = None
        stats.crashes += 1
        w.kill()  # joins, so the exit code is observable afterwards
        exit_code = w.process.exitcode
        workers.remove(w)
        give_up_or_requeue(payload, attempts,
                           "worker crashed (exit code %s)" % exit_code)

    def recycle(w: _Worker) -> None:
        w.kill()
        workers.remove(w)

    try:
        while queue or any(w.job is not None for w in workers):
            # keep the pool at strength while there is queued work
            while queue and len(workers) < processes:
                workers.append(_Worker(ctx, worker))
            # hand queued payloads to idle workers
            for w in list(workers):
                if w.job is not None or not queue:
                    continue
                if w.completed >= RECYCLE_AFTER:
                    # resident-state hygiene: retire the warm process
                    recycle(w)
                    w = _Worker(ctx, worker)
                    workers.append(w)
                payload, attempts = queue.popleft()
                sent = dict(payload)
                spec = chaos.fire(WORKER_SITE, key=payload["key"],
                                  attempt=attempts)
                if spec is not None:
                    sent["_chaos"] = chaos.payload_fault(spec)
                hard = hard_timeout(payload)
                deadline = None if hard is None \
                    else time.monotonic() + hard
                w.job = (payload, attempts, deadline)
                try:
                    w.conn.send(sent)
                except (OSError, BrokenPipeError):
                    # died before it could even accept the job
                    handle_crash(w)

            busy = [w for w in workers if w.job is not None]
            if not busy:
                if queue:
                    continue  # crash handling freed capacity; redispatch
                break
            now = time.monotonic()
            deadlines = [w.job[2] for w in busy if w.job[2] is not None]
            timeout = None if not deadlines \
                else max(0.0, min(deadlines) - now)
            handles = [w.conn for w in busy]
            handles.extend(w.process.sentinel for w in busy)
            ready = connection.wait(handles, timeout)
            now = time.monotonic()

            for w in list(busy):
                payload, attempts, deadline = w.job
                key = payload["key"]
                if w.conn in ready:
                    try:
                        kind, value = w.conn.recv()
                    except (EOFError, OSError):
                        handle_crash(w)
                        continue
                    w.job = None
                    if kind == "ok":
                        w.completed += 1
                        record(value)
                        resolve(key, value)
                    else:
                        give_up_or_requeue(payload, attempts,
                                           "job failed: %s" % value)
                elif w.process.sentinel in ready \
                        or not w.process.is_alive():
                    handle_crash(w)
                elif deadline is not None and now >= deadline:
                    # hung outside the solver's cooperative deadline
                    # checks: kill the worker, don't resubmit the job
                    stats.timeouts += 1
                    stats.errors += 1
                    w.job = None
                    w.kill()
                    workers.remove(w)
                    why = "hard timeout after %.0fs" \
                        % (hard_timeout(payload) or 0.0)
                    resolve(key, error_outcome(key, why, timed_out=True))
    finally:
        for w in workers:
            w.kill()
    return outcomes
