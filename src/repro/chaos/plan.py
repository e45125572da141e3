"""Deterministic, seeded fault injection for the verification stack.

The engine/cache/serve layers promise specific behavior under failure
(crashed workers degrade to ``unknown``, torn cache writes lose only
the torn record, slow clients cannot wedge the event loop).  Those
promises are worthless untested, and real faults are rare and
unreproducible — so this module makes them *injectable* and
*deterministic*: a :class:`FaultPlan` names the faults, the code under
test calls :func:`fire` at named **sites**, and the same plan replays
the same faults at the same invocations every run.

Sites are stable strings threaded through the stack::

    engine.worker.run    crash / oom / hang / error in a worker
    engine.batch.abort   kill the batch driver after a checkpoint write
    cache.append         torn / corrupt / error on a cache record write
    cache.compact        error during compaction (atomicity check)
    serve.dispatch       error in the server's engine dispatch
    serve.read_frame     delay before handling a request frame
    cluster.forward      error (partition: chunk never sent) / delay on
                         a coordinator → node job dispatch
    cluster.heartbeat    error (probe fails: node looks partitioned) /
                         delay on a coordinator health probe
    cluster.replicate    error (write-through lost) / corrupt (replica
                         entry mangled; install validation must reject)
    cluster.node.kill    crash / oom / kill: SIGKILL a whole supervised
                         node mid-batch (args["node"] picks the victim)

The ``cluster.*`` sites all fire from the coordinator's main thread in
dispatch order, so one seeded plan replays an identical whole-node
fault schedule — kills included — on every run.

A plan is plain data (JSON round-trippable) so it can ride an
environment variable into a CLI process::

    {"seed": 7, "faults": [
        {"site": "engine.worker.run", "kind": "crash", "times": [0, 5]},
        {"site": "cache.append", "kind": "torn", "times": [1]}
    ]}

Determinism: each site keeps an invocation counter; a fault fires when
the counter matches ``times``, or every ``every``-th invocation, or
with probability ``prob`` drawn from a ``random.Random`` seeded by
``(plan seed, site)`` — never from global randomness.  ``max_fires``
bounds the total firings of one spec.

The hooks are free when chaos is off: :func:`fire` is a module-global
``None`` check (measured < 2% on the engine batch benchmark, see
``benchmarks/bench_chaos.py``).
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from typing import Dict, List, Optional

#: environment variable holding the path of a JSON fault plan
CHAOS_ENV = "ALIVE_REPRO_CHAOS"
#: environment variable naming the chaos log file (one JSON line per
#: firing; CI uploads it as an artifact when a chaos run fails)
CHAOS_LOG_ENV = "ALIVE_REPRO_CHAOS_LOG"

#: fault kinds understood by the worker/cache/serve hooks
KIND_CRASH = "crash"    # worker dies (os._exit in a process, WorkerCrash inline)
KIND_OOM = "oom"        # worker is SIGKILLed (the OOM-killer's signature)
KIND_HANG = "hang"      # worker sleeps past every deadline
KIND_ERROR = "error"    # an exception at the site
KIND_TORN = "torn"      # a write is cut short mid-record
KIND_CORRUPT = "corrupt"  # written bytes are mangled in place
KIND_DELAY = "delay"    # the site sleeps args["seconds"] then proceeds
KIND_KILL = "kill"      # the driver process is interrupted (SIGINT-like)

KINDS = (KIND_CRASH, KIND_OOM, KIND_HANG, KIND_ERROR, KIND_TORN,
         KIND_CORRUPT, KIND_DELAY, KIND_KILL)


class WorkerCrash(Exception):
    """In-process stand-in for a worker process dying.

    The inline (``--jobs 1``) scheduler path cannot survive a real
    ``os._exit``; a crash fault raises this instead, and the scheduler
    classifies it exactly like a dead pool worker.
    """


class InjectedKill(KeyboardInterrupt):
    """The ``kill`` fault: the batch driver is interrupted.

    A ``KeyboardInterrupt`` subclass so it unwinds through the
    scheduler like a real Ctrl-C / SIGINT would, exercising the
    checkpoint/resume path end to end.
    """


class FaultSpec:
    """One injectable fault: a site, a kind, and a firing schedule."""

    __slots__ = ("site", "kind", "times", "every", "prob", "max_fires",
                 "args", "fired")

    def __init__(self, site: str, kind: str,
                 times: Optional[List[int]] = None,
                 every: Optional[int] = None,
                 prob: Optional[float] = None,
                 max_fires: Optional[int] = None,
                 args: Optional[dict] = None):
        if kind not in KINDS:
            raise ValueError("unknown fault kind %r (one of %s)"
                             % (kind, ", ".join(KINDS)))
        self.site = site
        self.kind = kind
        self.times = None if times is None else set(int(t) for t in times)
        self.every = every
        self.prob = prob
        self.max_fires = max_fires
        self.args = dict(args or {})
        self.fired = 0

    def should_fire(self, invocation: int, rng: random.Random) -> bool:
        if self.max_fires is not None and self.fired >= self.max_fires:
            return False
        hit = False
        if self.times is not None and invocation in self.times:
            hit = True
        if self.every is not None and self.every > 0 \
                and invocation % self.every == 0:
            hit = True
        if self.prob is not None and rng.random() < self.prob:
            hit = True
        return hit

    def to_dict(self) -> dict:
        data: dict = {"site": self.site, "kind": self.kind}
        if self.times is not None:
            data["times"] = sorted(self.times)
        if self.every is not None:
            data["every"] = self.every
        if self.prob is not None:
            data["prob"] = self.prob
        if self.max_fires is not None:
            data["max_fires"] = self.max_fires
        if self.args:
            data["args"] = self.args
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(site=data["site"], kind=data["kind"],
                   times=data.get("times"), every=data.get("every"),
                   prob=data.get("prob"), max_fires=data.get("max_fires"),
                   args=data.get("args"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "FaultSpec(%s, %s, fired=%d)" % (self.site, self.kind,
                                                self.fired)


class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s keyed by site.

    Mutable runtime state (invocation counters, fire counts, the
    firing log) lives on the plan, so one plan instance describes one
    chaos run; load a fresh plan to replay it.
    """

    def __init__(self, faults: Optional[List[FaultSpec]] = None,
                 seed: int = 0, log_path: Optional[str] = None):
        self.seed = seed
        self.log_path = log_path
        self._by_site: Dict[str, List[FaultSpec]] = {}
        self._counters: Dict[str, int] = {}
        self._rngs: Dict[str, random.Random] = {}
        #: every firing, in order: {"site", "kind", "invocation", ...}
        self.log: List[dict] = []
        for spec in faults or []:
            self.add(spec)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self._by_site.setdefault(spec.site, []).append(spec)
        return self

    @property
    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def fired_total(self) -> int:
        return len(self.log)

    def fire(self, site: str, **ctx) -> Optional[FaultSpec]:
        """Advance *site*'s counter; returns the spec that fires, if any."""
        specs = self._by_site.get(site)
        if not specs:
            return None
        invocation = self._counters.get(site, 0)
        self._counters[site] = invocation + 1
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(
                "%d:%s" % (self.seed, site))
        for spec in specs:
            if spec.should_fire(invocation, rng):
                spec.fired += 1
                event = {"site": site, "kind": spec.kind,
                         "invocation": invocation}
                event.update((k, v) for k, v in ctx.items()
                             if isinstance(v, (str, int, float, bool)))
                self.log.append(event)
                self._write_log_line(event)
                return spec
        return None

    def _write_log_line(self, event: dict) -> None:
        path = self.log_path or os.environ.get(CHAOS_LOG_ENV)
        if not path:
            return
        try:
            with open(path, "a") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:  # pragma: no cover - the log must never fault us
            pass

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "faults": [spec.to_dict()
                           for specs in self._by_site.values()
                           for spec in specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(seed=data.get("seed", 0),
                   faults=[FaultSpec.from_dict(f)
                           for f in data.get("faults", [])])

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# The global hook — what instrumented code actually calls
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Activate *plan* process-wide (None deactivates)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    return _PLAN


def install_from_env() -> Optional[FaultPlan]:
    """Activate the plan named by ``ALIVE_REPRO_CHAOS``, if any."""
    path = os.environ.get(CHAOS_ENV)
    if not path:
        return None
    plan = FaultPlan.load(path)
    install(plan)
    return plan


def fire(site: str, **ctx) -> Optional[FaultSpec]:
    """The injection hook; a no-op global check when chaos is off."""
    if _PLAN is None:
        return None
    return _PLAN.fire(site, **ctx)


class active_plan:
    """Context manager: install a plan for one ``with`` block (tests)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install(self.plan)
        return self.plan

    def __exit__(self, *exc) -> None:
        uninstall()


# ----------------------------------------------------------------------
# Fault executors — shared by the instrumented layers
# ----------------------------------------------------------------------


def payload_fault(spec: FaultSpec) -> dict:
    """The picklable marker a scheduler attaches to a worker payload."""
    return {"kind": spec.kind, "args": spec.args}


def execute_worker_fault(fault: dict, inline: bool) -> None:
    """Act out a worker fault marker attached to a payload.

    *inline* distinguishes the in-process scheduler path (crashes must
    not take the driver down with them) from a real worker process
    (crashes are genuine process deaths, exactly what the pool has to
    survive).
    """
    kind = fault.get("kind")
    args = fault.get("args") or {}
    if kind == KIND_DELAY:
        time.sleep(float(args.get("seconds", 0.05)))
        return
    if kind == KIND_HANG:
        time.sleep(float(args.get("seconds", 3600.0)))
        if inline:
            return
        raise WorkerCrash("chaos: worker hung and woke up")
    if kind == KIND_ERROR:
        raise RuntimeError("chaos: injected worker error")
    if kind in (KIND_CRASH, KIND_OOM):
        if inline:
            raise WorkerCrash("chaos: injected worker %s" % kind)
        if kind == KIND_OOM:  # pragma: no cover - dies before reporting
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(int(args.get("exit_code", 137)))  # pragma: no cover
    raise ValueError("fault kind %r cannot run at a worker site" % kind)


def mangle_record(spec: FaultSpec, data: bytes,
                  rng: Optional[random.Random] = None) -> bytes:
    """Apply a ``torn``/``corrupt`` fault to one serialized record.

    * ``torn`` keeps only a prefix (default: half the bytes, no
      terminator) — a crash mid-``write(2)``.
    * ``corrupt`` overwrites a deterministic slice with ``#`` bytes but
      keeps the record's length and terminator — a disk-level flip the
      CRC must catch.
    """
    if spec.kind == KIND_TORN:
        fraction = float(spec.args.get("fraction", 0.5))
        cut = max(1, int(len(data) * fraction))
        return data[:cut]
    if spec.kind == KIND_CORRUPT:
        rng = rng or random.Random("corrupt:%d" % spec.fired)
        body = bytearray(data)
        span = max(1, int(spec.args.get("bytes", 4)))
        # never touch the terminator; pick a run inside the record
        start = rng.randrange(1, max(2, len(body) - span - 1))
        for i in range(start, min(start + span, len(body) - 1)):
            body[i] = ord("#")
        return bytes(body)
    raise ValueError("fault kind %r cannot mangle a record" % spec.kind)
