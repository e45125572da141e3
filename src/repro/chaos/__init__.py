"""``repro.chaos`` — deterministic fault injection for the whole stack.

The paper's thesis is that optimization correctness must be *checked*,
not trusted; this package applies the same standard to the machinery
doing the checking.  A seeded :class:`FaultPlan` injects worker
crashes, hangs, OOM kills, torn and corrupted cache writes, dispatch
errors and driver kills at named sites threaded through
:mod:`repro.engine`, :mod:`repro.engine.cache` and :mod:`repro.serve`;
:mod:`repro.chaos.clients` adds the attacks that arrive over the wire
(malformed frames, oversize frames, slowloris).  ``tests/chaos`` is
the suite every robustness claim in README's "Failure model" section
is verified against, and the CI chaos-smoke job replays a fixed plan
on every push.

Usage::

    from repro import chaos
    plan = chaos.FaultPlan([
        chaos.FaultSpec("engine.worker.run", chaos.KIND_CRASH,
                        times=[0, 5]),
        chaos.FaultSpec("cache.append", chaos.KIND_TORN, times=[1]),
    ], seed=7)
    with chaos.active_plan(plan):
        run_batch(corpus, config, jobs=4, cache=cache)

or, for a CLI process, ``ALIVE_REPRO_CHAOS=plan.json`` /
``--chaos plan.json`` (and ``ALIVE_REPRO_CHAOS_LOG=chaos.log`` to
record every firing).
"""

from .plan import (CHAOS_ENV, CHAOS_LOG_ENV, KIND_CORRUPT, KIND_CRASH,
                   KIND_DELAY, KIND_ERROR, KIND_HANG, KIND_KILL, KIND_OOM,
                   KIND_TORN, KINDS, FaultPlan, FaultSpec, InjectedKill,
                   WorkerCrash, active, active_plan, execute_worker_fault,
                   fire, install, install_from_env, mangle_record,
                   payload_fault, uninstall)

__all__ = [
    "CHAOS_ENV",
    "CHAOS_LOG_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedKill",
    "KINDS",
    "KIND_CORRUPT",
    "KIND_CRASH",
    "KIND_DELAY",
    "KIND_ERROR",
    "KIND_HANG",
    "KIND_KILL",
    "KIND_OOM",
    "KIND_TORN",
    "WorkerCrash",
    "active",
    "active_plan",
    "execute_worker_fault",
    "fire",
    "install",
    "install_from_env",
    "mangle_record",
    "payload_fault",
    "uninstall",
]
