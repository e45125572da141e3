"""The fault-plan framework itself: determinism, schedules, transport."""

import json

import pytest

from repro import chaos


def fire_pattern(plan, site, n=20):
    """Which of *n* invocations of *site* fire, as a bool list."""
    return [plan.fire(site) is not None for _ in range(n)]


class TestSchedules:
    def test_times_fires_exactly_those_invocations(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, times=[0, 3, 7]),
        ])
        pattern = fire_pattern(plan, "s", 10)
        assert pattern == [i in (0, 3, 7) for i in range(10)]

    def test_every_fires_periodically(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, every=4),
        ])
        pattern = fire_pattern(plan, "s", 9)
        assert pattern == [i % 4 == 0 for i in range(9)]

    def test_max_fires_bounds_a_schedule(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, every=1, max_fires=3),
        ])
        assert sum(fire_pattern(plan, "s", 10)) == 3

    def test_prob_is_deterministic_in_the_seed(self):
        def run(seed):
            plan = chaos.FaultPlan([
                chaos.FaultSpec("s", chaos.KIND_ERROR, prob=0.5),
            ], seed=seed)
            return fire_pattern(plan, "s", 64)

        assert run(7) == run(7)
        assert run(7) != run(8)  # 2^-64 flake odds: fine

    def test_sites_are_independent_counters(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("a", chaos.KIND_ERROR, times=[1]),
            chaos.FaultSpec("b", chaos.KIND_ERROR, times=[0]),
        ])
        assert plan.fire("a") is None
        assert plan.fire("b") is not None
        assert plan.fire("a") is not None

    def test_unknown_site_never_fires_nor_counts(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, every=1),
        ])
        assert plan.fire("elsewhere") is None
        assert plan.fired_total() == 0

    def test_unknown_kind_rejected(self):
        for kind in ("meteor-strike", "poison"):
            with pytest.raises(ValueError):
                chaos.FaultSpec("s", kind)


class TestTransport:
    def test_json_round_trip(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("engine.worker.run", chaos.KIND_CRASH,
                            times=[0, 5]),
            chaos.FaultSpec("cache.append", chaos.KIND_TORN, times=[1],
                            args={"fraction": 0.25}),
        ], seed=7)
        clone = chaos.FaultPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert clone.to_dict() == plan.to_dict()
        assert clone.seed == 7

    def test_load_from_file_and_env(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "faults": [{"site": "s", "kind": "error", "times": [0]}],
        }))
        monkeypatch.setenv(chaos.CHAOS_ENV, str(path))
        plan = chaos.install_from_env()
        assert chaos.active() is plan
        assert plan.seed == 3
        assert chaos.fire("s") is not None

    def test_install_from_env_noop_without_var(self, monkeypatch):
        monkeypatch.delenv(chaos.CHAOS_ENV, raising=False)
        assert chaos.install_from_env() is None
        assert chaos.active() is None

    def test_active_plan_context_manager(self):
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, every=1),
        ])
        assert chaos.fire("s") is None  # nothing installed
        with chaos.active_plan(plan):
            assert chaos.fire("s") is not None
        assert chaos.active() is None
        assert chaos.fire("s") is None

    def test_firing_log_written_as_json_lines(self, tmp_path):
        log = tmp_path / "chaos.log"
        plan = chaos.FaultPlan([
            chaos.FaultSpec("s", chaos.KIND_ERROR, times=[0, 2]),
        ], log_path=str(log))
        for _ in range(3):
            plan.fire("s", key="k1", ignored=object())
        events = [json.loads(line)
                  for line in log.read_text().splitlines()]
        assert [e["invocation"] for e in events] == [0, 2]
        assert all(e["site"] == "s" and e["key"] == "k1" for e in events)
        assert events == plan.log


class TestExecutors:
    def test_inline_crash_raises_worker_crash(self):
        fault = {"kind": chaos.KIND_CRASH, "args": {}}
        with pytest.raises(chaos.WorkerCrash):
            chaos.execute_worker_fault(fault, inline=True)

    def test_error_raises_runtime_error(self):
        with pytest.raises(RuntimeError):
            chaos.execute_worker_fault({"kind": chaos.KIND_ERROR},
                                       inline=True)

    def test_delay_returns(self):
        chaos.execute_worker_fault(
            {"kind": chaos.KIND_DELAY, "args": {"seconds": 0.001}},
            inline=True)

    def test_non_worker_kind_rejected(self):
        with pytest.raises(ValueError):
            chaos.execute_worker_fault({"kind": chaos.KIND_TORN},
                                       inline=True)

    def test_torn_mangle_cuts_off_the_terminator(self):
        spec = chaos.FaultSpec("s", chaos.KIND_TORN)
        data = b'{"key": "abc", "outcome": {"status": "valid"}}\n'
        torn = chaos.mangle_record(spec, data)
        assert torn == data[:len(torn)]
        assert 0 < len(torn) < len(data)
        assert not torn.endswith(b"\n")

    def test_corrupt_mangle_keeps_length_and_terminator(self):
        spec = chaos.FaultSpec("s", chaos.KIND_CORRUPT)
        data = b'{"key": "abc", "outcome": {"status": "valid"}}\n'
        bad = chaos.mangle_record(spec, data)
        assert len(bad) == len(data)
        assert bad.endswith(b"\n")
        assert bad != data
        assert b"#" in bad
