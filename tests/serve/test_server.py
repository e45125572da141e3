"""End-to-end tests: real server, real TCP, blocking clients.

Each test boots a :class:`VerifyServer` on an ephemeral port (see
``conftest.ServerHarness``) and talks to it exactly like an external
client.  The acceptance criteria of the serving layer live here:
cache-served repeats without scheduler dispatch, in-flight dedup,
overload fast-reject with in-flight completion, graceful SIGTERM
drain.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import ResultCache, plan_transformation
from repro.engine.cache import semantics_fingerprint
from repro.ir import parse_transformations
from repro.serve import ClientError, Overloaded

from .conftest import BAD, GOOD, GOOD2, TEST_CONFIG

REPO_ROOT = Path(__file__).resolve().parents[2]


def n_jobs(text):
    """How many refinement jobs the server will plan for *text*."""
    (transformation,) = parse_transformations(text)
    plan = plan_transformation(transformation, TEST_CONFIG,
                               semantics_fingerprint())
    return len(plan.jobs)


class TestRoundTrip:
    def test_valid_rule(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.submit(GOOD)
        assert response["ok"]
        assert response["exit_code"] == 0
        (result,) = response["results"]
        assert result["name"] == "good"
        assert result["status"] == "valid"
        assert result["counterexample"] is None

    def test_refuted_rule_carries_counterexample(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.submit(BAD)
        assert response["exit_code"] == 1
        (result,) = response["results"]
        assert result["status"] == "invalid"
        assert result["counterexample"]

    def test_many_rules_one_request(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.submit_batch([GOOD, BAD, GOOD2])
        statuses = [r["status"] for r in response["results"]]
        assert statuses == ["valid", "invalid", "valid"]
        assert response["exit_code"] == 1

    def test_pipelined_requests_same_connection(self, make_server):
        harness = make_server()
        with harness.client() as client:
            first = client.submit(GOOD)
            second = client.submit(BAD)
        assert first["exit_code"] == 0 and second["exit_code"] == 1

    def test_knob_override(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.submit(GOOD, knobs={"max_width": 4})
        assert response["results"][0]["status"] == "valid"


class TestBadRequests:
    def test_unparseable_rules(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.submit("this is not an alive rule")
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_missing_rules(self, make_server):
        harness = make_server()
        with harness.client() as client:
            response = client.request("")
        assert response["error"] == "bad_request"

    def test_unknown_knob(self, make_server):
        harness = make_server()
        with harness.client() as client:
            for knob, value in (("warp_factor", 9), ("incremental", False),
                                ("absint", False), ("brute_max_bits", 22)):
                response = client.submit(GOOD, knobs={knob: value})
                assert response["error"] == "bad_request"
                assert knob in response["detail"]

    def test_garbage_line_keeps_connection_alive(self, make_server):
        harness = make_server()
        with harness.client() as client:
            client._file.write(b"not json at all\n")
            client._file.flush()
            error = json.loads(client._file.readline())
            assert error["error"] == "bad_request"
            # the same connection still serves real requests
            assert client.submit(GOOD)["ok"]


class TestCachePath:
    def test_repeat_request_served_from_cache_without_dispatch(
            self, make_server, tmp_path):
        cache = ResultCache(tmp_path / "cache.jsonl",
                            semantics_fingerprint())
        harness = make_server(cache=cache)
        with harness.client() as client:
            first = client.submit(GOOD)
            assert first["stats"]["cache_hits"] == 0
            warm = client.metrics()
            second = client.submit(GOOD)
            after = client.metrics()
        # every job of the repeat was a cache hit…
        assert second["results"][0]["status"] == "valid"
        assert second["stats"]["cache_hits"] == second["stats"]["jobs"]
        assert after["serve_cache_hits_total"] == \
            warm["serve_cache_hits_total"] + second["stats"]["jobs"]
        # …and the engine was never consulted again: no new micro-batch,
        # no new scheduler dispatch, no new executed job
        for counter in ("serve_batches_total", "serve_jobs_executed_total",
                        "engine_scheduler_dispatches",
                        "engine_scheduler_jobs_dispatched"):
            assert after[counter] == warm[counter], counter

    def test_cache_survives_restart(self, make_server, tmp_path):
        path = tmp_path / "cache.jsonl"
        harness = make_server(cache=ResultCache(path,
                                                semantics_fingerprint()))
        with harness.client() as client:
            client.submit(GOOD)
        harness.stop()

        harness2 = make_server(cache=ResultCache(path,
                                                 semantics_fingerprint()))
        with harness2.client() as client:
            response = client.submit(GOOD)
        assert response["stats"]["cache_hits"] == response["stats"]["jobs"]


class TestDedup:
    def test_concurrent_identical_requests_coalesce(self, make_server):
        # a long batching window guarantees both requests land in the
        # same window; the second must coalesce, not re-plan work
        harness = make_server(max_wait_ms=250.0, max_batch=1024)
        barrier = threading.Barrier(2)
        responses = []

        def submit():
            with harness.client() as client:
                barrier.wait()
                responses.append(client.submit(GOOD))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(responses) == 2
        assert all(r["results"][0]["status"] == "valid" for r in responses)
        coalesced = sum(r["stats"]["coalesced"] for r in responses)
        assert coalesced == n_jobs(GOOD)  # one request paid, one joined
        metrics = harness.run_coro(_snapshot(harness.server))
        assert metrics["serve_dedup_total"] == coalesced
        assert metrics["serve_jobs_executed_total"] == n_jobs(GOOD)


async def _snapshot(server):
    return server.metrics.snapshot()


class TestBackpressure:
    def test_overload_fast_reject_while_inflight_completes(
            self, make_server):
        depth = n_jobs(GOOD)
        harness = make_server(queue_depth=depth, max_wait_ms=600.0,
                              max_batch=1024)
        inflight = {}

        def submit_first():
            with harness.client() as client:
                inflight["response"] = client.submit(GOOD)

        thread = threading.Thread(target=submit_first)
        thread.start()
        # wait until the first request's jobs occupy the whole queue
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if harness.server.batcher.pending >= depth:
                break
            time.sleep(0.01)
        assert harness.server.batcher.pending >= depth

        with harness.client(max_retries=0) as client:
            with pytest.raises(Overloaded) as excinfo:
                client.submit(GOOD2)
        rejection = excinfo.value.response
        assert rejection["error"] == "overloaded"
        assert rejection["retry_after"] > 0

        thread.join(timeout=30)
        assert inflight["response"]["results"][0]["status"] == "valid"
        metrics = harness.run_coro(_snapshot(harness.server))
        assert metrics["serve_overloaded_total"] >= 1

    def test_identical_burst_is_not_overload(self, make_server):
        # duplicates coalesce, so they never count against the queue
        harness = make_server(queue_depth=n_jobs(GOOD), max_wait_ms=250.0,
                              max_batch=1024)
        responses = []
        barrier = threading.Barrier(4)

        def submit():
            with harness.client(max_retries=0) as client:
                barrier.wait()
                responses.append(client.submit(GOOD))

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(responses) == 4
        assert all(r["ok"] for r in responses)

    def test_rate_limit_per_connection(self, make_server):
        harness = make_server(rate=0.001, burst=2)
        with harness.client(max_retries=0) as client:
            assert client.submit(GOOD)["ok"]
            assert client.submit(GOOD)["ok"]
            with pytest.raises(Overloaded) as excinfo:
                client.submit(GOOD)
        assert excinfo.value.response["error"] == "rate_limited"
        assert excinfo.value.response["retry_after"] > 0

    def test_fresh_connection_gets_fresh_bucket(self, make_server):
        harness = make_server(rate=0.001, burst=1)
        for _ in range(3):
            with harness.client(max_retries=0) as client:
                assert client.submit(GOOD)["ok"]


class TestHttpShim:
    def test_healthz(self, make_server):
        harness = make_server()
        status, body = harness.client().http_get("/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["inflight_requests"] == 0

    def test_metrics_scrape(self, make_server):
        harness = make_server()
        with harness.client() as client:
            client.submit(GOOD)
            status, body = client.http_get("/metrics")
        assert status == 200
        assert "# TYPE serve_requests_total counter" in body
        assert "engine_scheduler_dispatches" in body
        values = harness.client().metrics()
        assert values["serve_requests_total"] == 1

    def test_post_verify(self, make_server):
        harness = make_server()
        body = json.dumps({"rules": GOOD}).encode()
        with socket.create_connection(("127.0.0.1", harness.server.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /v1/verify HTTP/1.1\r\n"
                         b"Host: x\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (len(body), body))
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"200 OK" in head.splitlines()[0]
        response = json.loads(payload)
        assert response["ok"] and response["exit_code"] == 0

    def test_404(self, make_server):
        harness = make_server()
        status, _ = harness.client().http_get("/nope")
        assert status == 404


class TestDrain:
    def test_drain_refuses_new_connections(self, make_server):
        harness = make_server()
        with harness.client() as client:
            assert client.submit(GOOD)["ok"]
        harness.drain()
        assert harness.server.draining
        with pytest.raises((ClientError, OSError)):
            harness.client(max_retries=0).request(GOOD)

    def test_drain_is_idempotent(self, make_server):
        harness = make_server()
        harness.drain()
        harness.drain()

    def test_drain_compacts_cache(self, make_server, tmp_path):
        cache = ResultCache(tmp_path / "cache.jsonl",
                            semantics_fingerprint())
        harness = make_server(cache=cache)
        with harness.client() as client:
            client.submit(GOOD)
        harness.drain()
        lines = [line for line in
                 (tmp_path / "cache.jsonl").read_text().splitlines()
                 if line.strip()]
        # compacted: exactly one line per live entry
        assert len(lines) == len(cache)


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        rule = tmp_path / "rule.opt"
        rule.write_text(GOOD)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-width", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(REPO_ROOT))
        try:
            line = server.stdout.readline()
            match = re.search(r"serving on ([\d.]+):(\d+)", line)
            assert match, "no announce line: %r" % line
            addr = "%s:%s" % (match.group(1), match.group(2))

            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit", str(rule),
                 "--addr", addr, "--max-width", "4"],
                capture_output=True, text=True, env=env,
                cwd=str(REPO_ROOT), timeout=120)
            assert submit.returncode == 0, submit.stdout + submit.stderr
            assert "valid" in submit.stdout

            server.send_signal(signal.SIGTERM)
            out, _ = server.communicate(timeout=60)
            assert server.returncode == 0
            assert "drained cleanly" in out
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate()
