"""CLI tests: the alive-repro subcommands end to end."""

import json
import os
import re

import pytest

from repro.cli import main

GOOD = """Name: good
%r = add %x, 0
=>
%r = %x
"""

BAD = """Name: bad
%r = add %x, 1
=>
%r = add %x, 2
"""

#: takes a visible fraction of a second at --max-width 4
DISTRIBUTE = """Name: distribute
%a = mul %x, %y
%b = mul %x, %z
%r = add %a, %b
=>
%s = add %y, %z
%r = mul %x, %s
"""

FLAGGED = """Name: flagged
%r = add nsw %x, %y
=>
%r = add %y, %x
"""


@pytest.fixture
def opt_file(tmp_path):
    def write(content, name="input.opt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestVerifyCommand:
    def test_valid_exits_zero(self, opt_file, capsys):
        rc = main(["verify", "--max-width", "4", opt_file(GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "good: valid" in out
        assert "0 problem(s)" in out

    def test_invalid_exits_nonzero_with_counterexample(self, opt_file, capsys):
        rc = main(["verify", "--max-width", "4", opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERROR: Mismatch in values" in out

    def test_multiple_files(self, opt_file, capsys):
        rc = main([
            "verify", "--max-width", "4",
            opt_file(GOOD, "a.opt"), opt_file(BAD, "b.opt"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Verified 2 transformation(s)" in out

    def test_budget_exhausted_exits_two(self, opt_file, capsys):
        # an expired wall-clock budget leaves the verdict undecided:
        # exit 2 (retry with more budget), not 1 (genuinely refuted)
        rc = main(["verify", "--max-width", "4", "--time-limit", "0",
                   opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "unknown" in out

    def test_refuted_beats_budget_exhausted(self, opt_file, capsys):
        # a conflict budget small enough to leave the mul proof undecided
        # but a refuted rule in the same batch: refutation wins (exit 1)
        unknown = ("Name: hard\n"
                   "%a = mul %x, %y\n%b = mul %x, %z\n%r = add %a, %b\n"
                   "=>\n%s = add %y, %z\n%r = mul %x, %s\n")
        rc = main([
            "verify", "--max-width", "4", "--conflict-limit", "1",
            opt_file(BAD, "bad.opt"), opt_file(unknown, "hard.opt"),
        ])
        assert rc == 1

    def test_jobs_flag_keeps_output_shape(self, opt_file, capsys):
        rc = main(["verify", "--max-width", "4", "--jobs", "2",
                   opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERROR: Mismatch in values" in out
        assert "1 problem(s)" in out


class TestInferCommand:
    def test_reports_attributes(self, opt_file, capsys):
        rc = main(["infer", "--max-width", "4", opt_file(FLAGGED)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strongest target attributes" in out
        assert "nsw" in out


class TestCodegenCommand:
    def test_emits_cpp(self, opt_file, capsys):
        rc = main(["codegen", opt_file(GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "match(I" in out
        assert "replaceAllUsesWith" in out


class TestBugsCommand:
    def test_all_refuted(self, capsys):
        rc = main(["bugs", "--max-width", "4", "--max-types", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("PR20186", "PR21245", "PR21274"):
            assert name in out
        assert out.count("refuted") == 8
        assert "NOT refuted" not in out


class TestVerifyBatchCommand:
    def test_valid_exits_zero(self, opt_file, tmp_path, capsys):
        rc = main(["verify-batch", "--max-width", "4", "--jobs", "2",
                   "--cache", str(tmp_path / "cache"), opt_file(GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "good: valid" in out

    def test_invalid_output_matches_sequential_verify(self, opt_file,
                                                      capsys):
        rc = main(["verify", "--max-width", "4", opt_file(BAD)])
        sequential = capsys.readouterr().out
        assert rc == 1
        rc = main(["verify-batch", "--max-width", "4", "--jobs", "2",
                   "--no-cache", opt_file(BAD)])
        batch = capsys.readouterr().out
        assert rc == 1
        assert batch == sequential  # byte-identical report

    def test_warm_cache_executes_zero_jobs(self, opt_file, tmp_path,
                                           capsys):
        argv = ["verify-batch", "--max-width", "4", "--stats",
                "--cache", str(tmp_path / "cache"),
                opt_file(GOOD, "a.opt"), opt_file(BAD, "b.opt")]
        rc = main(argv)
        cold = capsys.readouterr().out
        assert rc == 1
        assert "cache hits" in cold and "jobs executed" in cold

        rc = main(argv)
        warm = capsys.readouterr().out
        assert rc == 1
        # every refinement check replayed from the persistent cache
        assert _stat(warm, "jobs executed") == 0
        assert _stat(warm, "cache hits") == _stat(cold, "jobs executed") > 0

    def test_reports_the_time_its_jobs_took(self, opt_file, capsys):
        rc = main(["verify-batch", "--max-width", "4", "--no-cache",
                   opt_file(DISTRIBUTE)])
        out = capsys.readouterr().out
        assert rc == 0
        seconds = re.search(r"distribute: valid \(.*queries, ([0-9.]+)s\)",
                            out).group(1)
        assert float(seconds) > 0

    def test_no_input_is_an_error(self, capsys):
        rc = main(["verify-batch"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_table_printed(self, opt_file, capsys):
        rc = main(["verify-batch", "--max-width", "4", "--no-cache",
                   "--stats", opt_file(GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "batch statistics" in out
        assert "p95 job latency" in out


def _stat(output: str, label: str) -> int:
    """Parse one counter out of the --stats table."""
    for line in output.splitlines():
        if line.startswith(label):
            return int(line.split()[-1])
    raise AssertionError("no %r row in:\n%s" % (label, output))


class TestErrors:
    def test_no_command_prints_help(self, capsys):
        rc = main([])
        assert rc == 2

    def test_parse_error_reported(self, opt_file, capsys):
        rc = main(["verify", opt_file("%r = add %x\n=>\n%r = %x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestDumpSmt:
    def test_scripts_emitted(self, opt_file, capsys):
        rc = main(["dump-smt", "--max-width", "4", opt_file(GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(set-logic BV)" in out
        assert out.count("(check-sat)") == 3  # defined, poison, value
        assert "; good — negated value check" in out


class TestInferPreCommand:
    def test_precondition_synthesized(self, opt_file, capsys):
        rc = main([
            "infer-pre", "--max-width", "4", "--max-types", "2",
            opt_file("Name: fix-me\n%r = mul %x, C\n=>\n%r = shl %x, log2(C)\n"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "isPowerOf2(C)" in out


class TestCyclesCommand:
    def test_cycle_reported(self, opt_file, capsys):
        cyclic = ("Name: a\n%r = mul %x, 2\n=>\n%r = shl %x, 1\n\n"
                  "Name: b\n%r = shl %x, 1\n=>\n%r = mul %x, 2\n")
        rc = main(["cycles", opt_file(cyclic)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "cycle seeded by" in out

    def test_clean_set(self, opt_file, capsys):
        rc = main(["cycles", opt_file(GOOD)])
        assert rc == 0
        assert "no rewrite cycles" in capsys.readouterr().out


class TestExitCodeDocs:
    """The 0/1/2 contract is documented in --help (and mirrored by
    'submit'; see tests/serve/test_submit_cli.py)."""

    @pytest.mark.parametrize("command", ["verify", "verify-batch", "submit"])
    def test_help_epilog_documents_exit_codes(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "0   all transformations proven valid" in out
        assert "1   at least one transformation refuted" in out
        assert "2   undecided only" in out
        assert "130 interrupted" in out


class TestStatsJson:
    def test_written_to_file(self, opt_file, tmp_path, capsys):
        target = tmp_path / "stats.json"
        rc = main(["verify", "--max-width", "4",
                   "--stats-json", str(target), opt_file(GOOD)])
        assert rc == 0
        blob = json.loads(target.read_text())
        assert blob["transformations"] == 1
        assert blob["jobs_executed"] > 0
        assert blob["errors"] == 0

    def test_includes_scheduler_snapshot(self, opt_file, tmp_path):
        target = tmp_path / "stats.json"
        main(["verify", "--max-width", "4",
              "--stats-json", str(target), opt_file(GOOD)])
        scheduler = json.loads(target.read_text())["scheduler"]
        assert scheduler["dispatches"] == 1
        assert scheduler["jobs_dispatched"] > 0
        assert scheduler["retries"] == 0
        assert scheduler["wall_time"] >= 0

    def test_dash_writes_to_stdout(self, opt_file, capsys):
        rc = main(["verify", "--max-width", "4", "--stats-json", "-",
                   opt_file(GOOD)])
        assert rc == 0
        out = capsys.readouterr().out
        start = out.index("{")
        blob = json.loads(out[start:out.rindex("}") + 1])
        assert blob["transformations"] == 1

    def test_verify_batch_supports_it_too(self, opt_file, tmp_path, capsys):
        target = tmp_path / "stats.json"
        rc = main(["verify-batch", "--max-width", "4",
                   "--cache", str(tmp_path / "cache.jsonl"),
                   "--stats-json", str(target), opt_file(GOOD)])
        assert rc == 0
        blob = json.loads(target.read_text())
        assert blob["cache_hits"] == 0 and blob["jobs_executed"] > 0


class TestCacheMaxEntries:
    def test_flag_bounds_the_cache(self, opt_file, tmp_path, capsys):
        cache_path = tmp_path / "cache.jsonl"
        rc = main(["verify-batch", "--max-width", "4",
                   "--cache", str(cache_path), "--cache-max-entries", "1",
                   opt_file(GOOD, "a.opt"), opt_file(BAD, "b.opt")])
        assert rc == 1

        from repro.engine import ResultCache

        reloaded = ResultCache(str(cache_path), max_entries=1)
        assert len(reloaded) <= 1
