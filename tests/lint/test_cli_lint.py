"""CLI tests for `lint` and its `cycles` alias."""

import json

import pytest

from repro.cli import main

BAD = """Name: vacuous
Pre: isPowerOf2(C) && C == 0
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
"""

CLEAN = """Name: fine
Pre: isPowerOf2(C)
%r = udiv %x, C
=>
%r = lshr %x, log2(C)
"""

CYCLIC = """Name: ping
%r = sub %x, C
=>
%r = add %x, -C

Name: pong
%r = add %x, C
=>
%r = sub %x, -C
"""

#: ``plain`` spins on its own; ``other``'s instance seeds a cycle in
#: which only ``plain`` fires
SEEDS_FOREIGN_CYCLE = """Name: plain
%r = add %x, %y
=>
%r = add %y, %x

Name: other
%t = and %x, 0
%r = add %t, %y
=>
%r = add %y, %t
"""

FAST = ["--max-width", "4", "--max-types", "4",
        "--cycle-samples", "2", "--cycle-spin-limit", "24"]
FAST_CYCLES = ["--max-width", "4", "--max-types", "4"]


@pytest.fixture
def opt_file(tmp_path):
    def write(content, name="input.opt"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


class TestLintCommand:
    def test_error_finding_exits_one(self, opt_file, capsys):
        rc = main(["lint", *FAST, opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "dead-precondition" in out
        assert "input.opt:2" in out  # span points at the Pre: line

    def test_clean_exits_zero(self, opt_file, capsys):
        rc = main(["lint", *FAST, opt_file(CLEAN)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_json_output(self, opt_file, capsys):
        rc = main(["lint", "--json", *FAST, opt_file(BAD)])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        ids = [f["id"] for f in data["findings"]]
        assert any(i.startswith("dead-precondition-") for i in ids)
        assert data["summary"]["error"] >= 1

    def test_sarif_file(self, opt_file, tmp_path, capsys):
        sarif_path = tmp_path / "out.sarif"
        rc = main(["lint", "--sarif", str(sarif_path), *FAST,
                   opt_file(BAD)])
        assert rc == 1
        sarif = json.loads(sarif_path.read_text())
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        assert any(r["ruleId"] == "dead-precondition"
                   and r["level"] == "error" for r in results)

    def test_sarif_stdout(self, opt_file, capsys):
        main(["lint", "--sarif", "-", *FAST, opt_file(CLEAN)])
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["tool"]["driver"]["name"] == \
            "alive-repro-lint"

    def test_allowlist_suppresses_error(self, opt_file, tmp_path, capsys):
        rc = main(["lint", "--json", *FAST, opt_file(BAD)])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        allow = tmp_path / "allow.txt"
        allow.write_text("\n".join(f["id"] for f in data["findings"]) + "\n")
        rc = main(["lint", "--allowlist", str(allow), *FAST,
                   opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suppressed by allowlist" in out

    def test_no_semantic_tier(self, opt_file, capsys):
        rc = main(["lint", "--no-semantic", opt_file(BAD)])
        out = capsys.readouterr().out
        assert rc == 0  # the dead precondition needs the SMT tier
        assert "dead-precondition" not in out

    def test_only_unknown_pass_rejected(self, opt_file, capsys):
        rc = main(["lint", "--only", "nonsense", opt_file(CLEAN)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown lint pass" in err

    def test_only_selects_pass(self, opt_file, capsys):
        rc = main(["lint", "--only", "rewrite-cycle", "--json",
                   *FAST, opt_file(CYCLIC)])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert all(f["pass"] == "rewrite-cycle" for f in data["findings"])
        assert data["findings"]

    def test_cycle_charged_to_spinning_rules_only(self, opt_file, capsys):
        rc = main(["lint", "--only", "rewrite-cycle", "--no-cache",
                   "--json", opt_file(SEEDS_FOREIGN_CYCLE)])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert [(f["rule"], f["severity"], f["data"]["rules"])
                for f in data["findings"]] == [("plain", "error", ["plain"])]

    def test_missing_file_is_clean_error(self, capsys):
        rc = main(["lint", "/nonexistent/rules.opt"])
        assert rc == 1

    def test_stats_do_not_corrupt_json_stdout(self, opt_file, capsys):
        main(["lint", "--json", "--stats", *FAST, opt_file(BAD)])
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout must stay pure JSON
        assert "jobs executed" in captured.err


class TestCyclesAlias:
    def test_cycle_detected_text(self, opt_file, capsys):
        rc = main(["cycles", *FAST_CYCLES, opt_file(CYCLIC)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "cycle seeded by" in out

    def test_clean_set(self, opt_file, capsys):
        rc = main(["cycles", *FAST_CYCLES, opt_file(CLEAN)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no rewrite cycles detected" in out

    def test_json_matches_lint_schema(self, opt_file, capsys):
        path = opt_file(CYCLIC)
        rc = main(["cycles", "--json", *FAST_CYCLES, path])
        alias = json.loads(capsys.readouterr().out)
        assert rc == 1
        main(["lint", "--only", "rewrite-cycle", "--json",
              *FAST_CYCLES, path])
        direct = json.loads(capsys.readouterr().out)
        assert alias["findings"] == direct["findings"]
