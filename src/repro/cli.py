"""Command-line interface, mirroring the original ``alive.py`` driver.

Subcommands::

    alive-repro verify file.opt        # verify transformations
    alive-repro verify-batch file.opt  # parallel cached batch verification
    alive-repro infer file.opt         # nsw/nuw/exact attribute inference
    alive-repro infer-pre file.opt     # weakest-precondition synthesis
    alive-repro codegen file.opt       # emit InstCombine-style C++
    alive-repro corpus                 # verify the bundled corpus (Table 3)
    alive-repro bugs                   # refute the Figure 8 bugs
    alive-repro lint file.opt          # static analysis of a rule set
    alive-repro cycles file.opt        # detect rewrite cycles
    alive-repro dump-smt file.opt      # export queries as SMT-LIB 2
    alive-repro fuzz --seed 0          # differential fuzzing campaign
    alive-repro discover --seed 0      # discover + verify new rules
    alive-repro serve --port 7341      # verification-as-a-service server
    alive-repro submit f.opt --addr :7341  # verify against a warm server

Common options: ``--max-width`` bounds type enumeration (the paper used
64; the pure-Python solver defaults lower), ``--ptr-width`` sets the
ABI pointer width for memory transformations, ``--jobs`` fans the
refinement checks out over worker processes, ``--cache`` replays
verdicts from a persistent result cache.

Verification exit codes (``verify``, ``verify-batch``, ``submit``):
0 all proven, 1 at least one transformation refuted (or
unsupported/untypeable), 2 undecided only — some solver budget
(conflicts or wall clock) was exhausted but nothing was refuted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import chaos
from .core import Config, verify
from .core.attrs import infer_attributes
from .codegen import CodegenError, generate_cpp
from .ir import AliveError, parse_transformations
from .serve.protocol import (EXIT_BUDGET, EXIT_INTERRUPTED, EXIT_OK,
                             EXIT_REFUTED, MAX_LINE_BYTES,
                             exit_code_for_statuses)

#: shared --help epilog; `submit` mirrors these codes exactly
EXIT_CODES_EPILOG = """\
exit codes:
  0   all transformations proven valid
  1   at least one transformation refuted (or unsupported/untypeable)
  2   undecided only: a solver budget (--time-limit / --conflict-limit)
      was exhausted but nothing was refuted — retry with a bigger budget
  130 interrupted (Ctrl-C); completed jobs are already checkpointed in
      the result cache, so re-running resumes where the run died
"""


def _positive_int(text: str) -> int:
    """argparse type for flags that must be >= 1.

    A bad value dies in the parser with a readable usage error instead
    of deep inside the scheduler or batcher.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be >= 1, got %d" % value)
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for flags that must be >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0, got %d" % value)
    return value


def _config_from_args(args) -> Config:
    return Config(
        max_width=args.max_width,
        ptr_width=args.ptr_width,
        max_type_assignments=args.max_types,
        conflict_limit=args.conflict_limit,
        time_limit=args.time_limit,
    )


def _load(paths: List[str]):
    transformations = []
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        try:
            transformations.extend(parse_transformations(text, path=path))
        except AliveError as e:
            # qualify parse errors with the file so multi-file loads
            # point at the right input
            raise AliveError("%s: %s" % (path, e))
    return transformations


def _make_cache(args, default_on: bool = False):
    """Build the persistent result cache requested by the flags.

    ``--cache PATH`` selects an explicit location; ``--no-cache``
    disables caching; otherwise *default_on* decides (verify-batch
    caches by default, the older subcommands opt in).
    """
    if getattr(args, "no_cache", False):
        return None
    path = getattr(args, "cache", None)
    if path is None and not default_on:
        return None
    from .engine import ResultCache

    return ResultCache(path,
                       max_entries=getattr(args, "cache_max_entries", None))


def _use_engine(args) -> bool:
    """Route through the batch engine when any engine flag is in play."""
    return (
        getattr(args, "jobs", 1) != 1
        or getattr(args, "cache", None) is not None
        or getattr(args, "stats", False)
        or getattr(args, "stats_json", None) is not None
    )


def _write_stats_json(args, stats) -> None:
    """Dump the EngineStats (incl. SchedulerStats) snapshot as JSON."""
    path = getattr(args, "stats_json", None)
    if not path or stats is None:
        return
    blob = json.dumps(stats.to_dict(), indent=2, sort_keys=True)
    if path == "-":
        print(blob)
    else:
        with open(path, "w") as handle:
            handle.write(blob + "\n")


def _batch_results(transformations, config, args, default_cache=False):
    """Run *transformations* through the engine; returns (results, stats)."""
    from .engine import EngineStats, run_batch

    stats = EngineStats()
    results = run_batch(
        transformations,
        config,
        jobs=args.jobs,
        cache=_make_cache(args, default_on=default_cache),
        stats=stats,
    )
    return results, stats


def _print_results(results) -> int:
    """The classic per-transformation report; returns the problem count."""
    failures = 0
    for result in results:
        print("----------------------------------------")
        print("Name:", result.name)
        print(result.summary())
        if result.counterexample is not None:
            print()
            print(result.counterexample.format())
            failures += 1
        elif not result.ok:
            failures += 1
    print("----------------------------------------")
    print(
        "Verified %d transformation(s); %d problem(s) found"
        % (len(results), failures)
    )
    return failures


def _exit_code(results) -> int:
    """0 all valid; 1 refuted/unsupported/untypeable; 2 budget-exhausted.

    The mapping itself lives in :mod:`repro.serve.protocol` so the
    service and ``submit`` mirror it exactly; "unknown" alone must not
    masquerade as a refutation — a CI gate can retry with a bigger
    budget on 2 but fail hard on 1.
    """
    return exit_code_for_statuses(r.status for r in results)


def _dump_smt2_scripts(transformations, config, directory) -> int:
    """Write one ``.smt2`` file per refinement query; returns the count.

    File names are ``<seq>-<rule-slug>.<query>.smt2`` — the sequence
    number keeps same-named rules from clobbering each other.  A rule
    whose first type assignment cannot be exported (untypeable, or a
    construct the exporter does not encode) is skipped with a warning
    rather than failing the verification run it rides along with.
    """
    import os
    import re

    from .smt.smtlib import refinement_scripts

    os.makedirs(directory, exist_ok=True)
    written = 0
    for seq, t in enumerate(transformations):
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", t.name).strip("_")[:80]
        try:
            scripts = refinement_scripts(t, config)
        except Exception as e:
            print("warning: --dump-smt2: skipping %s (%s)" % (t.name, e),
                  file=sys.stderr)
            continue
        for i, script in enumerate(scripts):
            name = "%04d-%s.%02d.smt2" % (seq, slug or "rule", i)
            with open(os.path.join(directory, name), "w") as handle:
                handle.write(script)
            written += 1
    return written


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    transformations = _load(args.files)
    if getattr(args, "dump_smt2", None):
        count = _dump_smt2_scripts(transformations, config, args.dump_smt2)
        print("wrote %d SMT-LIB 2 script(s) to %s"
              % (count, args.dump_smt2))
    if _use_engine(args):
        results, stats = _batch_results(transformations, config, args)
    else:
        results, stats = [verify(t, config) for t in transformations], None
    _print_results(results)
    if stats is not None and args.stats:
        print()
        print(stats.format_table())
    _write_stats_json(args, stats)
    return _exit_code(results)


def cmd_verify_batch(args) -> int:
    from .suite import load_all_flat

    config = _config_from_args(args)
    transformations = _load(args.files) if args.files else []
    if args.corpus:
        transformations.extend(load_all_flat())
    if not transformations:
        print("error: verify-batch needs input files or --corpus",
              file=sys.stderr)
        return 2
    results, stats = _batch_results(
        transformations, config, args, default_cache=True
    )
    _print_results(results)
    if args.stats:
        print()
        print(stats.format_table())
    _write_stats_json(args, stats)
    return _exit_code(results)


def cmd_infer(args) -> int:
    config = _config_from_args(args)
    for t in _load(args.files):
        result = infer_attributes(t, config)
        print(result.describe())
    return 0


def cmd_codegen(args) -> int:
    for t in _load(args.files):
        try:
            print(generate_cpp(t))
            print()
        except CodegenError as e:
            print("// %s: skipped (%s)" % (t.name, e))
    return 0


def cmd_corpus(args) -> int:
    from .suite import CATEGORIES, PAPER_TABLE3, load_category

    config = _config_from_args(args)
    engine_stats = None
    if _use_engine(args):
        from .engine import EngineStats, run_batch

        engine_stats = EngineStats()
        cache = _make_cache(args)

        def results_for(transformations):
            return run_batch(transformations, config, jobs=args.jobs,
                             cache=cache, stats=engine_stats)
    else:
        def results_for(transformations):
            return [verify(t, config) for t in transformations]

    print("%-18s %12s %8s" % ("File", "# translated", "# bugs"))
    total = bugs_total = 0
    for cat in CATEGORIES:
        transformations = load_category(cat)
        bugs = sum(1 for r in results_for(transformations) if not r.ok)
        print("%-18s %12d %8d" % (cat, len(transformations), bugs))
        total += len(transformations)
        bugs_total += bugs
    print("%-18s %12d %8d" % ("Total", total, bugs_total))
    if engine_stats is not None and args.stats:
        print()
        print(engine_stats.format_table())
    _write_stats_json(args, engine_stats)
    return 0


def cmd_infer_pre(args) -> int:
    from .core.preinfer import infer_precondition

    config = _config_from_args(args)
    for t in _load(args.files):
        result = infer_precondition(t, config)
        print(result.describe())
    return 0


def _lint_options(args, only=None):
    from .lint import LintOptions, load_allowlist

    allowlist = frozenset()
    if getattr(args, "allowlist", None):
        allowlist = load_allowlist(args.allowlist)
    return LintOptions(
        config=_config_from_args(args),
        jobs=args.jobs,
        cache=_make_cache(args, default_on=False),
        semantic=not getattr(args, "no_semantic", False),
        only=only,
        allowlist=allowlist,
        cycle_width=getattr(args, "cycle_width", 8),
        cycle_samples=getattr(args, "cycle_samples", 3),
        cycle_spin_limit=getattr(args, "cycle_spin_limit", 64),
        cycle_seed=getattr(args, "cycle_seed", 0),
    )


def cmd_lint(args) -> int:
    from .engine import EngineStats
    from .lint import dump_json, lint_files

    only = None
    if args.only:
        from .lint import PASSES

        unknown = sorted(set(args.only) - set(PASSES))
        if unknown:
            raise AliveError(
                "unknown lint pass(es): %s (available: %s)"
                % (", ".join(unknown), ", ".join(sorted(PASSES))))
        only = frozenset(args.only)
    stats = EngineStats()
    report = lint_files(args.files, _lint_options(args, only=only), stats)
    if args.sarif is not None:
        blob = json.dumps(report.to_sarif(), indent=2, sort_keys=True)
        if args.sarif == "-":
            print(blob)
        else:
            with open(args.sarif, "w") as handle:
                handle.write(blob + "\n")
    if args.json:
        print(dump_json(report))
    elif args.sarif != "-":
        print(report.format_text())
    if args.stats:
        # keep stdout parseable when it carries JSON or SARIF
        out = (sys.stderr if args.json or args.sarif == "-"
               else sys.stdout)
        print(file=out)
        print(stats.format_table(), file=out)
    _write_stats_json(args, stats)
    return report.exit_code()


def cmd_cycles(args) -> int:
    """Thin alias for ``lint --only rewrite-cycle`` (kept for scripts)."""
    from .engine import EngineStats
    from .lint import dump_json, lint_files

    stats = EngineStats()
    report = lint_files(args.files,
                        _lint_options(args, only=frozenset({"rewrite-cycle"})),
                        stats)
    if args.json:
        print(dump_json(report))
        return 1 if report.findings else 0
    for finding in report.findings:
        print(finding.message)
    if not report.findings:
        print("no rewrite cycles detected")
    return 1 if report.findings else 0


def cmd_dump_smt(args) -> int:
    from .smt.smtlib import refinement_scripts

    config = _config_from_args(args)
    for t in _load(args.files):
        for script in refinement_scripts(t, config):
            print(script)
    return 0


def cmd_bugs(args) -> int:
    from .suite import load_bugs

    config = _config_from_args(args)
    ok = True
    for t in load_bugs():
        result = verify(t, config)
        refuted = result.status == "invalid"
        ok &= refuted
        print("%-10s %s" % (t.name, "refuted" if refuted else
                            "NOT refuted (%s)" % result.status))
        if result.counterexample is not None and args.verbose:
            print(result.counterexample.format())
            print()
    return 0 if ok else 1


def cmd_serve(args) -> int:
    import asyncio

    from .serve import ServeOptions, VerifyServer, serve_until_signalled

    config = _config_from_args(args)
    cache = _make_cache(args, default_on=True)
    options = ServeOptions(
        host=args.host, port=args.port, jobs=args.jobs,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth, rate=args.rate, burst=args.burst,
        read_timeout=args.read_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        max_frame_bytes=(args.max_frame_bytes
                         if args.max_frame_bytes is not None
                         else MAX_LINE_BYTES),
        node_id=args.node_id,
        join=args.join,
        heartbeat_interval=args.heartbeat_interval,
    )
    server = VerifyServer(config, cache=cache, options=options)

    def announce(started):
        print("serving on %s:%d (NDJSON + GET /healthz, GET /metrics, "
              "POST /v1/verify)" % (options.host, started.port), flush=True)
        if options.join:
            print("joined cluster registry %s as %s (generation %d)"
                  % (options.join, started.node_id, started.generation),
                  flush=True)

    asyncio.run(serve_until_signalled(server, announce))
    print("drained cleanly", flush=True)
    return EXIT_OK


def _print_wire_results(results) -> int:
    """`submit`'s report, byte-compatible with :func:`_print_results`."""
    failures = 0
    for result in results:
        print("----------------------------------------")
        print("Name:", result["name"])
        print(result["summary"])
        if result["counterexample"]:
            print()
            print(result["counterexample"])
            failures += 1
        elif result["status"] != "valid":
            failures += 1
    print("----------------------------------------")
    print(
        "Verified %d transformation(s); %d problem(s) found"
        % (len(results), failures)
    )
    return failures


def cmd_submit(args) -> int:
    from .serve.client import ClientError, Overloaded, VerifyClient

    texts = []
    for path in args.files:
        with open(path) as handle:
            texts.append(handle.read())
    knobs = _config_from_args(args).to_dict()
    try:
        with VerifyClient(args.addr, timeout=args.timeout,
                          max_retries=args.max_retries) as client:
            response = client.submit_batch(texts, knobs=knobs)
    except Overloaded as e:
        # still undecided, like an exhausted budget: retryable (exit 2)
        print("error: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except (ClientError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    if response.get("error"):
        print("error: %s: %s" % (response["error"],
                                 response.get("detail", "")),
              file=sys.stderr)
        return EXIT_REFUTED
    _print_wire_results(response["results"])
    if args.stats and response.get("stats"):
        print()
        print("request statistics")
        for label, value in sorted(response["stats"].items()):
            print("%-18s %10d" % (label, value))
    return VerifyClient.exit_code(response)


def _cluster_nodes(args) -> dict:
    """Resolve node id → addr from ``--nodes`` and/or ``--registry``."""
    nodes = {}
    if getattr(args, "nodes", None):
        for i, part in enumerate(args.nodes.split(",")):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                node_id, _, addr = part.partition("=")
                nodes[node_id.strip()] = addr.strip()
            else:
                nodes["n%d" % i] = part
    if getattr(args, "registry", None):
        from .cluster import FileRegistry

        data = FileRegistry(args.registry).load()
        for node_id, record in data["nodes"].items():
            nodes.setdefault(node_id, record["addr"])
    return nodes


def cmd_cluster_verify_batch(args) -> int:
    import tempfile

    from .cluster import (ClusterCoordinator, ClusterOptions,
                          NodeStartupError, NodeSupervisor)
    from .suite import load_all_flat

    config = _config_from_args(args)
    transformations = _load(args.files) if args.files else []
    if args.corpus:
        transformations.extend(load_all_flat())
    if not transformations:
        print("error: cluster verify-batch needs input files or --corpus",
              file=sys.stderr)
        return 2

    supervisor = None
    try:
        if args.spawn:
            base = args.registry or tempfile.mkdtemp(prefix="repro-cluster-")
            registry_path = base if base.endswith(".json") \
                else "%s/registry.json" % base
            supervisor = NodeSupervisor(
                registry_path, count=args.spawn,
                serve_args=["--jobs", "1",
                            "--cache", registry_path + ".{node}-cache"])
            supervisor.spawn()
            try:
                nodes = supervisor.wait_ready()
            except NodeStartupError as e:
                print("error: %s" % e, file=sys.stderr)
                return 2
        else:
            nodes = _cluster_nodes(args)
        if not nodes:
            print("warning: no cluster nodes; everything will verify "
                  "locally", file=sys.stderr)

        options = ClusterOptions(
            replicas=args.replicas, chunk_size=args.chunk_size,
            hedge_delay=args.hedge_delay, deadline=args.deadline,
            max_waves=args.max_waves,
            request_timeout=args.request_timeout,
            jobs=args.jobs)
        coordinator = ClusterCoordinator(
            nodes, config=config, cache=_make_cache(args),
            options=options, supervisor=supervisor)
        report = coordinator.verify_batch(transformations)
        _print_results(report.results)
        if args.stats:
            print()
            print("cluster statistics")
            for label, value in sorted(report.stats.to_dict().items()):
                print("%-26s %12g" % (label, value))
            print("%-26s %12s" % ("provenance", json.dumps(
                report.provenance_summary(), sort_keys=True)))
        if args.stats_json:
            blob = dict(report.stats.to_dict())
            blob["provenance"] = report.provenance_summary()
            blob["registry"] = report.registry_view
            text = json.dumps(blob, indent=2, sort_keys=True)
            if args.stats_json == "-":
                print(text)
            else:
                with open(args.stats_json, "w") as handle:
                    handle.write(text + "\n")
        return _exit_code(report.results)
    finally:
        if supervisor is not None:
            supervisor.stop_all()


def cmd_cluster_status(args) -> int:
    from .cluster import ClusterCoordinator

    nodes = _cluster_nodes(args)
    if not nodes:
        print("error: cluster status needs --nodes or --registry",
              file=sys.stderr)
        return 2
    coordinator = ClusterCoordinator(nodes, cache=None)
    health = coordinator.probe_nodes()
    print("%-12s %-22s %-8s %-9s %10s" % ("node", "addr", "state",
                                          "breaker", "generation"))
    for node in coordinator.registry.to_dict()["nodes"]:
        print("%-12s %-22s %-8s %-9s %10d"
              % (node["node_id"], node["addr"], node["state"],
                 node["breaker"], node["generation"]))
    return 0 if health and all(health.values()) else 1


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, run_campaign

    cfg = FuzzConfig(
        mode=args.mode,
        seed=args.seed,
        iters=args.iters,
        time_budget=args.time_budget,
        jobs=args.jobs,
        samples=args.rule_samples,
        artifact_dir=args.artifacts,
        fp=args.fp,
    )
    report = run_campaign(cfg)
    print(report.summary())
    if report.artifacts and args.artifacts:
        print("artifacts written to %s" % args.artifacts)
    return EXIT_OK if report.ok else EXIT_REFUTED


def cmd_discover(args) -> int:
    from .discover import DiscoverOptions, run_discovery

    config = _config_from_args(args)
    cache = _make_cache(args)
    options = DiscoverOptions(
        seed=args.seed,
        max_insts=args.max_insts,
        ops=args.ops.split(",") if args.ops else None,
        max_candidates=args.max_candidates,
        max_salvage=args.max_salvage,
        min_saving=args.min_saving,
        time_budget=args.time_budget,
        jobs=args.jobs,
        serve=args.addr,
        enum=not args.no_enum,
        mine=not args.no_mine,
        workload_functions=args.workload_functions,
        workload_instructions=args.workload_instructions,
        pattern_rate=args.pattern_rate,
    )
    log = print if args.verbose else None
    report = run_discovery(options, config, cache=cache, log=log)
    with open(args.out, "w") as handle:
        handle.write(report.opt_text)
    print(report.summary())
    print("wrote %d rule(s) to %s" % (len(report.rules), args.out))
    if args.stats:
        print()
        print(report.stats.format_table())
    _write_stats_json(args, report.stats)
    return EXIT_OK if report.rules else EXIT_REFUTED


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-width", type=int, default=8,
                        help="max integer width for type enumeration")
    common.add_argument("--ptr-width", type=int, default=16,
                        help="pointer width in bits for memory encodings")
    common.add_argument("--max-types", type=int, default=16,
                        help="max type assignments checked per transformation")
    common.add_argument("--conflict-limit", type=int, default=200_000,
                        help="CDCL conflict budget per SMT query")
    common.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget in seconds per refinement job")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for batch verification "
                             "(1 = in-process)")
    common.add_argument("--cache", metavar="PATH", default=None,
                        help="persistent result cache file or directory "
                             "(default for verify-batch: ~/.cache/alive-repro)")
    common.add_argument("--no-cache", action="store_true",
                        help="disable the persistent result cache")
    common.add_argument("--cache-max-entries", type=_positive_int,
                        default=None, metavar="N",
                        help="bound the persistent cache; oldest entries "
                             "are evicted first")
    common.add_argument("--chaos", metavar="PLAN.json", default=None,
                        help="install a deterministic fault-injection "
                             "plan (see repro.chaos; also via the "
                             "ALIVE_REPRO_CHAOS env var)")
    common.add_argument("--stats", action="store_true",
                        help="print batch statistics (jobs, cache hits, "
                             "latency percentiles) after verification")
    common.add_argument("--stats-json", metavar="PATH", default=None,
                        help="write the engine + scheduler statistics "
                             "snapshot as JSON ('-' for stdout)")
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="alive-repro",
        description="Verify LLVM peephole optimizations (Alive, PLDI'15).",
    )
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="verify transformations",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_verify.add_argument("files", nargs="+")
    p_verify.add_argument("--dump-smt2", metavar="DIR", default=None,
                          help="also write one SMT-LIB 2 script per "
                               "refinement query into DIR (first feasible "
                               "type assignment per rule)")
    p_verify.set_defaults(func=cmd_verify)

    p_batch = sub.add_parser(
        "verify-batch", parents=[common],
        help="verify a corpus in parallel with a persistent result cache",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_batch.add_argument("files", nargs="*")
    p_batch.add_argument("--corpus", action="store_true",
                         help="include the bundled corpus in the batch")
    p_batch.set_defaults(func=cmd_verify_batch)

    p_serve = sub.add_parser(
        "serve", parents=[common],
        help="run the verification service (NDJSON over TCP + HTTP shim)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7341,
                         help="TCP port (0 picks a free one)")
    p_serve.add_argument("--max-batch", type=_positive_int, default=16,
                         help="flush a micro-batch at this many jobs")
    p_serve.add_argument("--max-wait-ms", type=float, default=20.0,
                         help="flush a micro-batch after this many "
                              "milliseconds, even if not full")
    p_serve.add_argument("--queue-depth", type=_positive_int, default=256,
                         help="max buffered jobs before requests are "
                              "fast-rejected with 'overloaded'")
    p_serve.add_argument("--read-timeout", type=float, default=30.0,
                         help="per-connection read deadline in seconds; "
                              "stalled (slowloris) connections are "
                              "reaped (0 disables)")
    p_serve.add_argument("--max-frame-bytes", type=_positive_int,
                         default=None, metavar="N",
                         help="largest request frame the server buffers "
                              "(default 4 MiB)")
    p_serve.add_argument("--breaker-threshold", type=_positive_int,
                         default=5,
                         help="consecutive engine-dispatch failures "
                              "that open the circuit breaker")
    p_serve.add_argument("--breaker-reset", type=float, default=10.0,
                         help="seconds the breaker stays open before "
                              "admitting a probe request")
    p_serve.add_argument("--rate", type=float, default=0.0,
                         help="per-connection request rate limit "
                              "(requests/second; 0 disables)")
    p_serve.add_argument("--burst", type=float, default=None,
                         help="token-bucket burst size (default: rate)")
    p_serve.add_argument("--join", metavar="REGISTRY.json", default=None,
                         help="join a cluster: register this node's "
                              "address in the shared membership file "
                              "and heartbeat into it")
    p_serve.add_argument("--node-id", default=None,
                         help="cluster node identity (default: "
                              "node-<port>); labels every metric")
    p_serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                         help="seconds between membership heartbeats")
    p_serve.set_defaults(func=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster",
        help="fault-tolerant sharded verification across N serve nodes")
    csub = p_cluster.add_subparsers(dest="cluster_command")

    p_cvb = csub.add_parser(
        "verify-batch", parents=[common],
        help="verify a corpus sharded across cluster nodes, with "
             "failover, hedging and replicated caching",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_cvb.add_argument("files", nargs="*")
    p_cvb.add_argument("--corpus", action="store_true",
                       help="include the bundled corpus in the batch")
    p_cvb.add_argument("--nodes", default=None,
                       help="comma-separated node addresses "
                            "(host:port or id=host:port)")
    p_cvb.add_argument("--registry", metavar="REGISTRY.json", default=None,
                       help="shared membership file written by "
                            "'serve --join' nodes")
    p_cvb.add_argument("--spawn", type=_positive_int, default=None,
                       metavar="N",
                       help="spawn N local serve nodes for this run "
                            "(torn down afterwards)")
    p_cvb.add_argument("--replicas", type=_non_negative_int, default=1,
                       help="cache replicas per key beyond the "
                            "answering node")
    p_cvb.add_argument("--chunk-size", type=_positive_int, default=8,
                       help="jobs per forwarded request")
    p_cvb.add_argument("--hedge-delay", type=float, default=0.25,
                       help="seconds before a slow chunk is "
                            "speculatively re-sent to the next replica")
    p_cvb.add_argument("--deadline", type=float, default=300.0,
                       help="total remote-resolution budget in seconds; "
                            "leftovers verify locally")
    p_cvb.add_argument("--max-waves", type=_positive_int, default=4,
                       help="failover re-dispatch rounds before the "
                            "local fallback")
    p_cvb.add_argument("--request-timeout", type=float, default=60.0,
                       help="socket timeout per forwarded request")
    p_cvb.set_defaults(func=cmd_cluster_verify_batch)

    p_cstat = csub.add_parser(
        "status", parents=[common],
        help="probe every cluster node's /healthz and print the "
             "membership view")
    p_cstat.add_argument("--nodes", default=None,
                         help="comma-separated node addresses")
    p_cstat.add_argument("--registry", metavar="REGISTRY.json",
                         default=None,
                         help="shared membership file to read")
    p_cstat.set_defaults(func=cmd_cluster_status)

    p_submit = sub.add_parser(
        "submit", parents=[common],
        help="verify files against a running server (exit codes mirror "
             "'verify' exactly)",
        epilog=EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_submit.add_argument("files", nargs="+")
    p_submit.add_argument("--addr", default="127.0.0.1:7341",
                          help="server address as host:port")
    p_submit.add_argument("--timeout", type=float, default=120.0,
                          help="socket timeout in seconds")
    p_submit.add_argument("--max-retries", type=int, default=6,
                          help="retries (with jittered backoff) on "
                               "'overloaded' fast-rejects")
    p_submit.set_defaults(func=cmd_submit)

    p_infer = sub.add_parser("infer", parents=[common],
                             help="infer nsw/nuw/exact attributes")
    p_infer.add_argument("files", nargs="+")
    p_infer.set_defaults(func=cmd_infer)

    p_codegen = sub.add_parser("codegen", parents=[common],
                               help="emit InstCombine-style C++")
    p_codegen.add_argument("files", nargs="+")
    p_codegen.set_defaults(func=cmd_codegen)

    p_corpus = sub.add_parser("corpus", parents=[common],
                              help="verify the bundled corpus")
    p_corpus.set_defaults(func=cmd_corpus)

    p_bugs = sub.add_parser("bugs", parents=[common],
                            help="refute the Figure 8 bugs")
    p_bugs.set_defaults(func=cmd_bugs)

    p_infer_pre = sub.add_parser(
        "infer-pre", parents=[common],
        help="synthesize the weakest precondition (Alive-Infer-style)")
    p_infer_pre.add_argument("files", nargs="+")
    p_infer_pre.set_defaults(func=cmd_infer_pre)

    p_lint = sub.add_parser(
        "lint", parents=[common],
        help="static analysis of a rule set: dead preconditions, "
             "subsumed rules, redundant attributes, rewrite cycles",
        epilog="exit codes:\n"
               "  0   no error-severity findings\n"
               "  1   at least one error-severity finding (after the\n"
               "      allowlist); warnings and infos never fail a run\n",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_lint.add_argument("files", nargs="+")
    p_lint.add_argument("--json", action="store_true",
                        help="emit findings as JSON instead of text")
    p_lint.add_argument("--sarif", metavar="PATH", default=None,
                        help="write a SARIF 2.1.0 log ('-' for stdout)")
    p_lint.add_argument("--allowlist", metavar="PATH", default=None,
                        help="file of finding IDs to suppress "
                             "(one per line, # comments)")
    p_lint.add_argument("--no-semantic", action="store_true",
                        help="run only the cheap AST-tier passes "
                             "(no SMT, no engine jobs)")
    p_lint.add_argument("--only", metavar="PASS", action="append",
                        default=None,
                        help="run only this pass (repeatable); see the "
                             "README for the pass list")
    p_lint.add_argument("--cycle-width", type=_positive_int, default=8,
                        help="bit width for rewrite-cycle seeding")
    p_lint.add_argument("--cycle-samples", type=_positive_int, default=3,
                        help="constant samples per rule for cycle search")
    p_lint.add_argument("--cycle-spin-limit", type=_positive_int,
                        default=64,
                        help="rewrite steps before declaring divergence")
    p_lint.add_argument("--cycle-seed", type=_non_negative_int, default=0,
                        help="PRNG seed for cycle-search sampling")
    p_lint.set_defaults(func=cmd_lint)

    p_cycles = sub.add_parser(
        "cycles", parents=[common],
        help="detect non-terminating rewrite cycles in a rule set "
             "(alias for 'lint --only rewrite-cycle')")
    p_cycles.add_argument("files", nargs="+")
    p_cycles.add_argument("--json", action="store_true",
                         help="emit findings as JSON (same schema as "
                              "'lint --json')")
    p_cycles.set_defaults(func=cmd_cycles)

    p_dump = sub.add_parser(
        "dump-smt", parents=[common],
        help="export the refinement queries as SMT-LIB 2 scripts")
    p_dump.add_argument("files", nargs="+")
    p_dump.set_defaults(func=cmd_dump_smt)

    p_disc = sub.add_parser(
        "discover", parents=[common],
        help="discover new peephole rules: harvest candidates, verify "
             "them through the batch engine, rank by estimated payoff, "
             "emit a provenance-annotated .opt file")
    p_disc.add_argument("--seed", type=int, default=0,
                        help="discovery seed (same seed = byte-identical "
                             "output)")
    p_disc.add_argument("--max-insts", type=_positive_int, default=3,
                        help="max instructions per candidate source")
    p_disc.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock budget in seconds (checked only "
                             "between deterministic stages; a run that "
                             "finishes inside it is byte-reproducible)")
    p_disc.add_argument("-o", "--out", default="discovered.opt",
                        help="emitted rule file (default discovered.opt)")
    p_disc.add_argument("--ops", default=None,
                        help="comma-separated binop subset to enumerate "
                             "(default: all integer binops)")
    p_disc.add_argument("--max-candidates", type=_positive_int,
                        default=128,
                        help="candidates sent to the verifier")
    p_disc.add_argument("--max-salvage", type=_non_negative_int,
                        default=4,
                        help="refuted-on-a-subspace candidates offered "
                             "to precondition inference")
    p_disc.add_argument("--min-saving", type=float, default=0.5,
                        help="minimum cost-model saving for a candidate")
    p_disc.add_argument("--addr", metavar="HOST:PORT", default=None,
                        help="verify against a running `repro serve` "
                             "instead of in-process (salvage still "
                             "runs locally)")
    p_disc.add_argument("--no-enum", action="store_true",
                        help="skip bottom-up enumeration (mined "
                             "templates only)")
    p_disc.add_argument("--no-mine", action="store_true",
                        help="skip workload mining (enumeration only)")
    p_disc.add_argument("--workload-functions", type=_positive_int,
                        default=60,
                        help="functions in the synthetic workload used "
                             "for mining and fire-rate ranking")
    p_disc.add_argument("--workload-instructions", type=_positive_int,
                        default=30,
                        help="average instructions per workload function")
    p_disc.add_argument("--pattern-rate", type=float, default=0.45,
                        help="peephole-pattern injection rate of the "
                             "workload generator")
    p_disc.set_defaults(func=cmd_discover)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: cross-check solver, verifier and "
             "concrete oracles on random terms and rules")
    p_fuzz.add_argument("--mode", choices=("term", "rule", "all"),
                        default="all",
                        help="fuzz SMT terms, Alive rules, or both")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign seed (same seed = same campaign)")
    p_fuzz.add_argument("--iters", type=int, default=100,
                        help="iterations per campaign")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        help="wall-clock budget in seconds (stops early; "
                             "truncation point depends on machine speed)")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results are independent "
                             "of the job count)")
    p_fuzz.add_argument("--rule-samples", type=int, default=12,
                        help="concrete refinement samples per verified rule")
    p_fuzz.add_argument("--artifacts", metavar="DIR", default=None,
                        help="write shrunk disagreement artifacts here")
    p_fuzz.add_argument("--fp", action="store_true",
                        help="also fuzz the floating-point pool: "
                             "cross-check the symbolic soft-float "
                             "encoder against the IEEE-754 interpreter")
    p_fuzz.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    if getattr(args, "chaos", None):
        chaos.install(chaos.FaultPlan.load(args.chaos))
    else:
        chaos.install_from_env()
    try:
        return args.func(args)
    except AliveError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # No traceback on Ctrl-C: completed jobs are already
        # checkpointed in the result cache, so a re-run resumes.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
