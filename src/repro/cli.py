"""Command-line interface: the reproduction of the BI-DECOMP program.

The original BI-DECOMP reads an MCNC PLA file, bi-decomposes it, and
writes the resulting two-input-gate netlist to BLIF (its reported CPU
time is exactly this pipeline).  This CLI reproduces that program and
adds the surrounding tooling:

    python -m repro.cli decompose input.pla -o out.blif [--no-exor] ...
    python -m repro.cli decompose *.pla --jobs 4 --output-dir out \
        --cache-dir cache                              # parallel sweep
    python -m repro.cli stats input.pla                # netlist costs
    python -m repro.cli verify input.pla out.blif      # BDD verifier
    python -m repro.cli lint out.blif [--spec input.pla]  # netlist lint
    python -m repro.cli certify input.pla out.blif out.cert.json
    python -m repro.cli testability input.pla          # Theorem 5
    python -m repro.cli map input.pla                  # cell mapping
    python -m repro.cli baseline input.pla --flow sis|bds

Every command accepts ``-`` for stdin.  Synthesis commands run through
:class:`repro.pipeline.Session`, which is what provides the resource
flags (``--time-limit``, ``--max-nodes``) and the per-stage
``--stats-json`` report.
"""

import argparse
import os
import sys

from repro.io import load_pla, parse_blif, read_text
from repro.io.jsonfile import dumps_json
from repro.decomp import DecompositionConfig
from repro.network.mapper import map_netlist, verify_mapping
from repro.pipeline import (EventBus, Pipeline, PipelineConfig,
                            PipelineError, PipelineInput, Session,
                            input_stem)
from repro.testability import analyze_testability, care_sets


def _config_from_args(args):
    return DecompositionConfig(
        use_or=not args.no_or,
        use_and=not args.no_and,
        use_exor=not args.no_exor,
        use_weak=not args.no_weak,
        use_cache=not args.no_cache,
        exhaustive_grouping=args.exhaustive_grouping,
        weak_xa_size=args.weak_xa_size,
    )


#: File name of the cross-benchmark sweep store inside ``--cache-dir``.
SWEEP_STORE_NAME = "sweep.cache.json"


def _cache_path_from_args(args):
    """``--cache-dir`` (+ ``--sweep-store``) -> store path (or None).

    Single-input commands key the store file by the input's stem, so
    every benchmark label in a cache directory gets its own versioned
    JSON file.  Batch ``decompose`` runs (multiple inputs) share one
    ``batch.cache.json`` instead — that is the store the parallel
    workers warm-start from and merge back into.  ``--sweep-store``
    overrides both: every input of every invocation pointed at the
    same cache directory warm-starts from (and merges back into) one
    ``sweep.cache.json``, so components learned on one PLA are reused
    on the next — across stems and across CLI runs.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if getattr(args, "sweep_store", False):
        if cache_dir is None:
            raise ValueError("--sweep-store needs --cache-dir DIR to "
                             "hold the shared sweep store")
        return os.path.join(cache_dir, SWEEP_STORE_NAME)
    if cache_dir is None:
        return None
    source = getattr(args, "input", None)
    if isinstance(source, list):
        if len(source) > 1:
            return os.path.join(cache_dir, "batch.cache.json")
        source = source[0]
    return os.path.join(cache_dir, input_stem(source) + ".cache.json")


def _pipeline_config(args, flow="bidecomp", verify=True):
    has_engine_flags = hasattr(args, "no_or")
    return PipelineConfig(
        decomposition=(_config_from_args(args) if has_engine_flags
                       else DecompositionConfig()),
        flow=flow,
        verify=verify,
        time_limit=getattr(args, "time_limit", None),
        max_nodes=getattr(args, "max_nodes", None),
        model=getattr(args, "model", "bidecomp"),
        check_contracts=getattr(args, "check", False),
        cache_path=_cache_path_from_args(args),
        cache_readonly=getattr(args, "cache_readonly", False),
        sweep_store=getattr(args, "sweep_store", False),
        budget_scope=getattr(args, "budget_scope", "run"),
        jobs=getattr(args, "jobs", 1),
        emit_certificates=(getattr(args, "certificates", False)
                           or getattr(args, "certify", False)),
    )


def _add_config_flags(parser):
    parser.add_argument("--no-or", action="store_true",
                        help="disable strong OR steps")
    parser.add_argument("--no-and", action="store_true",
                        help="disable strong AND steps")
    parser.add_argument("--no-exor", action="store_true",
                        help="disable EXOR gates entirely")
    parser.add_argument("--no-weak", action="store_true",
                        help="disable weak steps (Shannon fallback)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the component-reuse cache")
    parser.add_argument("--exhaustive-grouping", action="store_true",
                        help="Section 5's exclude-one/add-many refinement")
    parser.add_argument("--weak-xa-size", type=int, default=1,
                        help="variables in the weak step's XA (paper: 1)")


def _add_budget_flags(parser):
    """Budget and report flags (``decompose``, ``stats``, ``baseline``)."""
    parser.add_argument("--time-limit", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget; exceeded -> exit 3")
    parser.add_argument("--max-nodes", type=int, default=None,
                        metavar="N",
                        help="live BDD node budget; exceeded -> exit 3")
    parser.add_argument("--stats-json", default=None, metavar="PATH",
                        help="write the per-stage run report as JSON "
                             "('-' for stdout)")


def _add_engine_flags(parser):
    """Flags of the bi-decomposition engine's runs (``decompose`` and
    ``stats``); the baseline flows have no contracts and no component
    store."""
    parser.add_argument("--check", action="store_true",
                        help="re-verify the paper's theorem certificates "
                             "at every recursion step (sanitizer mode; "
                             "a violation aborts with exit 4)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist the Theorem 6 component cache under "
                             "DIR (one versioned JSON store per input "
                             "stem; a batch of several inputs shares "
                             "batch.cache.json); later runs warm-start "
                             "from it")
    parser.add_argument("--cache-readonly", action="store_true",
                        help="load the component-cache store but never "
                             "write it back")
    parser.add_argument("--sweep-store", action="store_true",
                        dest="sweep_store",
                        help="share one cross-benchmark sweep store "
                             "(sweep.cache.json under --cache-dir) "
                             "across every input and every invocation: "
                             "components learned on one PLA warm-start "
                             "the next (keys are stem-agnostic; every "
                             "rehydrated hit is re-proved by the "
                             "Theorem 6 containment tests)")


def _write_json(target, doc, stdout):
    """Write *doc* as canonical JSON to the path *target* (``-``: stdout).

    A plain ``open(target, "w")``: an unwritable path raises OSError,
    which :func:`main` turns into exit code 2.
    """
    text = dumps_json(doc)
    if target == "-":
        stdout.write(text)
    else:
        with open(target, "w") as handle:
            handle.write(text)


def _emit_stats_json(args, session, run, stdout, extra=None):
    if getattr(args, "stats_json", None) is None:
        return
    doc = run.stats_json(config=session.config)
    if run.netlist is not None:
        from repro.analysis import lint_netlist
        report = lint_netlist(run.netlist, specs=run.specs)
        doc["lint"] = report.summary()
    if extra:
        doc.update(extra)
    _write_json(args.stats_json, doc, stdout)


def _run_pipeline(config, pipeline, source, label=None):
    """Run one input in a fresh session; returns ``(session, run)``.

    A budget trip is reported on stderr and gives ``run=None``.  A
    ``--cache-dir`` store is read once before the session and merged
    once after it, as in a batch — also after a budget trip, so the
    retry starts warm.  The store is written with *label*; None (a
    command without ``--model``) keeps the label already on disk.
    """
    from repro.decomp.cache_store import commit_store, open_store
    events = EventBus()
    stored = None
    if config.cache_path is not None:
        stored = open_store(config.cache_path, events=events,
                            readonly=config.cache_readonly)
    session = Session(config, events=events, stored=stored)
    try:
        run = pipeline.run(session, source)
    except PipelineError as exc:
        sys.stderr.write("aborted: %s\n" % exc)
        run = None
    if stored is not None and not config.cache_readonly:
        commit_store(config.cache_path, [session.component_entries()],
                     label=label, events=events)
    return session, run


def _certify_one(spec_path, blif_path, cert_path, events=None):
    """Round-trip one artifact triple through the offline certifier.

    Runs :func:`repro.analysis.certify_file` — a fresh manager rebuilt
    from the PLA, not the session that produced the artifacts — and
    reports the outcome on stderr (and *events*, when given).  Returns
    True when the certificate was accepted.
    """
    from repro.analysis import certify_file
    from repro.io import CertificateError
    try:
        report = certify_file(spec_path, blif_path, cert_path)
    except CertificateError as exc:
        sys.stderr.write("certify %s: %s\n" % (cert_path, exc))
        if events is not None:
            events.publish("certify_failed", spec=spec_path,
                           certificate=cert_path, error=str(exc))
        return False
    if report.ok:
        sys.stderr.write("certified %s: %d step(s), %d check(s)\n"
                         % (cert_path, report.steps_checked,
                            report.checks))
        if events is not None:
            events.publish("certified", spec=spec_path,
                           certificate=cert_path,
                           steps=report.steps_checked,
                           checks=report.checks)
        return True
    sys.stderr.write(report.format_text())
    if events is not None:
        events.publish("certify_failed", spec=spec_path,
                       certificate=cert_path,
                       failures=[f.as_dict() for f in report.failures])
    return False


def _certify_runs(runs, certify, events=None):
    """Tally the certificates of finished *runs*; with *certify*,
    round-trip each one through :func:`_certify_one`.

    Returns the ``"certify"`` stats-json block
    (emitted/checked/accepted/rejected); a run that emitted no
    certificate counts as rejected when *certify* asks for a check.
    """
    counts = {"emitted": 0, "checked": 0, "accepted": 0, "rejected": 0}
    for run in runs:
        if run.certificate_path:
            counts["emitted"] += 1
        if not certify:
            continue
        if run.certificate_path is None:
            sys.stderr.write("certify %s: no certificate was emitted\n"
                             % run.label)
            counts["rejected"] += 1
            continue
        counts["checked"] += 1
        accepted = _certify_one(run.source.path, run.source.emit_path,
                                run.certificate_path, events=events)
        counts["accepted" if accepted else "rejected"] += 1
    return counts


def _print_stats(stats, stream, prefix=""):
    stream.write("%sgates=%d exors=%d inverters=%d area=%.1f "
                 "cascades=%d delay=%.1f\n"
                 % (prefix, stats.gates, stats.exors, stats.inverters,
                    stats.area, stats.cascades, stats.delay))


def cmd_decompose(args, stdout):
    """Decompose PLAs and write BLIF (the BI-DECOMP program).

    A single input follows the classic one-session path.  Several
    inputs (or ``--jobs``/``--output-dir``) run as a batch through the
    parallel executor: each input in its own fresh session, partitions
    across ``--jobs`` worker processes, Theorem 6 components shared
    via the ``--cache-dir`` store and merged afterwards.
    """
    if (len(args.input) > 1 or args.jobs != 1
            or args.output_dir is not None):
        return _decompose_batch(args, stdout)
    emit_certs = args.certificates or args.certify
    emit_path = None if args.output in (None, "-") else args.output
    if emit_certs and emit_path is None:
        sys.stderr.write("error: --certificates/--certify need a file "
                         "output (-o or --output-dir)\n")
        return 2
    source = PipelineInput(path=args.input[0], emit_path=emit_path)
    session, run = _run_pipeline(
        _pipeline_config(args, verify=not args.no_verify),
        Pipeline.standard(), source, label=args.model)
    if run is None:
        return 3
    if emit_path is None:
        stdout.write(run.blif)
    result = run.result
    _print_stats(run.netlist_stats(), sys.stderr)
    sys.stderr.write("decomposition: %s\n" % result.stats.as_dict())
    sys.stderr.write("cache: %s\n" % result.cache_stats)
    sys.stderr.write("time: %.3fs\n" % run.elapsed)
    extra = None
    if emit_certs:
        extra = {"certify": _certify_runs([run], args.certify,
                                          events=session.events)}
    _emit_stats_json(args, session, run, stdout, extra=extra)
    return 1 if extra and extra["certify"]["rejected"] else 0


def _decompose_batch(args, stdout):
    """Batch/parallel decompose: N PLAs over ``--jobs`` workers."""
    from repro.pipeline import run_batch_parallel
    if args.output is not None and len(args.input) > 1:
        sys.stderr.write("error: -o/--output takes a single input; "
                         "use --output-dir for batches\n")
        return 2
    emit_certs = args.certificates or args.certify
    if (emit_certs and args.output_dir is None
            and args.output in (None, "-")):
        sys.stderr.write("error: --certificates/--certify need file "
                         "outputs (--output-dir)\n")
        return 2
    config = _pipeline_config(args, verify=not args.no_verify)
    sources = []
    writers = {}
    for path in args.input:
        emit_path = None
        if args.output_dir is not None:
            emit_path = os.path.join(args.output_dir,
                                     input_stem(path) + ".blif")
            if emit_path in writers:
                # The later input would overwrite the earlier one's BLIF
                # (and certificate).
                sys.stderr.write("error: %s and %s both write %s\n"
                                 % (writers[emit_path], path, emit_path))
                return 2
            writers[emit_path] = path
        elif args.output not in (None, "-"):
            emit_path = args.output
        sources.append(PipelineInput(path=path, emit_path=emit_path))
    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)
    result = run_batch_parallel(sources, config=config, jobs=args.jobs,
                                events=EventBus(record=False))
    for run in result:
        if run.error is not None:
            sys.stderr.write("aborted %s: %s: %s\n"
                             % (run.label, run.error["type"],
                                run.error["message"]))
            continue
        if run.source.emit_path is None:
            stdout.write(run.blif)
        _print_stats(run.netlist_stats(), sys.stderr,
                     prefix="%s: " % run.label)
    sys.stderr.write("batch: %d inputs over %d worker(s), %d failed, "
                     "%.3fs\n" % (len(result), result.jobs,
                                  len(result.failures), result.elapsed))
    certify_counts = None
    if emit_certs:
        certify_counts = _certify_runs(
            [run for run in result if run.error is None], args.certify)
    if getattr(args, "stats_json", None) is not None:
        doc = result.report(config)
        if certify_counts is not None:
            doc["certify"] = certify_counts
        _write_json(args.stats_json, doc, stdout)
    if any(run.error["type"] == "ContractViolation"
           for run in result.failures):
        return 4
    if result.failures:
        return 3
    if certify_counts is not None and certify_counts["rejected"]:
        return 1
    return 0


def cmd_stats(args, stdout):
    """Decompose and print the Table 2 cost columns."""
    session, run = _run_pipeline(_pipeline_config(args),
                                 Pipeline.standard(emit=False),
                                 PipelineInput(path=args.input))
    if run is None:
        return 3
    _print_stats(run.netlist_stats(), stdout)
    _emit_stats_json(args, session, run, stdout)
    return 0


def cmd_verify(args, stdout):
    """Verify a BLIF netlist against a PLA specification."""
    _data, mgr, specs = load_pla(args.spec)
    _mgr, outputs = parse_blif(read_text(args.netlist), mgr=mgr)
    failures = []
    for name, isf in specs.items():
        if name not in outputs:
            failures.append("%s: missing from netlist" % name)
        elif not isf.is_compatible(outputs[name]):
            failures.append("%s: violates the interval" % name)
    if failures:
        for line in failures:
            stdout.write("FAIL %s\n" % line)
        return 1
    stdout.write("OK: %d outputs verified\n" % len(specs))
    return 0


def cmd_lint(args, stdout):
    """Static-analysis lint of a BLIF netlist (see docs/ANALYSIS.md)."""
    from repro.analysis import Severity, lint_netlist
    from repro.analysis.rules import RULES
    from repro.analysis.repolint.sarif import to_sarif
    from repro.io import parse_blif_netlist
    # argparse's choices guard the real CLI; validate here too so
    # programmatic callers with a mistyped level exit 2 instead of
    # silently passing (the threshold would otherwise never be ranked
    # when the report is clean).
    if args.fail_on != "never" and args.fail_on not in Severity.ORDER:
        sys.stderr.write("error: unknown --fail-on severity %r "
                         "(choose from %s)\n"
                         % (args.fail_on,
                            "/".join(Severity.ORDER + ("never",))))
        return 2
    netlist = parse_blif_netlist(read_text(args.netlist))
    specs = None
    if args.spec is not None:
        _data, _mgr, specs = load_pla(args.spec)
    report = lint_netlist(netlist, specs=specs)
    stdout.write(report.format_text())
    if getattr(args, "json", None) is not None:
        _write_json(args.json, report.as_dict(), stdout)
    if getattr(args, "sarif", None) is not None:
        _write_json(args.sarif,
                    to_sarif(report, rules=RULES,
                             tool_name="repro-netlist-lint",
                             default_uri=args.netlist),
                    stdout)
    if args.fail_on == "never":
        return 0
    return 1 if report.worst(args.fail_on) else 0


def cmd_selfcheck(args, stdout):
    """Run the repolint self-analysis over the repo's own source."""
    from repro.analysis import Severity
    from repro.analysis.repolint import (BaselineError, load_baseline,
                                         make_baseline, run_repolint,
                                         save_baseline, to_sarif)
    if args.fail_on != "never" and args.fail_on not in Severity.ORDER:
        sys.stderr.write("error: unknown --fail-on severity %r "
                         "(choose from %s)\n"
                         % (args.fail_on,
                            "/".join(Severity.ORDER + ("never",))))
        return 2
    if args.write_baseline and args.baseline is None:
        sys.stderr.write("error: --write-baseline needs "
                         "--baseline PATH to write to\n")
        return 2
    baseline = None
    if args.baseline is not None and not args.write_baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            sys.stderr.write("error: %s\n" % exc)
            return 2
    report = run_repolint(paths=args.paths or None, root=args.root,
                          baseline=baseline)
    if args.write_baseline:
        save_baseline(args.baseline, make_baseline(report.findings))
        stdout.write("selfcheck: wrote baseline with %d entrie(s) to "
                     "%s\n" % (len(report.findings), args.baseline))
        return 0
    stdout.write(report.format_text())
    if args.json is not None:
        _write_json(args.json, report.as_dict(), stdout)
    if args.sarif is not None:
        _write_json(args.sarif, to_sarif(report), stdout)
    if args.fail_on == "never":
        return 0
    return 1 if report.worst(args.fail_on) else 0


def cmd_certify(args, stdout):
    """Independently re-prove a decomposition certificate.

    Loads the PLA spec into a fresh manager, rebuilds every certified
    step from its serialized covers, re-proves the theorem conditions
    and cross-checks the emitted BLIF — without importing the engine
    or pipeline (see docs/ANALYSIS.md for the threat model).
    """
    from repro.analysis import certify_file
    from repro.io import CertificateError
    try:
        report = certify_file(args.spec, args.netlist, args.certificate)
    except CertificateError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    stdout.write(report.format_text())
    if getattr(args, "json", None) is not None:
        _write_json(args.json, report.as_dict(), stdout)
    return 0 if report.ok else 1


def cmd_testability(args, stdout):
    """Decompose and run the Theorem 5 fault analysis."""
    _session, run = _run_pipeline(_pipeline_config(args),
                                  Pipeline.standard(emit=False),
                                  PipelineInput(path=args.input))
    if run is None:
        return 3
    report = analyze_testability(run.netlist, run.mgr,
                                 care_sets(run.specs))
    stdout.write("faults=%d testable=%d coverage=%.1f%%\n"
                 % (report.total, report.testable,
                    100.0 * report.coverage))
    for fault in report.redundant:
        stdout.write("redundant: %r\n" % fault)
    return 0 if report.fully_testable() else 1


def cmd_map(args, stdout):
    """Decompose and map onto the standard-cell library."""
    _session, run = _run_pipeline(
        _pipeline_config(args),
        Pipeline.standard(emit=False, map_cells=True),
        PipelineInput(path=args.input))
    if run is None:
        return 3
    mapping = run.mapping
    stdout.write("cells=%d area=%.1f delay=%.1f\n"
                 % (sum(mapping.cell_counts.values()), mapping.area,
                    mapping.delay))
    for name in sorted(mapping.cell_counts):
        stdout.write("  %-8s %d\n" % (name, mapping.cell_counts[name]))
    return 0


def cmd_fsm(args, stdout):
    """Synthesise a KISS2 state machine's next-state/output logic."""
    from repro.fsm import check_against_fsm, parse_kiss, synthesize_fsm
    from repro.io import write_blif
    fsm = parse_kiss(read_text(args.input))
    synth = synthesize_fsm(fsm, encoding=args.encoding,
                           use_dont_cares=not args.no_dont_cares,
                           config=_config_from_args(args))
    if not args.no_verify:
        check_against_fsm(synth)
    stats = synth.result.netlist_stats()
    stdout.write("states=%d encoding=%s state_bits=%d\n"
                 % (fsm.num_states(), args.encoding,
                    synth.encoded.state_bits))
    _print_stats(stats, stdout)
    if args.output:
        write_blif(synth.netlist, model=args.model, path=args.output)
    return 0


def cmd_baseline(args, stdout):
    """Run a comparison baseline on the PLA."""
    session, run = _run_pipeline(_pipeline_config(args, flow=args.flow),
                                 Pipeline.standard(emit=False),
                                 PipelineInput(path=args.input))
    if run is None:
        return 3
    _print_stats(run.netlist_stats(), stdout)
    _emit_stats_json(args, session, run, stdout)
    return 0


def build_parser():
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="PLA -> bi-decomposed BLIF")
    p.add_argument("input", nargs="+",
                   help="PLA file(s); several inputs run as a batch")
    p.add_argument("-o", "--output",
                   help="BLIF path for a single input (default stdout)")
    p.add_argument("--output-dir", default=None, metavar="DIR",
                   help="write one <stem>.blif per input under DIR "
                        "(batch mode)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for batch runs (0 = all "
                        "cores); each input gets its own session, "
                        "components are shared via --cache-dir")
    p.add_argument("--model", default="bidecomp")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--certificates", action="store_true",
                   help="write a <stem>.cert.json proof trace beside "
                        "each emitted BLIF (see 'repro certify')")
    p.add_argument("--certify", action="store_true",
                   help="emit certificates and round-trip each one "
                        "through the offline certifier (a rejection "
                        "makes the exit code 1)")
    p.add_argument("--budget-scope", choices=("run", "batch"),
                   default="run",
                   help="what --time-limit spans: each input run "
                        "(default) or the whole batch (one sweep-wide "
                        "clock shared by every --jobs worker)")
    _add_config_flags(p)
    _add_budget_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("stats", help="print netlist cost columns")
    p.add_argument("input")
    _add_config_flags(p)
    _add_budget_flags(p)
    _add_engine_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("verify", help="check a BLIF against a PLA spec")
    p.add_argument("spec")
    p.add_argument("netlist")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lint", help="static-analysis lint of a BLIF file")
    p.add_argument("netlist", help="BLIF file to lint ('-' for stdin)")
    p.add_argument("--spec", default=None, metavar="PLA",
                   help="PLA specification for support-mismatch checks")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full findings report as JSON "
                        "('-' for stdout)")
    p.add_argument("--sarif", default=None, metavar="PATH",
                   help="write a SARIF 2.1.0 report "
                        "('-' for stdout)")
    p.add_argument("--fail-on", choices=("error", "warning", "info",
                                         "never"),
                   default="error",
                   help="lowest severity that makes the exit code 1 "
                        "(default: error)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("selfcheck",
                       help="repolint static analysis of the repo's "
                            "own source (docs/ANALYSIS.md)")
    p.add_argument("paths", nargs="*",
                   help="files/directories to scan (default: src/repro "
                        "and tools under --root)")
    p.add_argument("--root", default=None, metavar="DIR",
                   help="repo root rel paths are computed against "
                        "(default: current directory)")
    p.add_argument("--baseline", default=None, metavar="PATH",
                   help="baseline JSON of grandfathered findings; "
                        "stale entries are errors")
    p.add_argument("--write-baseline", action="store_true",
                   help="write the current findings to --baseline and "
                        "exit 0 instead of reporting")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the full findings report as JSON "
                        "('-' for stdout)")
    p.add_argument("--sarif", default=None, metavar="PATH",
                   help="write a SARIF 2.1.0 report "
                        "('-' for stdout)")
    p.add_argument("--fail-on", choices=("error", "warning", "info",
                                         "never"),
                   default="error",
                   help="lowest severity that makes the exit code 1 "
                        "(default: error)")
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("certify",
                       help="independently re-prove a decomposition "
                            "certificate against its PLA spec and BLIF")
    p.add_argument("spec", help="PLA specification file")
    p.add_argument("netlist", help="emitted BLIF file")
    p.add_argument("certificate", help="<stem>.cert.json proof trace")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the certification report as JSON "
                        "('-' for stdout)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("testability", help="Theorem 5 fault analysis")
    p.add_argument("input")
    _add_config_flags(p)
    p.set_defaults(func=cmd_testability)

    p = sub.add_parser("map", help="standard-cell mapping")
    p.add_argument("input")
    _add_config_flags(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("fsm", help="synthesise a KISS2 state machine")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the logic as BLIF")
    p.add_argument("--model", default="fsm")
    p.add_argument("--encoding", choices=("binary", "onehot"),
                   default="binary")
    p.add_argument("--no-dont-cares", action="store_true",
                   help="pin sequential don't-cares to 0 (ablation)")
    p.add_argument("--no-verify", action="store_true")
    _add_config_flags(p)
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("baseline", help="run a comparison flow")
    p.add_argument("input")
    p.add_argument("--flow", choices=("sis", "bds"), default="sis",
                   help="sis: ISOP cover mapped onto AND/OR trees "
                        "(Table 2); bds: structural BDD cuts (Table 3)")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None, stdout=None):
    """CLI entry point; returns the exit code."""
    stdout = stdout or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.analysis import ContractViolation
    try:
        return args.func(args, stdout)
    except ContractViolation as exc:
        # --check sanitizer tripped: a theorem certificate failed.
        sys.stderr.write("contract violated: %s\n" % exc)
        return 4
    except ValueError as exc:
        # Config validation (e.g. --time-limit 0) and spec errors.
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        # Missing, unreadable or directory input (and unwritable output).
        if exc.filename is None:
            sys.stderr.write("error: %s\n" % exc)
        else:
            sys.stderr.write("error: %s: %s\n"
                             % (exc.filename, exc.strerror))
        return 2


if __name__ == "__main__":
    sys.exit(main())
