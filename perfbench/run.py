"""BI-DECOMP end-to-end benchmark.

    python3 perfbench/run.py --workload hogs --seed 0 --seconds 10 --trace 0

Runs one workload (``hogs``, ``sweep_cold_check`` or ``sweep_warm_j2``;
see ``perfbench/README.md``) from the root of a source checkout: set-up
(imports, writing the PLA files, filling the store) is repeated and its
median reported, then passes run until ``--seconds`` of pass time is
spent.  Every emitted BLIF is BDD-verified against a fresh load of its
PLA, every certificate must pass the offline certifier, and the BLIF and
certificate digests must agree across the passes of a run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  A
human-readable summary goes to stderr and a JSON report (with the traced
spans) to ``.perfbench/results/``; the last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gzip
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from collections import Counter
from time import perf_counter

from tracer import Tracer, self_s_by_layer

STARTED = perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 3
#: No pass starts unless it can end this many seconds into the run.
RUN_CAP_S = 150.0
#: Every pass's budget ends by then, so the run exits within 180 s.
HARD_CAP_S = 165.0

LAYERS = ("bdd", "decomp", "proof", "store", "pipeline")
STAGES = ("parse", "build_isfs", "preprocess", "decompose", "verify",
          "emit")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still removes its scratch files and stops workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: no src/repro under %s; run from the "
                         "root of a source checkout\n" % ROOT)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    import_s = perf_counter() - STARTED
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write("perfbench: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2

    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=base)
    try:
        measured = measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        leftover = _stop_children()
    setup_s, passes, traced, tracer, verified, setup_leftover = measured
    leftover += setup_leftover

    report = build_report(args, workload, import_s + setup_s, passes,
                          traced, tracer, verified, leftover)
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d%s" % (workload.name, args.seed,
                            "-trace" if args.trace else "")
    with open(os.path.join(results, stem + ".json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    if tracer is not None:
        write_spans(os.path.join(results, stem + "-spans.jsonl.gz"), tracer)
    print_summary(report, sys.stderr)
    metrics = report["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def measure(args, workload, work):
    """Set up (repeatedly), run the passes, verify the outputs."""
    import workloads

    def budget():
        left = HARD_CAP_S - (perf_counter() - STARTED)
        return max(1.0, min(workload.time_limit, left))

    setup_times = []
    leftover = 0
    for rep in range(1 if args.trace else SETUP_REPS):
        if rep:
            shutil.rmtree(prepared.directory)
        started = perf_counter()
        prepared = workloads.Prepared(workload, args.seed,
                                      os.path.join(work, "set%d" % rep))
        setup_times.append(perf_counter() - started)
        leftover += prepared.leftover_children
    passes = []
    while True:
        passes.append(workloads.run_pass(prepared, budget()))
        spent = sum(p.wall_s for p in passes)
        if (args.trace or spent >= args.seconds
                or passes[-1].leftover_children
                or (perf_counter() - STARTED + 1.2 * passes[-1].wall_s
                    > RUN_CAP_S)):
            break
    traced = tracer = None
    if args.trace:
        tracer = Tracer(stage_spans=workload.jobs == 1)
        traced = workloads.run_pass(prepared, budget(), tracer=tracer)
    # The files on disk are the last pass's; the digests tie the others
    # to them.
    verified = workloads.verify_outputs(traced or passes[-1])
    return (statistics.median(setup_times), passes, traced, tracer,
            verified, leftover)


def _stop_children():
    """Stop any process this run left behind; returns how many there were."""
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    return len(children)


# ---------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------
def _provenance(seed):
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                ref = handle.read().strip()
        commit = ref
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def _sum(records, key):
    return sum(record.get(key, 0) for record in records)


def counters(pass_result):
    """Deterministic work counters summed over the pass's inputs.

    Read from ``Session.stats_snapshot()`` (``BDD.cache_stats()``
    included) after each input.
    """
    bdd = [snap.get("bdd_cache", {}) for snap in pass_result.counters.values()]
    engine = [snap.get("engine_totals", {})
              for snap in pass_result.counters.values()]
    cache = [snap.get("cache_totals", {})
             for snap in pass_result.counters.values()]
    inputs = list(pass_result.inputs.values())
    lookups = _sum(cache, "lookups")
    out = {
        "bdd.quantify_calls": (_sum(bdd, "quantify_calls")
                               + _sum(bdd, "and_exists_calls")),
        "bdd.quantify_steps": _sum(bdd, "quantify_steps"),
        "bdd.computed_lookups": _sum(bdd, "computed_lookups"),
        "bdd.computed_hit_rate": _ratio(_sum(bdd, "computed_hits"),
                                        _sum(bdd, "computed_lookups")),
        "bdd.unique_lookups": _sum(bdd, "unique_lookups"),
        "bdd.unique_hit_rate": _ratio(_sum(bdd, "unique_hits"),
                                      _sum(bdd, "unique_lookups")),
        "bdd.computed_slots": max([b.get("computed_slots", 0)
                                   for b in bdd] or [0]),
        "bdd.peak_live_nodes": max([b.get("peak_live_nodes", 0)
                                    for b in bdd] or [0]),
        "decomp.calls": _sum(engine, "calls"),
        "decomp.strong_steps": (_sum(engine, "strong_or")
                                + _sum(engine, "strong_and")
                                + _sum(engine, "strong_exor")),
        "decomp.weak_steps": _sum(engine, "weak_or") + _sum(engine,
                                                            "weak_and"),
        "decomp.shannon": _sum(engine, "shannon"),
        "decomp.grouping_check_calls": _sum(engine, "grouping_check_calls"),
        "decomp.quantify_cache_hits": _sum(engine, "quantify_cache_hits"),
        "decomp.cache_lookups": lookups,
        "decomp.cache_hit_rate": _ratio(_sum(cache, "hits"), lookups),
        "decomp.cache_size": _sum(cache, "size"),
        "proof.trace_steps": _sum(inputs, "cert_steps"),
        "proof.contract_checks": _sum(inputs, "contract_checks"),
        "proof.cert_bytes": _sum(inputs, "cert_bytes"),
        "proof.certify_steps": _sum(inputs, "certify_steps"),
        "store.entries": pass_result.store.get("entries", 0),
        "store.bytes": pass_result.store.get("bytes", 0),
        "store.rehydrated_hits": _sum(cache, "rehydrated_hits"),
        "store.rehydrate_ratio": _ratio(_sum(cache, "rehydrated_hits"),
                                        lookups),
        "io.blif_bytes": _sum(inputs, "blif_bytes"),
        "parallel.tasks": pass_result.parallel["tasks"],
        "parallel.worker_failures": pass_result.parallel["worker_failures"],
    }
    return out


def _counter_unit(name, value):
    if name.endswith("bytes"):
        return "bytes"
    return "ratio" if isinstance(value, float) else "count"


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(workload, untraced, traced, tracer):
    """Per-layer metrics of the traced pass, as ``{name: (value, unit)}``."""
    from workloads import ALL_INPUTS
    out = {name: (value, _counter_unit(name, value))
           for name, value in counters(traced).items()}
    totals = {key: Counter(value) for key, value in tracer.totals().items()}
    incl, calls = totals["incl_s"], totals["calls"]
    seconds = {
        "bdd.apply_s": incl["bdd.apply"],
        "bdd.quantify_s": incl["bdd.quantify"],
        "bdd.isop_s": incl["bdd.isop"],
        "decomp.grouping_s": incl["decomp.grouping"],
        "decomp.exor_check_s": incl["decomp.exor"],
        "decomp.derive_s": incl["decomp.derive"],
        "decomp.weak_s": incl["decomp.weak"],
        "decomp.inessential_s": incl["decomp.inessential"],
        "decomp.cache_lookup_s": incl["decomp.cache_lookup"],
        "proof.trace_s": incl["proof.trace"],
        "proof.certify_s": traced.certify_s,
        "store.load_s": incl["store.load"],
        "store.save_s": incl["store.save"],
        "store.merge_s": incl["store.merge"],
    }
    for stage in STAGES:
        seconds["stage.%s_s" % stage] = traced.stage_s.get(stage, 0.0)
    seconds["pipeline.other_s"] = (
        traced.wall_s - sum(traced.stage_s.values()) / workload.jobs
        - traced.certify_s)
    parallel = traced.parallel
    for key in ("spawn_s", "busy_s", "tail_s"):
        seconds["parallel." + key] = parallel[key]
    layer_self = self_s_by_layer(totals)
    for layer in LAYERS:
        seconds["self.%s_s" % layer] = layer_self[layer]
    decompose = incl["stage.decompose"]
    seconds["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    out.update((name, (value, "s")) for name, value in seconds.items())
    out["bdd.apply_calls"] = (calls["bdd.apply"], "count")
    out["decomp.exor_check_calls"] = (calls["decomp.exor"], "count")
    out["decomp.exor_accept_ratio"] = (
        _ratio(totals["accepted"]["decomp.exor"], calls["decomp.exor"]),
        "ratio")
    out["parallel.idle_frac"] = (parallel["idle_frac"], "ratio")
    out["trace.overhead_frac"] = (
        _ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "ratio")
    out["trace.unattributed_frac"] = (
        _ratio(totals["self_s"]["stage.decompose"], decompose), "ratio")
    for name in ALL_INPUTS:
        record = untraced.inputs.get(name)
        out["input.%s.wall_s" % name] = (
            record["wall_s"] if record else 0.0, "s")
    return out


def build_report(args, workload, setup_s, passes, traced, tracer, verified,
                 leftover):
    runs = passes + ([traced] if traced is not None else [])
    attempted = sum(len(p.inputs) for p in runs)
    failed = sum(p.failed for p in runs)
    digests = {}
    for p in runs:
        for label, record in p.inputs.items():
            digests.setdefault(label, set()).add(
                (record["blif_sha256"], record["cert_sha256"]))
    unstable = sorted(label for label, seen in digests.items()
                      if len(seen) > 1)
    leftover += sum(p.leftover_children for p in runs)
    first = passes[0]
    ok_inputs = [r for r in first.inputs.values() if r["failure"] is None]
    walls = [p.wall_s for p in passes]
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "gates": (_sum(ok_inputs, "gates"), "count"),
        "area": (_sum(ok_inputs, "area"), "paper_units"),
        "delay": (_sum(ok_inputs, "delay"), "paper_units"),
    }
    report = {
        "workload": workload.name,
        "provenance": _provenance(args.seed),
        "protocol": {"seconds": args.seconds, "trace": args.trace,
                     "setup_reps": 1 if args.trace else SETUP_REPS,
                     "passes": len(passes), "jobs": workload.jobs,
                     "closed_loop_callers": 1},
        "pass_wall_s": walls,
        "wall_tail": _tail(walls),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": _ratio(failed, attempted),
        "failures": {label: r["failure"] for p in runs
                     for label, r in p.inputs.items() if r["failure"]},
        "verified_outputs": verified,
        "unstable_digests": unstable,
        "leftover_processes": leftover,
        "correct": (failed == 0 and not unstable and leftover == 0
                    and verified > 0),
        "end_to_end": e2e,
        "counters": counters(first),
        "inputs": {label: {key: r.get(key) for key in (
            "wall_s", "gates", "area", "delay", "blif_sha256",
            "cert_sha256", "failure")}
            for label, r in first.inputs.items()},
    }
    if traced is not None:
        report["per_layer"] = per_layer(workload, first, traced, tracer)
        report["spans_by_name"] = tracer.totals()
        report["traced_wall_s"] = traced.wall_s
    return report


def _peak_rss_mb():
    """Peak RSS of this process plus the largest of its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _tail(samples):
    """Highest of p90/p95/p99 with at least ten samples beyond it."""
    for pct in (99, 95, 90):
        if len(samples) * (100 - pct) / 100.0 >= 10:
            cuts = statistics.quantiles(samples, n=100)
            return {"percentile": pct, "value": cuts[pct - 1],
                    "samples": len(samples)}
    return {"percentile": None, "samples": len(samples)}


def write_spans(path, tracer):
    """Gzipped JSON lines, one array per span: id, name, start, end,
    parent id, input label, kernel calls and kernel seconds inside it."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def print_summary(report, stream):
    prov = report["provenance"]
    stream.write("perfbench %s: seed %d, commit %s, python %s, nproc %s, "
                 "%d pass(es)\n" % (report["workload"], prov["seed"],
                                    prov["commit"][:12], prov["python"],
                                    prov["nproc"],
                                    report["protocol"]["passes"]))
    for name, (value, unit) in report["end_to_end"].items():
        stream.write("  %-12s %14.4f %s\n" % (name, value, unit))
    stream.write("  %-12s %14.4f ratio (%d of %d inputs)\n"
                 % ("failed_frac", report["failed_frac"], report["failed"],
                    report["attempted"]))
    tail = report["wall_tail"]
    stream.write("  wall_s tail: %s over %d pass(es)\n"
                 % ("p%d %.4f s" % (tail["percentile"], tail["value"])
                    if tail["percentile"] else "none (too few passes)",
                    tail["samples"]))
    stream.write("  counters: %s\n" % json.dumps(report["counters"],
                                                 sort_keys=True))
    if "per_layer" in report:
        for name, (value, unit) in sorted(report["per_layer"].items()):
            if not name.startswith("input."):
                stream.write("  %-30s %16.6f %s\n" % (name, value, unit))
    for label, failure in report["failures"].items():
        stream.write("  FAILED %s: %s\n" % (label, failure))
    if report["unstable_digests"]:
        stream.write("  digests differ across passes: %s\n"
                     % ", ".join(report["unstable_digests"]))
    if report["leftover_processes"]:
        stream.write("  %d process(es) were still running and were "
                     "stopped\n" % report["leftover_processes"])


if __name__ == "__main__":
    sys.exit(main())
