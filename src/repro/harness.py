"""Experiment harness: regenerates every table of the paper's evaluation.

Usage (CLI)::

    python -m repro.harness table2             # BI-DECOMP vs SIS-like
    python -m repro.harness table2 --quick     # small-benchmark subset
    python -m repro.harness table3             # BI-DECOMP vs BDS-like
    python -m repro.harness testability        # Theorem 5 check
    python -m repro.harness ablation-cache     # Section 6 reuse claim
    python -m repro.harness ablation-strong    # strong-vs-weak claim
    python -m repro.harness ablation-tuning    # Section 5 grouping refinement
    python -m repro.harness atpg               # integrated ATPG
    python -m repro.harness all

This is the one runner for the paper's experiments: EXPERIMENTS.md is
its output, and ``benchmarks/test_paper_claims.py`` asserts the paper's
shape claims on the plain row dicts each ``run_*`` function returns.
"""

import argparse
import sys

from repro.bench import TABLE2, TABLE3, get
from repro.decomp import DecompositionConfig
from repro.pipeline import Pipeline, PipelineConfig, PipelineInput, Session
from repro.testability import analyze_testability, care_sets

#: Reduced benchmark sets for --quick runs (small functions only).
QUICK_TABLE2 = ("9sym", "misex1", "vg2", "e64")
QUICK_TABLE3 = ("5xp1", "9sym", "alu2", "rd84", "t481")


def _stats_row(stats, elapsed):
    return {
        "gates": stats.gates,
        "exors": stats.exors,
        "area": stats.area,
        "cascades": stats.cascades,
        "delay": stats.delay,
        "time": elapsed,
    }


def _synthesize(name, flow="bidecomp", config=None, verify=True,
                mgr_specs=None):
    """Run one benchmark through the session/pipeline layer.

    Returns the finished :class:`~repro.pipeline.PipelineRun`; its
    ``result`` attribute carries the flow-specific result object
    (:class:`~repro.decomp.DecompositionResult` or
    :class:`~repro.baselines.BaselineResult`).
    """
    if mgr_specs is None:
        mgr, specs = get(name).build()
    else:
        mgr, specs = mgr_specs
    session = Session(PipelineConfig(decomposition=config, flow=flow,
                                     verify=verify))
    pipeline = Pipeline.standard(emit=False)
    return pipeline.run(session, PipelineInput(mgr=mgr, specs=specs,
                                               label=name))


def run_table2(names=TABLE2, verify=True, config=None):
    """Reproduce Table 2: BI-DECOMP vs the SIS-like baseline.

    The SIS-like flow matches the paper's SIS usage: mapping only, no
    multi-level factoring script.

    Returns one row dict per benchmark with ``sis`` and ``bidecomp``
    sub-dicts holding gates/exors/area/cascades/delay/time.
    """
    rows = []
    for name in names:
        bench = get(name)
        mgr, specs = bench.build()
        sis = _synthesize(name, flow="sis", verify=verify,
                          mgr_specs=(mgr, specs)).result
        run = _synthesize(name, flow="bidecomp", config=config,
                          verify=verify, mgr_specs=(mgr, specs))
        result = run.result
        rows.append({
            "name": name,
            "ins": bench.inputs,
            "outs": bench.outputs,
            "sis": _stats_row(sis.netlist_stats(), sis.elapsed),
            "bidecomp": _stats_row(result.netlist_stats(), result.elapsed),
            "decomp_stats": result.stats.as_dict(),
            "cache_stats": result.cache_stats,
        })
    return rows


def run_table3(names=TABLE3, verify=True, config=None):
    """Reproduce Table 3: BI-DECOMP vs the BDS-like baseline."""
    rows = []
    for name in names:
        mgr, specs = get(name).build()
        bds = _synthesize(name, flow="bds", verify=verify,
                          mgr_specs=(mgr, specs)).result
        result = _synthesize(name, flow="bidecomp", config=config,
                             verify=verify, mgr_specs=(mgr, specs)).result
        rows.append({
            "name": name,
            "bds": _stats_row(bds.netlist_stats(), bds.elapsed),
            "bidecomp": _stats_row(result.netlist_stats(), result.elapsed),
        })
    return rows


def run_testability(names=("9sym", "rd84", "t481", "misex1", "5xp1"),
                    internal_only=False):
    """Check Theorem 5: full single-stuck-at testability of the output.

    Fault universes are restricted to each specification's care set
    (external don't-cares are inputs that never occur).
    """
    rows = []
    for name in names:
        run = _synthesize(name)
        mgr, specs = run.mgr, run.specs
        result = run.result
        cares = care_sets(specs)
        if internal_only:
            from repro.testability import internal_faults
            faults = internal_faults(result.netlist)
        else:
            faults = None
        report = analyze_testability(result.netlist, mgr, cares, faults)
        rows.append({"name": name, "total": report.total,
                     "testable": report.testable,
                     "coverage": report.coverage,
                     "fully_testable": report.fully_testable()})
    return rows


def run_cache_ablation(names=("9sym", "rd84", "5xp1", "alu2", "misex1")):
    """Section 6's claim: the component cache yields substantial reuse."""
    rows = []
    for name in names:
        with_cache = _synthesize(name).result
        without = _synthesize(
            name, config=DecompositionConfig(use_cache=False)).result
        st_with = with_cache.netlist_stats()
        st_without = without.netlist_stats()
        hits = with_cache.cache_stats["hits"]
        lookups = max(1, with_cache.cache_stats["lookups"])
        rows.append({
            "name": name,
            "with": _stats_row(st_with, with_cache.elapsed),
            "without": _stats_row(st_without, without.elapsed),
            "reuse_rate": hits / lookups,
        })
    return rows


def run_strong_weak_ablation(names=("9sym", "rd84", "t481", "5xp1",
                                    "alu2")):
    """Section 8's conjecture: weak-only decomposition (the BDS mode)
    produces larger netlists than strong bi-decomposition; and EXOR
    gates are what keeps symmetric functions small."""
    weak_only = DecompositionConfig(use_or=False, use_and=False,
                                    use_exor=False)
    no_exor = DecompositionConfig(use_exor=False)
    rows = []
    for name in names:
        full = _synthesize(name).result
        weak = _synthesize(name, config=weak_only).result
        noex = _synthesize(name, config=no_exor).result
        rows.append({
            "name": name,
            "full": _stats_row(full.netlist_stats(), full.elapsed),
            "weak_only": _stats_row(weak.netlist_stats(), weak.elapsed),
            "no_exor": _stats_row(noex.netlist_stats(), noex.elapsed),
            "weak_only_strong_steps": weak.stats.strong_steps(),
        })
    return rows


def run_tuning_ablation(names=("9sym", "rd84", "misex1", "alu2")):
    """Section 5: the exclude-one/add-many grouping refinement."""
    rows = []
    for name in names:
        base = _synthesize(name).result
        refined = _synthesize(
            name, config=DecompositionConfig(exhaustive_grouping=True)).result
        rows.append({
            "name": name,
            "base": _stats_row(base.netlist_stats(), base.elapsed),
            "refined_grouping": _stats_row(refined.netlist_stats(),
                                           refined.elapsed),
        })
    return rows


def run_integrated_atpg(names=("rd84", "9sym", "t481", "misex1")):
    """Future-work claim: ATPG integrated with the decomposition.

    Reports how many faults the provenance-seeded flow resolves
    without any exact BDD analysis.
    """
    from repro.testability import generate_tests_integrated
    rows = []
    for name in names:
        run = _synthesize(name)
        mgr, specs, result = run.mgr, run.specs, run.result
        atpg = generate_tests_integrated(result, mgr, care_sets(specs))
        rows.append({
            "name": name,
            "patterns": len(atpg.patterns),
            "redundant": len(atpg.redundant),
            "seed_rate": atpg.seed_rate,
            "exact_fallbacks": atpg.exact,
        })
    return rows


# ---------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------
def _fmt(value):
    if isinstance(value, float):
        return "%.1f" % value
    return str(value)


def print_table2(rows, stream=None):
    """Print Table 2 in the paper's column layout."""
    stream = stream or sys.stdout
    header = ("%-8s %4s %5s | %6s %6s %8s %5s %7s %7s | %6s %6s %8s %5s "
              "%7s %7s"
              % ("name", "ins", "outs",
                 "gates", "exors", "area", "casc", "delay", "time,s",
                 "gates", "exors", "area", "casc", "delay", "time,s"))
    stream.write("%s\n" % ("-" * len(header)))
    stream.write("%-19s | %-44s | %s\n"
                 % ("benchmark", "SIS-like (no EXOR, SOP-mapped)",
                    "BI-DECOMP (this reproduction)"))
    stream.write(header + "\n")
    stream.write("%s\n" % ("-" * len(header)))
    for row in rows:
        sis, bd = row["sis"], row["bidecomp"]
        stream.write("%-8s %4d %5d | %6d %6d %8.1f %5d %7.1f %7.2f | "
                     "%6d %6d %8.1f %5d %7.1f %7.2f\n"
                     % (row["name"], row["ins"], row["outs"],
                        sis["gates"], sis["exors"], sis["area"],
                        sis["cascades"], sis["delay"], sis["time"],
                        bd["gates"], bd["exors"], bd["area"],
                        bd["cascades"], bd["delay"], bd["time"]))
    stream.write("%s\n" % ("-" * len(header)))


def print_table3(rows, stream=None):
    """Print Table 3 in the paper's column layout."""
    stream = stream or sys.stdout
    header = ("%-8s | %6s %6s %7s | %6s %6s %7s"
              % ("name", "gates", "exors", "time,s",
                 "gates", "exors", "time,s"))
    stream.write("%-8s | %-21s | %s\n"
                 % ("", "BDS-like", "BI-DECOMP"))
    stream.write(header + "\n")
    stream.write("%s\n" % ("-" * len(header)))
    for row in rows:
        bds, bd = row["bds"], row["bidecomp"]
        stream.write("%-8s | %6d %6d %7.2f | %6d %6d %7.2f\n"
                     % (row["name"], bds["gates"], bds["exors"],
                        bds["time"], bd["gates"], bd["exors"], bd["time"]))
    stream.write("%s\n" % ("-" * len(header)))


def print_generic(rows, keys, stream=None):
    """Print ablation/testability rows as aligned columns."""
    stream = stream or sys.stdout
    columns = ["name"] + list(keys)
    widths = [max(len(col), 10) for col in columns]
    stream.write(" ".join(col.ljust(width)
                          for col, width in zip(columns, widths)) + "\n")
    for row in rows:
        cells = [str(row["name"])]
        for key in keys:
            value = row[key]
            if isinstance(value, dict):
                value = "g=%d a=%.0f t=%.2f" % (value["gates"],
                                                value["area"],
                                                value["time"])
            cells.append(_fmt(value))
        stream.write(" ".join(cell.ljust(width)
                              for cell, width in zip(cells, widths)) + "\n")


def main(argv=None):
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment",
                        choices=("table2", "table3", "testability",
                                 "ablation-cache", "ablation-strong",
                                 "ablation-tuning", "atpg", "all"))
    parser.add_argument("--quick", action="store_true",
                        help="small-benchmark subsets only")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip BDD verification of every netlist")
    args = parser.parse_args(argv)
    verify = not args.no_verify

    if args.experiment in ("table2", "all"):
        names = QUICK_TABLE2 if args.quick else TABLE2
        print("== Table 2: BI-DECOMP vs SIS-like ==")
        print_table2(run_table2(names, verify=verify))
    if args.experiment in ("table3", "all"):
        names = QUICK_TABLE3 if args.quick else TABLE3
        print("== Table 3: BI-DECOMP vs BDS-like ==")
        print_table3(run_table3(names, verify=verify))
    if args.experiment in ("testability", "all"):
        print("== Theorem 5: single stuck-at testability ==")
        print_generic(run_testability(),
                      ("total", "testable", "coverage", "fully_testable"))
    if args.experiment in ("ablation-cache", "all"):
        print("== Ablation: component-reuse cache (Section 6) ==")
        print_generic(run_cache_ablation(),
                      ("with", "without", "reuse_rate"))
    if args.experiment in ("ablation-strong", "all"):
        print("== Ablation: strong vs weak-only vs no-EXOR ==")
        print_generic(run_strong_weak_ablation(),
                      ("full", "weak_only", "no_exor"))
    if args.experiment in ("ablation-tuning", "all"):
        print("== Ablation: Section 5 grouping refinement ==")
        print_generic(run_tuning_ablation(), ("base", "refined_grouping"))
    if args.experiment in ("atpg", "all"):
        print("== Integrated ATPG (future-work claim) ==")
        print_generic(run_integrated_atpg(),
                      ("patterns", "redundant", "seed_rate",
                       "exact_fallbacks"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
