"""EXOR-intensive functions: where bi-decomposition shines.

Decomposes the symmetric MCNC functions (9sym, rd84) with the
bi-decomposition algorithm and with the two baselines, showing the
paper's headline effect: EXOR bi-decomposition keeps symmetric
functions small, while the SOP-based flow (which, like SIS, never emits
EXOR gates) explodes.

Run:  python examples/symmetric_decomposition.py
"""

from repro.baselines import bds_like_synthesize, sis_like_synthesize
from repro.bench import get
from repro.decomp import bi_decompose
from repro.network import verify_against_isfs


def run_one(name):
    bench = get(name)
    mgr, specs = bench.build()

    bidecomp = bi_decompose(specs, verify=True)
    sis = sis_like_synthesize(specs)   # the paper's SIS setup
    bds = bds_like_synthesize(specs)
    verify_against_isfs(sis.netlist, specs)
    verify_against_isfs(bds.netlist, specs)

    print("\n%s (%d inputs, %d outputs) — %s"
          % (name, bench.inputs, bench.outputs, bench.note))
    print("  %-22s %7s %7s %9s %6s %8s"
          % ("flow", "gates", "exors", "area", "casc", "delay"))
    for label, stats in (("BI-DECOMP", bidecomp.netlist_stats()),
                         ("SIS-like (SOP map)", sis.netlist_stats()),
                         ("BDS-like (BDD cuts)", bds.netlist_stats())):
        print("  %-22s %7d %7d %9.1f %6d %8.1f"
              % (label, stats.gates, stats.exors, stats.area,
                 stats.cascades, stats.delay))
    used = bidecomp.stats
    print("  strong steps: OR=%d AND=%d EXOR=%d | weak: OR=%d AND=%d"
          % (used.strong["OR"], used.strong["AND"], used.strong["XOR"],
             used.weak["OR"], used.weak["AND"]))


def main():
    for name in ("9sym", "rd84", "t481"):
        run_one(name)


if __name__ == "__main__":
    main()
