"""BDS-like baseline: structural BDD decomposition with simple cuts.

Table 3 of the paper compares BI-DECOMP against BDS [Yang & Ciesielski,
DAC 2000].  BDS decomposes the BDD *structurally*: it looks for
1-dominators (AND cuts), 0-dominators (OR cuts) and x-dominators (XOR
cuts) on the graph, falling back to a multiplexer on the top variable.
The paper conjectures BDS "applies only weak bi-decomposition" — each
cut separates one variable (or a dominator point) rather than balanced
variable sets.

This module reimplements that recipe in its simple form.  For each BDD
node (memoised, so shared subgraphs become shared gates):

* constant / literal terminals are emitted directly;
* ``f1 == 0``          ->  ``~x & f0``                (OR/AND cut)
* ``f0 == 0``          ->  ``x & f1``
* ``f1 == 1``          ->  ``x | f0``
* ``f0 == 1``          ->  ``~x | f1``
* ``f0 == ~f1``        ->  ``x ^ f0``                 (XOR cut)
* otherwise            ->  ``(x & f1) | (~x & f0)``   (mux fallback)

Don't-cares are exploited once, up front, by covering the ISF interval
with the ISOP heuristic before decomposing — mirroring BDS's restrict-
style preprocessing.
"""

import time

from repro.baselines.sis_like import BaselineResult, _as_isfs
from repro.bdd.node import FALSE, TRUE
from repro.network.netlist import Netlist


def bds_like_synthesize(specs, session=None):
    """Structurally decompose ``{name: ISF-or-Function}`` BDDs.

    *session* optionally runs the flow inside a
    :class:`repro.pipeline.Session` (growth hooks, time budget, one
    ``flow_progress`` event per output).
    """
    mgr, specs = _as_isfs(specs, "bds_like_synthesize")
    if session is not None:
        session.adopt_manager(mgr)
    netlist = Netlist(mgr.var_names)
    memo = {}
    started = time.perf_counter()
    for name, isf in specs.items():
        if session is not None:
            session.check_limits()
        cover = isf.cover()
        node = _decompose_node(mgr, cover.node, netlist, memo)
        netlist.set_output(name, node)
        if session is not None:
            session.events.publish("flow_progress", flow="bds",
                                   output=name)
    elapsed = time.perf_counter() - started
    return BaselineResult(netlist, elapsed)


def _decompose_node(mgr, node, netlist, memo):
    if node == FALSE:
        return netlist.constant(0)
    if node == TRUE:
        return netlist.constant(1)
    cached = memo.get(node)
    if cached is not None:
        return cached
    var = mgr.top_var(node)
    literal = netlist.input_node(mgr.var_name(var))
    lo = mgr.low(node)
    hi = mgr.high(node)
    if hi == FALSE:
        result = netlist.add_and(netlist.add_not(literal),
                                 _decompose_node(mgr, lo, netlist, memo))
    elif lo == FALSE:
        result = netlist.add_and(literal,
                                 _decompose_node(mgr, hi, netlist, memo))
    elif hi == TRUE:
        result = netlist.add_or(literal,
                                _decompose_node(mgr, lo, netlist, memo))
    elif lo == TRUE:
        result = netlist.add_or(netlist.add_not(literal),
                                _decompose_node(mgr, hi, netlist, memo))
    elif mgr.not_(lo) == hi:
        result = netlist.add_xor(literal,
                                 _decompose_node(mgr, lo, netlist, memo))
    else:
        result = netlist.add_mux(literal,
                                 _decompose_node(mgr, hi, netlist, memo),
                                 _decompose_node(mgr, lo, netlist, memo))
    memo[node] = result
    return result
