"""SIS-like baseline: ISOP cover mapped onto two-input AND/OR trees.

The paper compares BI-DECOMP against SIS's area-oriented mapping into
a two-input gate library, run without a multi-level factoring script.
SIS itself is unavailable legacy C code, so this module reimplements
the same flow shape:

1. per-output irredundant SOP via Minato-Morreale ISOP over the ISF
   interval (don't-cares exploited, like ``simplify -m``);
2. each cube mapped onto a balanced two-input AND tree of its literals
   (in variable order) and the cube terms onto a balanced OR tree,
   with structural hashing providing the (modest) SIS-style sharing
   across outputs.

Crucially — and deliberately — the result contains **no EXOR gates**,
reproducing the behaviour the paper observes in SIS's output and the
resulting blow-up on XOR-intensive functions such as 9sym and 16sym8.
"""

import time

from repro.bdd.isop import isop as _isop
from repro.boolfn.isf import ISF
from repro.network.netlist import Netlist
from repro.network.stats import compute_stats


class BaselineResult:
    """Netlist + timing produced by a baseline synthesiser."""

    def __init__(self, netlist, elapsed, extra=None):
        self.netlist = netlist
        self.elapsed = elapsed
        self.extra = dict(extra or {})

    def netlist_stats(self):
        """Cost metrics (same columns as the decomposition result)."""
        return compute_stats(self.netlist)

    def __repr__(self):
        return ("BaselineResult(%r, elapsed=%.3fs)"
                % (self.netlist_stats(), self.elapsed))


def sis_like_synthesize(specs, session=None):
    """Run the SIS-like flow on ``{output_name: ISF-or-Function}``.

    *session* optionally runs the flow inside a
    :class:`repro.pipeline.Session`: the session's BDD-growth hook and
    wall-clock budget apply, and one ``flow_progress`` event is
    published per synthesised output.
    """
    mgr, specs = _as_isfs(specs, "sis_like_synthesize")
    if session is not None:
        session.adopt_manager(mgr)
    netlist = Netlist(mgr.var_names)
    var_nodes = {var: netlist.input_node(mgr.var_name(var))
                 for var in range(mgr.num_vars)}
    started = time.perf_counter()
    total_cubes = 0
    total_literals = 0
    for name, isf in specs.items():
        if session is not None:
            session.check_limits()
        _cover, cubes = _isop(mgr, isf.on.node, isf.upper.node)
        total_cubes += len(cubes)
        total_literals += sum(cube.num_literals() for cube in cubes)
        netlist.set_output(name, _sop_node(cubes, netlist, var_nodes))
        if session is not None:
            session.events.publish("flow_progress", flow="sis",
                                   output=name, cubes=len(cubes))
    elapsed = time.perf_counter() - started
    return BaselineResult(netlist, elapsed,
                          extra={"cubes": total_cubes,
                                 "sop_literals": total_literals})


def _sop_node(cubes, netlist, var_nodes):
    """Map a cube cover onto balanced AND trees under a balanced OR."""
    if not cubes:
        return netlist.constant(0)
    if any(not cube.literals for cube in cubes):
        return netlist.constant(1)  # a tautology cube absorbs the rest
    terms = []
    for cube in cubes:
        literals = [var_nodes[var] if polarity
                    else netlist.add_not(var_nodes[var])
                    for var, polarity in sorted(cube.literals.items())]
        terms.append(_balanced(literals, netlist.add_and))
    return _balanced(terms, netlist.add_or)


def _balanced(nodes, combine):
    """Reduce a node list with a balanced binary tree (short delay)."""
    while len(nodes) > 1:
        paired = []
        for i in range(0, len(nodes) - 1, 2):
            paired.append(combine(nodes[i], nodes[i + 1]))
        if len(nodes) % 2:
            paired.append(nodes[-1])
        nodes = paired
    return nodes[0]


def _as_isfs(specs, flow):
    """``(mgr, {name: ISF})`` for a flow's specs; ValueError when empty."""
    specs = {name: _as_isf(spec) for name, spec in specs.items()}
    if not specs:
        raise ValueError(
            "%s: empty specification dict — pass at least one output "
            "name mapped to an ISF or Function" % flow)
    return next(iter(specs.values())).mgr, specs


def _as_isf(spec):
    if isinstance(spec, ISF):
        return spec
    return ISF.from_csf(spec)
