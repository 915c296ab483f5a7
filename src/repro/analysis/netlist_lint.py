"""Netlist linter: structural-invariant rules over :class:`Netlist`.

The netlist builder promises a set of invariants (topological ids,
structural hashing, constant folding, double-negation cancellation);
the decomposition engine promises others (output cones stay inside the
specification's support).  This linter re-derives all of them from the
finished data structure, so drift anywhere in the construction path is
caught — including in netlists read back from BLIF files through
:func:`repro.io.parse_blif_netlist`, which preserves structure verbatim
exactly so defects survive into the lint.

Error-severity rules are hard invariants (a violation means the
netlist is corrupt or the engine broke a promise); warnings are missed
simplifications; infos are legitimate-but-notable structure.
"""

import random

from repro.analysis.rules import RULES, Finding, LintReport, Severity, rule
from repro.network import gates as G
from repro.network.simulate import exhaustive_patterns, random_patterns, \
    simulate

#: Inputs at or below this count are signature-checked exhaustively
#: (the functional-duplicate rule becomes exact); above it, 64-bit
#: random-simulation signatures are used.
EXHAUSTIVE_INPUT_LIMIT = 12

#: Width of the random-simulation signature (bits = patterns).
SIGNATURE_BITS = 64

#: One-input/zero-input gate arities; two-input types all take 2.
_ARITY = {G.INPUT: 0, G.CONST0: 0, G.CONST1: 0, G.NOT: 1, G.BUF: 1}

_KNOWN_TYPES = frozenset(_ARITY) | G.TWO_INPUT_TYPES

#: Gate kinds counted as "logic" (dead-gate / duplicate rules).
_LOGIC_TYPES = G.TWO_INPUT_TYPES | {G.NOT, G.BUF}


class LintContext:
    """Shared state the rules draw on (computed lazily, once)."""

    def __init__(self, netlist, specs=None, seed=0xB1DEC0DE):
        self.netlist = netlist
        #: Optional ``{output_name: ISF}`` specification intervals; the
        #: support-mismatch rule only runs when present.
        self.specs = specs or {}
        self.seed = seed
        self._reachable = None
        self._signatures = None
        self._signature_exact = None

    @property
    def reachable(self):
        """Node ids in some declared output's fan-in cone.

        Computed defensively (unlike ``Netlist.reachable_from_outputs``)
        because the netlist under lint may be corrupt: out-of-range
        output or fan-in ids are skipped here and reported by the
        ``undriven-output`` / ``topology`` rules.
        """
        if self._reachable is None:
            nl = self.netlist
            total = nl.num_nodes()
            seen = set()
            stack = [node for _name, node in nl.outputs
                     if 0 <= node < total]
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(f for f in nl.fanins[node]
                             if 0 <= f < total)
            self._reachable = seen
        return self._reachable

    def structurally_sound(self):
        """True when ids/arities/types allow simulation-based rules."""
        nl = self.netlist
        for node in range(nl.num_nodes()):
            gate_type = nl.types[node]
            if gate_type not in _KNOWN_TYPES:
                return False
            arity = _ARITY.get(gate_type, 2)
            fanins = nl.fanins[node]
            if len(fanins) != arity:
                return False
            if any(f < 0 or f >= node for f in fanins):
                return False
        return True

    @property
    def signatures(self):
        """Per-node simulation signatures (list indexed by node id).

        Exhaustive over all input assignments when the input count is
        small (exact functional signatures); otherwise 64 random
        patterns seeded from :attr:`seed`.  ``signature_exact`` records
        which mode was used.
        """
        if self._signatures is None:
            names = [self.netlist.names[n] for n in self.netlist.inputs]
            if len(names) <= EXHAUSTIVE_INPUT_LIMIT:
                values, width = exhaustive_patterns(names)
                self._signature_exact = True
            else:
                rng = random.Random(self.seed)
                values, width = random_patterns(names, SIGNATURE_BITS, rng)
                self._signature_exact = False
            self._signatures = simulate(self.netlist, values, width=width)
        return self._signatures

    @property
    def signature_exact(self):
        """Did :attr:`signatures` enumerate all assignments?"""
        self.signatures
        return self._signature_exact


# ---------------------------------------------------------------------
# Hard structural invariants (error severity)
# ---------------------------------------------------------------------
@rule("unknown-gate", Severity.ERROR)
def check_unknown_gate(ctx):
    """Every node's type must be a known gate type."""
    for node in range(ctx.netlist.num_nodes()):
        gate_type = ctx.netlist.types[node]
        if gate_type not in _KNOWN_TYPES:
            yield Finding("unknown-gate", Severity.ERROR,
                          "node %d has unknown gate type %r"
                          % (node, gate_type), nodes=(node,))


@rule("bad-arity", Severity.ERROR)
def check_bad_arity(ctx):
    """Fan-in count must match the gate type's arity."""
    for node in range(ctx.netlist.num_nodes()):
        gate_type = ctx.netlist.types[node]
        if gate_type not in _KNOWN_TYPES:
            continue  # reported by unknown-gate
        arity = _ARITY.get(gate_type, 2)
        fanins = ctx.netlist.fanins[node]
        if len(fanins) != arity:
            yield Finding("bad-arity", Severity.ERROR,
                          "node %d (%s) has %d fan-ins, expected %d"
                          % (node, gate_type, len(fanins), arity),
                          nodes=(node,))


@rule("topology", Severity.ERROR)
def check_topology(ctx):
    """Node ids must be topological: every fan-in id < the node's id."""
    for node in range(ctx.netlist.num_nodes()):
        for fanin in ctx.netlist.fanins[node]:
            if fanin >= node or fanin < 0:
                yield Finding(
                    "topology", Severity.ERROR,
                    "node %d references fan-in %d, violating the "
                    "topological-id invariant" % (node, fanin),
                    nodes=(node, fanin))


@rule("undriven-output", Severity.ERROR)
def check_undriven_output(ctx):
    """Every declared output must point at an existing node."""
    total = ctx.netlist.num_nodes()
    for name, node in ctx.netlist.outputs:
        if node < 0 or node >= total:
            yield Finding("undriven-output", Severity.ERROR,
                          "output %r points at nonexistent node %d"
                          % (name, node), output=name)


@rule("support-mismatch", Severity.ERROR, paper_ref="Theorems 3/4")
def check_support_mismatch(ctx):
    """An output cone may only read inputs in its specification's
    support — the decomposition never introduces foreign variables."""
    if not ctx.specs or not ctx.structurally_sound():
        return
    nl = ctx.netlist
    input_nodes = set(nl.inputs)
    for name, isf in ctx.specs.items():
        try:
            root = nl.output_node(name)
        except KeyError:
            yield Finding("support-mismatch", Severity.ERROR,
                          "specification names output %r but the "
                          "netlist does not declare it" % name,
                          output=name)
            continue
        cone = nl.reachable_from_outputs(outputs=[name])
        cone_inputs = {nl.names[n] for n in cone & input_nodes}
        mgr = isf.mgr
        allowed = {mgr.var_name(var)
                   for var in isf.structural_support()}
        foreign = sorted(cone_inputs - allowed)
        if foreign:
            yield Finding(
                "support-mismatch", Severity.ERROR,
                "output %r reads inputs outside its specification "
                "support: %s" % (name, ", ".join(foreign)),
                nodes=(root,), output=name,
                data={"foreign_inputs": foreign})


# ---------------------------------------------------------------------
# Missed simplifications (warning severity)
# ---------------------------------------------------------------------
@rule("dead-gate", Severity.WARNING)
def check_dead_gate(ctx):
    """Logic unreachable from every declared output is waste."""
    nl = ctx.netlist
    dead = [node for node in range(nl.num_nodes())
            if nl.types[node] in _LOGIC_TYPES
            and node not in ctx.reachable]
    if dead:
        yield Finding("dead-gate", Severity.WARNING,
                      "%d gate(s) unreachable from any output: %s"
                      % (len(dead), _id_list(dead)), nodes=dead)


@rule("double-negation", Severity.WARNING)
def check_double_negation(ctx):
    """NOT(NOT(x)) chains mean the builder's cancellation was bypassed."""
    nl = ctx.netlist
    for node in range(nl.num_nodes()):
        if nl.types[node] != G.NOT or node not in ctx.reachable:
            continue
        if len(nl.fanins[node]) != 1:
            continue  # reported by bad-arity
        inner = nl.fanins[node][0]
        if nl.types[inner] == G.NOT and len(nl.fanins[inner]) == 1:
            yield Finding("double-negation", Severity.WARNING,
                          "node %d is NOT(NOT(%d)) — double negation "
                          "was not cancelled"
                          % (node, nl.fanins[inner][0]),
                          nodes=(node, inner))


@rule("const-foldable", Severity.WARNING)
def check_const_foldable(ctx):
    """Gates with constant, equal, or complementary fan-ins fold away."""
    nl = ctx.netlist
    for node in range(nl.num_nodes()):
        gate_type = nl.types[node]
        if gate_type not in G.TWO_INPUT_TYPES or node not in ctx.reachable:
            continue
        if len(nl.fanins[node]) != 2:
            continue  # reported by bad-arity
        a, b = nl.fanins[node]
        if nl.is_constant(a) or nl.is_constant(b):
            reason = "a constant fan-in"
        elif a == b:
            reason = "equal fan-ins"
        elif ((nl.types[a] == G.NOT and tuple(nl.fanins[a]) == (b,))
              or (nl.types[b] == G.NOT and tuple(nl.fanins[b]) == (a,))):
            reason = "complementary fan-ins"
        else:
            continue
        yield Finding("const-foldable", Severity.WARNING,
                      "node %d (%s) has %s and should have been folded"
                      % (node, gate_type, reason), nodes=(node,))


@rule("structural-duplicate", Severity.WARNING)
def check_structural_duplicate(ctx):
    """Identical (type, fan-ins) gates mean structural hashing missed."""
    nl = ctx.netlist
    seen = {}
    for node in range(nl.num_nodes()):
        gate_type = nl.types[node]
        if gate_type not in _LOGIC_TYPES:
            continue
        fanins = nl.fanins[node]
        if gate_type in G.TWO_INPUT_TYPES:
            fanins = tuple(sorted(fanins))
        key = (gate_type, fanins)
        if key in seen:
            yield Finding("structural-duplicate", Severity.WARNING,
                          "node %d duplicates node %d (%s %s)"
                          % (node, seen[key], gate_type,
                             nl.fanins[node]),
                          nodes=(seen[key], node))
        else:
            seen[key] = node


@rule("functional-duplicate", Severity.WARNING, paper_ref="Section 6")
def check_functional_duplicate(ctx):
    """Gates computing the same function (by simulation signature)
    escaped both structural hashing and the Theorem 6 component cache."""
    if not ctx.structurally_sound():
        return
    nl = ctx.netlist
    groups = {}
    for node in range(nl.num_nodes()):
        # BUF nodes alias their fan-in by construction; skip them.
        if nl.types[node] not in _LOGIC_TYPES or nl.types[node] == G.BUF:
            continue
        if node not in ctx.reachable:
            continue
        groups.setdefault(ctx.signatures[node], []).append(node)
    method = ("exhaustive simulation" if ctx.signature_exact
              else "%d-bit random-simulation signature" % SIGNATURE_BITS)
    for signature, nodes in sorted(groups.items()):
        if len(nodes) < 2:
            continue
        yield Finding("functional-duplicate", Severity.WARNING,
                      "nodes %s compute the same function (%s)"
                      % (_id_list(nodes), method), nodes=nodes,
                      data={"exact": ctx.signature_exact})


# ---------------------------------------------------------------------
# Notable-but-legitimate structure (info severity)
# ---------------------------------------------------------------------
@rule("dangling-input", Severity.INFO)
def check_dangling_input(ctx):
    """Declared inputs no output cone ever reads."""
    nl = ctx.netlist
    for node in nl.inputs:
        if node not in ctx.reachable:
            yield Finding("dangling-input", Severity.INFO,
                          "input %r (node %d) feeds no output cone"
                          % (nl.names[node], node), nodes=(node,))


@rule("output-alias", Severity.INFO)
def check_output_alias(ctx):
    """Several output names driven by one node (legal, worth knowing)."""
    drivers = {}
    for name, node in ctx.netlist.outputs:
        drivers.setdefault(node, []).append(name)
    for node, names in sorted(drivers.items()):
        if len(names) > 1:
            yield Finding("output-alias", Severity.INFO,
                          "outputs %s all alias node %d"
                          % (", ".join(sorted(names)), node),
                          nodes=(node,))


def _id_list(nodes, limit=8):
    shown = ", ".join(str(n) for n in nodes[:limit])
    if len(nodes) > limit:
        shown += ", ... (%d more)" % (len(nodes) - limit)
    return shown


def lint_netlist(netlist, specs=None, rules=None, seed=0xB1DEC0DE):
    """Run the lint rules over *netlist*; returns a :class:`LintReport`.

    Parameters
    ----------
    specs:
        Optional ``{output_name: ISF}`` specification intervals;
        enables the support-mismatch rule (output names must match the
        netlist's declared outputs).
    rules:
        Optional iterable of rule ids to run (default: all registered).
    seed:
        Seed for the random-simulation signatures (large netlists).
    """
    if rules is None:
        selected = list(RULES.values())
    else:
        unknown = [rid for rid in rules if rid not in RULES]
        if unknown:
            raise ValueError("unknown lint rule(s): %s"
                             % ", ".join(sorted(unknown)))
        selected = [RULES[rid] for rid in RULES if rid in set(rules)]
    ctx = LintContext(netlist, specs=specs, seed=seed)
    findings = []
    for lint_rule in selected:
        findings.extend(lint_rule.run(ctx))
    return LintReport(findings,
                      rules_run=[r.rule_id for r in selected],
                      nodes_checked=netlist.num_nodes())
