"""Two-input-gate netlist with structural hashing and constant folding.

This is the output data structure of the bi-decomposition (the paper's
"decomposition tree" that is written to BLIF).  Gates are created
through :meth:`Netlist.add_gate`, which:

* folds constants (``AND(x, 0) -> 0`` and friends),
* collapses trivial operands (``AND(x, x) -> x``, ``XOR(x, x) -> 0``),
* cancels double inversion,
* canonicalises commutative fan-ins, and
* structurally hashes, so identical gates are created once.

Node ids are integers in topological order (fan-ins always have smaller
ids), which every traversal in the package relies on.
"""

from repro.network import gates as G


class Netlist:
    """A multi-output combinational network of at-most-2-input gates."""

    def __init__(self, input_names=()):
        self.types = []      # gate type per node id
        self.fanins = []     # tuple of fan-in node ids per node id
        self.names = {}      # node id -> input name (inputs only)
        self.inputs = []     # node ids of primary inputs, in order
        self.outputs = []    # list of (name, node id)
        self._input_by_name = {}
        self._hash = {}      # (type, fanins) -> node id
        self._const = {}
        for name in input_names:
            self.add_input(name)

    # -- construction ---------------------------------------------------
    def _new_node(self, gate_type, fanins):
        node = len(self.types)
        self.types.append(gate_type)
        self.fanins.append(tuple(fanins))
        return node

    def add_input(self, name):
        """Create a primary input; returns its node id."""
        if name in self._input_by_name:
            raise ValueError("duplicate input name %r" % name)
        node = self._new_node(G.INPUT, ())
        self.names[node] = name
        self.inputs.append(node)
        self._input_by_name[name] = node
        return node

    def input_node(self, name):
        """Node id of the primary input called *name*."""
        return self._input_by_name[name]

    def constant(self, value):
        """Node id of the constant 0 or 1."""
        gate_type = G.CONST1 if value else G.CONST0
        node = self._const.get(gate_type)
        if node is None:
            node = self._new_node(gate_type, ())
            self._const[gate_type] = node
        return node

    def is_constant(self, node, value=None):
        """Is *node* a constant (optionally a specific one)?"""
        if value is None:
            return self.types[node] in (G.CONST0, G.CONST1)
        wanted = G.CONST1 if value else G.CONST0
        return self.types[node] == wanted

    def add_not(self, a):
        """Inverter with simplification (double negation, constants)."""
        gate_type = self.types[a]
        if gate_type == G.NOT:
            return self.fanins[a][0]
        if gate_type == G.CONST0:
            return self.constant(1)
        if gate_type == G.CONST1:
            return self.constant(0)
        return self._hashed(G.NOT, (a,))

    def add_gate(self, gate_type, a, b):
        """Two-input gate with folding, canonicalisation and hashing."""
        if gate_type not in G.TWO_INPUT_TYPES:
            raise ValueError("not a two-input gate type: %r" % gate_type)
        simplified = self._simplify(gate_type, a, b)
        if simplified is not None:
            return simplified
        if a > b:
            a, b = b, a
        return self._hashed(gate_type, (a, b))

    def _hashed(self, gate_type, fanins):
        key = (gate_type, fanins)
        node = self._hash.get(key)
        if node is None:
            node = self._new_node(gate_type, fanins)
            self._hash[key] = node
        return node

    def _simplify(self, gate_type, a, b):
        """Local simplification; returns a node id or None."""
        a_const = self._const_value(a)
        b_const = self._const_value(b)
        if b_const is not None and a_const is None:
            a, b = b, a
            a_const, b_const = b_const, None
        if a_const is not None:
            return self._fold_constant(gate_type, a_const, b, b_const)
        if a == b:
            if gate_type in (G.AND, G.OR):
                return a
            if gate_type in (G.NAND, G.NOR):
                return self.add_not(a)
            if gate_type == G.XOR:
                return self.constant(0)
            if gate_type == G.XNOR:
                return self.constant(1)
        if self._is_complement_pair(a, b):
            if gate_type == G.AND:
                return self.constant(0)
            if gate_type == G.NAND:
                return self.constant(1)
            if gate_type == G.OR:
                return self.constant(1)
            if gate_type == G.NOR:
                return self.constant(0)
            if gate_type == G.XOR:
                return self.constant(1)
            if gate_type == G.XNOR:
                return self.constant(0)
        return None

    def _fold_constant(self, gate_type, a_const, b, b_const):
        if b_const is not None:
            values = {(G.AND): a_const & b_const,
                      (G.OR): a_const | b_const,
                      (G.XOR): a_const ^ b_const,
                      (G.NAND): 1 - (a_const & b_const),
                      (G.NOR): 1 - (a_const | b_const),
                      (G.XNOR): 1 - (a_const ^ b_const)}
            return self.constant(values[gate_type])
        if gate_type == G.AND:
            return b if a_const else self.constant(0)
        if gate_type == G.OR:
            return self.constant(1) if a_const else b
        if gate_type == G.XOR:
            return self.add_not(b) if a_const else b
        if gate_type == G.NAND:
            return self.add_not(b) if a_const else self.constant(1)
        if gate_type == G.NOR:
            return self.constant(0) if a_const else self.add_not(b)
        if gate_type == G.XNOR:
            return b if a_const else self.add_not(b)
        raise AssertionError("unhandled gate type %r" % gate_type)

    def _const_value(self, node):
        if self.types[node] == G.CONST0:
            return 0
        if self.types[node] == G.CONST1:
            return 1
        return None

    def _is_complement_pair(self, a, b):
        return ((self.types[a] == G.NOT and self.fanins[a][0] == b)
                or (self.types[b] == G.NOT and self.fanins[b][0] == a))

    def add_raw_gate(self, gate_type, fanins):
        """Create a gate node verbatim: no folding, canonicalisation or
        hashing.

        This is the structural round-trip entry point — the BLIF lint
        reader uses it so that defects in a file (double negations,
        duplicate gates, constant-fed gates) survive into the netlist
        for ``repro lint`` to find, and tests use it to plant such
        defects.  Normal construction must go through
        :meth:`add_gate` / :meth:`add_not`, which keep the builder's
        invariants.
        """
        known = {G.NOT: 1, G.BUF: 1, G.CONST0: 0, G.CONST1: 0}
        fanins = tuple(fanins)
        if gate_type in G.TWO_INPUT_TYPES:
            expected = 2
        elif gate_type in known:
            expected = known[gate_type]
        else:
            raise ValueError("not a gate type: %r" % gate_type)
        if len(fanins) != expected:
            raise ValueError("%s takes %d fan-in(s), got %d"
                             % (gate_type, expected, len(fanins)))
        return self._new_node(gate_type, fanins)

    # -- convenience builders ---------------------------------------------
    def add_and(self, a, b):
        """``a & b``."""
        return self.add_gate(G.AND, a, b)

    def add_or(self, a, b):
        """``a | b``."""
        return self.add_gate(G.OR, a, b)

    def add_xor(self, a, b):
        """``a ^ b``."""
        return self.add_gate(G.XOR, a, b)

    def add_mux(self, sel, hi, lo):
        """``sel ? hi : lo`` out of three two-input gates."""
        return self.add_or(self.add_and(sel, hi),
                           self.add_and(self.add_not(sel), lo))

    def set_output(self, name, node):
        """Declare *node* as primary output *name*."""
        self.outputs.append((name, node))

    # -- queries -----------------------------------------------------------
    def num_nodes(self):
        """Total node count, including inputs and constants."""
        return len(self.types)

    def output_node(self, name):
        """Node id of the output called *name*."""
        for out_name, node in self.outputs:
            if out_name == name:
                return node
        raise KeyError("no output named %r" % name)

    def reachable_from_outputs(self, outputs=None):
        """Set of node ids in some output's transitive fan-in cone.

        *outputs* optionally restricts the roots to a subset of output
        names (the netlist lint walks one output's cone at a time).
        """
        seen = set()
        if outputs is None:
            stack = [node for _name, node in self.outputs]
        else:
            wanted = set(outputs)
            stack = [node for name, node in self.outputs if name in wanted]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.fanins[node])
        return seen

    def topological(self, restrict_to=None):
        """Node ids in topological order (ids are already topological)."""
        if restrict_to is None:
            return range(len(self.types))
        return sorted(restrict_to)

    def __repr__(self):
        return ("Netlist(inputs=%d, outputs=%d, nodes=%d)"
                % (len(self.inputs), len(self.outputs), len(self.types)))
