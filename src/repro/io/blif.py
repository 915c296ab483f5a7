"""BLIF reader/writer.

The paper's program writes its result "into a BLIF file"; we do the
same.  The writer serialises a :class:`repro.network.Netlist`; the
reader evaluates arbitrary ``.names`` tables (any fan-in width) into
BDDs, which is what the BDD-based verifier wants for checking files
produced by other tools.
"""

from repro.bdd.function import Function
from repro.bdd.manager import BDD
from repro.bdd.node import FALSE, TRUE
from repro.network import gates as G
from repro.network.netlist import Netlist


class BLIFError(ValueError):
    """Raised on malformed BLIF text."""


#: BLIF single-output cover for each gate type (list of "<inputs> 1").
_COVERS = {
    G.AND: ("11 1",),
    G.OR: ("1- 1", "-1 1"),
    G.XOR: ("10 1", "01 1"),
    G.NAND: ("0- 1", "-0 1"),
    G.NOR: ("00 1",),
    G.XNOR: ("11 1", "00 1"),
    G.NOT: ("0 1",),
    G.BUF: ("1 1",),
}


def write_blif(netlist, model="repro", path=None):
    """Serialise *netlist* as BLIF text (optionally also to *path*).

    Every primary input is declared; only gates in some output's fan-in
    cone are emitted.
    """
    names = _signal_names(netlist)
    lines = [".model %s" % model,
             ".inputs %s" % " ".join(netlist.names[n]
                                     for n in netlist.inputs),
             ".outputs %s" % " ".join(name for name, _n in netlist.outputs)]
    live = netlist.reachable_from_outputs()
    for node in netlist.topological(live):
        gate_type = netlist.types[node]
        if gate_type == G.INPUT:
            continue
        fanin_names = [names[f] for f in netlist.fanins[node]]
        lines.append(".names %s" % " ".join(fanin_names + [names[node]]))
        if gate_type == G.CONST1:
            lines.append("1")
        elif gate_type == G.CONST0:
            pass  # empty cover = constant 0
        else:
            lines.extend(_COVERS[gate_type])
    # Output aliases: tie each declared output name to its driver.
    for out_name, node in netlist.outputs:
        if names[node] != out_name:
            lines.append(".names %s %s" % (names[node], out_name))
            lines.append("1 1")
    lines.append(".end")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text


def _signal_names(netlist):
    reserved = set(netlist.names.values())
    reserved.update(name for name, _node in netlist.outputs)
    names = {}
    for node in range(netlist.num_nodes()):
        if netlist.types[node] == G.INPUT:
            names[node] = netlist.names[node]
        else:
            candidate = "n%d" % node
            while candidate in reserved:
                candidate += "_g"
            names[node] = candidate
    return names


def parse_blif(text, mgr=None):
    """Parse BLIF *text* into BDD output functions.

    Handles ``.names`` tables of any width (both on-set covers ending
    in 1 and off-set covers ending in 0).  Returns ``(mgr, outputs)``
    where *outputs* maps output name to :class:`Function`.  With *mgr*
    given, every ``.inputs`` name must already be one of its variables;
    an unknown one raises :class:`BLIFError`.
    """
    inputs, outputs, tables = _parse_structure(_logical_lines(text))
    if mgr is None:
        mgr = BDD(inputs)
    known = set(mgr.var_names)
    for name in inputs:
        if name not in known:
            raise BLIFError("BLIF input %r is not a variable of the "
                            "specification's manager" % name)
    values = {name: mgr.var(name) for name in inputs}
    for signals, rows in tables:
        *fanins, target = signals
        values[target] = _table_to_bdd(mgr, fanins, rows, values)
    missing = [name for name in outputs if name not in values]
    if missing:
        raise BLIFError("undriven outputs: %s" % missing)
    return mgr, {name: Function(mgr, values[name]) for name in outputs}


def _parse_structure(lines):
    """Split logical BLIF lines into ``(inputs, outputs, tables)``.

    *tables* is a list of ``(signal_names, cover_rows)`` where the last
    signal name is the table's target.
    """
    inputs = []
    outputs = []
    tables = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if line.startswith(".model") or line.startswith(".end"):
            continue
        if line.startswith(".inputs"):
            inputs.extend(line.split()[1:])
            continue
        if line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
            continue
        if line.startswith(".names"):
            signals = line.split()[1:]
            rows = []
            while index < len(lines) and not lines[index].startswith("."):
                rows.append(lines[index])
                index += 1
            tables.append((signals, rows))
            continue
        raise BLIFError("unsupported BLIF construct: %r" % line)
    return inputs, outputs, tables


#: Two-input truth tables (bit ``a | b << 1``) to gate types.
_TT2_TO_GATE = {
    0b1000: G.AND, 0b1110: G.OR, 0b0110: G.XOR,
    0b0111: G.NAND, 0b0001: G.NOR, 0b1001: G.XNOR,
}


def _cover_planes(fanin_count, rows):
    """Validate a ``.names`` cover; returns ``(planes, polarity)``.

    Both readers go through here: every row must be ``<plane> <out>``
    (just ``<out>`` for a constant table) with a plane of *fanin_count*
    symbols from ``0``/``1``/``-``, and one output symbol (``0`` or
    ``1``) shared by every row.  *polarity* is None for an empty cover.
    """
    planes = []
    polarity = None
    for row in rows:
        parts = row.split()
        if len(parts) == 1:
            plane, out_symbol = "", parts[0]
        elif len(parts) == 2:
            plane, out_symbol = parts
        else:
            raise BLIFError("bad cover row %r" % row)
        if len(plane) != fanin_count:
            raise BLIFError("cover row %r width mismatch" % row)
        if out_symbol not in ("0", "1"):
            raise BLIFError("bad cover output %r" % row)
        if plane.strip("01-"):
            raise BLIFError("bad cover symbol in %r" % row)
        if polarity is None:
            polarity = out_symbol
        elif polarity != out_symbol:
            raise BLIFError("mixed-polarity cover is not valid BLIF")
        planes.append(plane)
    return planes, polarity


def _cover_truth_table(fanin_count, rows):
    """Evaluate a ≤2-input cover into a truth-table int (bit per row)."""
    planes, polarity = _cover_planes(fanin_count, rows)
    on_bits = 0
    for plane in planes:
        for point in range(1 << fanin_count):
            matches = all(symbol == "-"
                          or int(symbol) == ((point >> k) & 1)
                          for k, symbol in enumerate(plane))
            if matches:
                on_bits |= 1 << point
    mask = (1 << (1 << fanin_count)) - 1
    if polarity == "0":
        on_bits = ~on_bits & mask
    return on_bits, mask


def _cover_gate_type(fanin_count, rows):
    """Map a ≤2-input cover to the gate type it computes.

    Returns one of the :mod:`repro.network.gates` identifiers, or
    raises :class:`BLIFError` when the table is not one of the
    two-input library gates (the lint reader only supports netlists in
    the shape this package writes).
    """
    if not rows:
        return G.CONST0
    if fanin_count == 0:
        table, _mask = _cover_truth_table(0, rows)
        return G.CONST1 if table else G.CONST0
    if fanin_count > 2:
        raise BLIFError("table with %d fan-ins is not a two-input "
                        "library gate" % fanin_count)
    table, mask = _cover_truth_table(fanin_count, rows)
    if table == 0:
        return G.CONST0
    if table == mask:
        return G.CONST1
    if fanin_count == 1:
        return G.BUF if table == 0b10 else G.NOT
    gate_type = _TT2_TO_GATE.get(table)
    if gate_type is None:
        raise BLIFError("cover %r is not a two-input library gate"
                        % (rows,))
    return gate_type


def parse_blif_netlist(text):
    """Parse BLIF *text* into a raw :class:`Netlist` (the lint reader).

    Every ``.names`` table becomes one gate node **verbatim** — no
    structural hashing, constant folding or double-negation
    cancellation — so structural defects present in the file survive
    into the netlist for ``repro lint`` to detect.  Tables must be the
    two-input library gates this package's writer emits (constants,
    BUF/NOT aliases, AND/OR/XOR/NAND/NOR/XNOR); anything wider raises
    :class:`BLIFError`.
    """
    inputs, outputs, tables = _parse_structure(_logical_lines(text))
    netlist = Netlist(inputs)
    values = {name: node for name, node in
              zip(inputs, netlist.inputs)}
    for signals, rows in tables:
        *fanins, target = signals
        missing = [name for name in fanins if name not in values]
        if missing:
            raise BLIFError("table uses undefined signals %s "
                            "(non-topological BLIF is not supported)"
                            % missing)
        gate_type = _cover_gate_type(len(fanins), rows)
        if gate_type in (G.CONST0, G.CONST1):
            values[target] = netlist.add_raw_gate(gate_type, ())
        else:
            values[target] = netlist.add_raw_gate(
                gate_type, [values[name] for name in fanins])
    undriven = [name for name in outputs if name not in values]
    if undriven:
        raise BLIFError("undriven outputs: %s" % undriven)
    for name in outputs:
        netlist.set_output(name, values[name])
    return netlist


def _logical_lines(text):
    """Strip comments, join continuation lines, drop blanks."""
    joined = []
    pending = ""
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            joined.append(line)
    return joined


def _table_to_bdd(mgr, fanins, rows, values):
    if not rows:
        return FALSE  # empty cover: constant 0
    missing = [name for name in fanins if name not in values]
    if missing:
        raise BLIFError("table uses undefined signals %s (non-topological "
                        "BLIF is not supported)" % missing)
    planes, polarity = _cover_planes(len(fanins), rows)
    on = FALSE
    for plane in planes:
        term = TRUE
        for name, symbol in zip(fanins, plane):
            if symbol == "1":
                term = mgr.and_(term, values[name])
            elif symbol == "0":
                term = mgr.and_(term, mgr.not_(values[name]))
        on = mgr.or_(on, term)
    return on if polarity == "1" else mgr.not_(on)


def netlist_from_functions(mgr, outputs):
    """Build a trivial netlist computing BDD *outputs* via MUX trees.

    Mostly a test helper: each BDD node becomes a 2:1 mux (3 gates).
    ``outputs`` maps output name to Function.
    """
    netlist = Netlist(mgr.var_names)
    memo = {}

    def build(node):
        if node == TRUE:
            return netlist.constant(1)
        if node == FALSE:
            return netlist.constant(0)
        cached = memo.get(node)
        if cached is not None:
            return cached
        var = mgr.top_var(node)
        sel = netlist.input_node(mgr.var_name(var))
        result = netlist.add_mux(sel, build(mgr.high(node)),
                                 build(mgr.low(node)))
        memo[node] = result
        return result

    for name, fn in outputs.items():
        netlist.set_output(name, build(fn.node))
    return netlist
