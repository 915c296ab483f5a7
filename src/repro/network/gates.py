"""Gate library and the paper's area/delay model.

Section 8 of the paper: "the ratio of area and delay of EXOR and NOR is
assumed to be 5/2 and 2.1/1.0 respectively".  We therefore model every
simple two-input gate (AND/OR/NAND/NOR) with area 2 and delay 1.0, and
the EXOR family with area 5 and delay 2.1.  Inverters get half a simple
gate; buffers, constants and primary inputs are free.
"""

# Gate type identifiers (strings keep netlist dumps readable).
INPUT = "INPUT"
CONST0 = "CONST0"
CONST1 = "CONST1"
BUF = "BUF"
NOT = "NOT"
AND = "AND"
OR = "OR"
NAND = "NAND"
NOR = "NOR"
XOR = "XOR"
XNOR = "XNOR"

#: All two-input gate types.
TWO_INPUT_TYPES = frozenset({AND, OR, NAND, NOR, XOR, XNOR})

#: The EXOR family (reported separately in the paper's tables).
EXOR_TYPES = frozenset({XOR, XNOR})

#: Area of each gate type (paper's relative units).
AREA = {
    INPUT: 0.0, CONST0: 0.0, CONST1: 0.0, BUF: 0.0,
    NOT: 1.0,
    AND: 2.0, OR: 2.0, NAND: 2.0, NOR: 2.0,
    XOR: 5.0, XNOR: 5.0,
}

#: Propagation delay of each gate type (paper's relative units).
DELAY = {
    INPUT: 0.0, CONST0: 0.0, CONST1: 0.0, BUF: 0.0,
    NOT: 0.5,
    AND: 1.0, OR: 1.0, NAND: 1.0, NOR: 1.0,
    XOR: 2.1, XNOR: 2.1,
}

#: Bitwise evaluators.  Two-input gates take (a, b, mask); one-input
#: gates take (a, mask); the mask implements bit-parallel NOT.
_EVAL2 = {
    AND: lambda a, b, m: a & b,
    OR: lambda a, b, m: a | b,
    NAND: lambda a, b, m: ~(a & b) & m,
    NOR: lambda a, b, m: ~(a | b) & m,
    XOR: lambda a, b, m: a ^ b,
    XNOR: lambda a, b, m: ~(a ^ b) & m,
}


def evaluate_gate(gate_type, fanin_values, mask):
    """Bit-parallel evaluation of one gate.

    *fanin_values* is a tuple of ints (packed simulation patterns) and
    *mask* limits the word width for the negating gates.
    """
    if gate_type in _EVAL2:
        a, b = fanin_values
        return _EVAL2[gate_type](a, b, mask)
    if gate_type == NOT:
        return ~fanin_values[0] & mask
    if gate_type == BUF:
        return fanin_values[0]
    if gate_type == CONST0:
        return 0
    if gate_type == CONST1:
        return mask
    raise ValueError("cannot evaluate gate type %r" % gate_type)


def dual(gate_type):
    """AND<->OR / NAND<->NOR dual of a gate type (XOR family is self-dual
    up to complement; returned unchanged)."""
    return {AND: OR, OR: AND, NAND: NOR, NOR: NAND}.get(gate_type, gate_type)

