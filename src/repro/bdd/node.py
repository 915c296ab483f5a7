"""Low-level edge conventions for the BDD package.

The manager stores *physical* nodes in flat parallel arrays indexed by
integer node indices, and functions are denoted by *edges*: packed
integers ``(index << 1) | complement_bit``.  A set complement bit means
the denoted function is the negation of the one stored at the index, so
negation is a single XOR and a function and its complement share one
physical node.

One terminal node exists in every manager, at index 0, representing the
constant 0.  Its two edges are the Boolean constants:

* ``FALSE = 0`` — the regular edge to the terminal (constant 0),
* ``TRUE = 1`` — the complemented edge to the terminal (constant 1).

Canonicity rule: the *low* (else) edge stored in a node is never
complemented.  Together with the unique table this makes edges strongly
canonical — two edges are equal iff they denote the same function —
while roughly halving the node count of complement-heavy workloads.

This module only holds the shared constants; the actual storage lives in
:class:`repro.bdd.manager.BDD`.
"""

from repro.bdd.types import Edge, Level

#: Edge of the constant-0 function (regular edge to the terminal).
FALSE: Edge = 0

#: Edge of the constant-1 function (complemented edge to the terminal).
TRUE: Edge = 1

#: Level assigned to the terminal node.  Always compares greater than
#: any variable level, so the terminal sinks below every ordering.
TERMINAL_LEVEL: Level = 1 << 30


def regular(edge: Edge) -> Edge:
    """Strip the complement bit: the positive-polarity edge of *edge*."""
    return edge & ~1
