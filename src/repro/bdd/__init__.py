"""A self-contained reduced-ordered-BDD package.

This is the reproduction's stand-in for the BuDDy package the paper
uses: unique-table canonicity, memoised operators, set quantification,
cube utilities, Minato-Morreale ISOP and sifting-based reordering.

Quick start::

    from repro.bdd import BDD

    mgr = BDD(["a", "b", "c"])
    a, b, c = mgr.fn_vars()
    f = (a & b) | ~c
    assert f(a=1, b=1, c=0)
"""

from repro.bdd.manager import BDD, BDDError
from repro.bdd.function import Function, fn_vars
from repro.bdd.node import FALSE, TRUE, TERMINAL_LEVEL, is_terminal
from repro.bdd.types import Edge, Level, NodeId, SuffixId, VarId
from repro.bdd.quantify import (exists, forall, and_exists, or_forall,
                                 exor_propagation)
from repro.bdd.cubes import (sat_count, pick_cube, pick_minterm,
                             cube_to_bdd, iter_cubes, iter_minterms)
from repro.bdd.isop import Cube, isop, cover_to_bdd, cover_literal_count
from repro.bdd.reorder import (swap_levels, sift, reorder_to,
                               move_var_to_level, live_size)
from repro.bdd.simplify import constrain, restrict, minimize
from repro.bdd.dump import to_dot, stats

__all__ = [
    "BDD", "BDDError", "Function", "fn_vars",
    "FALSE", "TRUE", "TERMINAL_LEVEL", "is_terminal",
    "Edge", "NodeId", "Level", "VarId", "SuffixId",
    "exists", "forall", "and_exists", "or_forall", "exor_propagation",
    "sat_count", "pick_cube", "pick_minterm", "cube_to_bdd",
    "iter_cubes", "iter_minterms",
    "Cube", "isop", "cover_to_bdd", "cover_literal_count",
    "swap_levels", "sift", "reorder_to", "move_var_to_level", "live_size",
    "constrain", "restrict", "minimize",
    "to_dot", "stats",
]
