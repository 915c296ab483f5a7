"""Unit tests for the BDD manager core: canonicity, operators, cofactors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, BDDError, FALSE, TRUE
from repro.boolfn import from_truth_table, to_truth_table

from conftest import brute_force, make_mgr, tt_strategy


class TestVariableManagement:
    def test_add_var_returns_indices_in_order(self):
        mgr = BDD()
        assert mgr.add_var("a") == 0
        assert mgr.add_var("b") == 1
        assert mgr.num_vars == 2
        assert mgr.var_names == ("a", "b")

    def test_default_names(self):
        mgr = BDD()
        mgr.add_var()
        mgr.add_var()
        assert mgr.var_names == ("x0", "x1")

    def test_duplicate_name_rejected(self):
        mgr = BDD(["a"])
        with pytest.raises(BDDError):
            mgr.add_var("a")

    def test_var_index_accepts_names_and_ints(self):
        mgr = BDD(["a", "b"])
        assert mgr.var_index("b") == 1
        assert mgr.var_index(0) == 0

    def test_unknown_variable_raises(self):
        mgr = BDD(["a"])
        with pytest.raises(BDDError):
            mgr.var_index("zz")
        with pytest.raises(BDDError):
            mgr.var_index(5)

    def test_initial_order_matches_creation(self):
        mgr = BDD(["a", "b", "c"])
        assert mgr.order() == (0, 1, 2)
        assert mgr.level_of_var("b") == 1
        assert mgr.var_at_level(2) == 2


class TestCanonicity:
    def test_terminals_are_fixed(self):
        mgr = BDD(["a"])
        assert mgr.false == FALSE
        assert mgr.true == TRUE

    def test_reduction_collapses_equal_children(self):
        mgr = BDD(["a", "b"])
        # ite(a, b, b) must be b, no node created for a.
        assert mgr.ite(mgr.var("a"), mgr.var("b"), mgr.var("b")) \
            == mgr.var("b")

    def test_same_function_same_node(self):
        mgr = BDD(["a", "b", "c"])
        f = mgr.or_(mgr.and_(mgr.var("a"), mgr.var("b")), mgr.var("c"))
        g = mgr.or_(mgr.var("c"), mgr.and_(mgr.var("b"), mgr.var("a")))
        assert f == g

    def test_demorgan(self):
        mgr = BDD(["a", "b"])
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.not_(mgr.and_(a, b)) == mgr.or_(mgr.not_(a), mgr.not_(b))
        assert mgr.nand(a, b) == mgr.not_(mgr.and_(a, b))
        assert mgr.nor(a, b) == mgr.not_(mgr.or_(a, b))
        assert mgr.xnor(a, b) == mgr.not_(mgr.xor(a, b))

    def test_double_negation(self):
        mgr = BDD(["a", "b"])
        f = mgr.xor(mgr.var("a"), mgr.var("b"))
        assert mgr.not_(mgr.not_(f)) == f


class TestOperatorsAgainstTruthTables:
    @settings(max_examples=60, deadline=None)
    @given(tt_strategy(3), tt_strategy(3))
    def test_binary_ops_match_oracle(self, tt_f, tt_g):
        mgr = make_mgr(3)
        variables = [0, 1, 2]
        f = from_truth_table(mgr, variables, tt_f)
        g = from_truth_table(mgr, variables, tt_g)
        mask = (1 << 8) - 1
        assert brute_force(mgr, mgr.and_(f, g), variables) == tt_f & tt_g
        assert brute_force(mgr, mgr.or_(f, g), variables) == tt_f | tt_g
        assert brute_force(mgr, mgr.xor(f, g), variables) == tt_f ^ tt_g
        assert brute_force(mgr, mgr.not_(f), variables) == ~tt_f & mask
        assert brute_force(mgr, mgr.diff(f, g), variables) == tt_f & ~tt_g
        assert brute_force(mgr, mgr.implies(f, g), variables) \
            == (~tt_f | tt_g) & mask

    @settings(max_examples=40, deadline=None)
    @given(tt_strategy(3), tt_strategy(3), tt_strategy(3))
    def test_ite_matches_oracle(self, tt_f, tt_g, tt_h):
        mgr = make_mgr(3)
        variables = [0, 1, 2]
        f = from_truth_table(mgr, variables, tt_f)
        g = from_truth_table(mgr, variables, tt_g)
        h = from_truth_table(mgr, variables, tt_h)
        expected = (tt_f & tt_g) | (~tt_f & tt_h) & ((1 << 8) - 1)
        assert brute_force(mgr, mgr.ite(f, g, h), variables) == expected


class TestCofactorComposeRename:
    def test_cofactor_by_name_and_value(self):
        mgr = BDD(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.cofactor(f, "a", 1) == mgr.var("b")
        assert mgr.cofactor(f, "a", 0) == FALSE

    def test_restrict_multiple(self):
        mgr = BDD(["a", "b", "c"])
        f = mgr.ite(mgr.var("a"), mgr.var("b"), mgr.var("c"))
        assert mgr.restrict(f, {"a": 1, "b": 0}) == FALSE
        assert mgr.restrict(f, {"a": 0}) == mgr.var("c")

    def test_compose_substitutes_function(self):
        mgr = BDD(["a", "b", "c"])
        f = mgr.xor(mgr.var("a"), mgr.var("b"))
        g = mgr.and_(mgr.var("b"), mgr.var("c"))
        composed = mgr.compose(f, "a", g)
        # (b & c) ^ b
        expected = mgr.xor(g, mgr.var("b"))
        assert composed == expected

    def test_compose_with_constant_is_cofactor(self):
        mgr = BDD(["a", "b"])
        f = mgr.or_(mgr.var("a"), mgr.var("b"))
        assert mgr.compose(f, "a", TRUE) == mgr.cofactor(f, "a", 1)

    def test_compose_on_deep_cube(self):
        """Composing at the bottom of a 1,500-level chain walks every
        level with its own stack."""
        n = 1500
        mgr = BDD(["x%d" % i for i in range(n + 1)])
        f = TRUE
        for v in reversed(range(n)):
            f = mgr.and_(mgr.var(v), f)
        last = n - 1
        assert mgr.compose(f, last, mgr.xor(mgr.var(0), mgr.var(1))) == FALSE
        assert mgr.compose(mgr.not_(f), last, TRUE) == mgr.not_(
            mgr.cofactor(f, last, 1))
        expected = mgr.var(n)
        for v in reversed(range(last)):
            expected = mgr.and_(mgr.var(v), expected)
        assert mgr.compose(f, last, mgr.var(n)) == expected

    def test_rename_disjoint(self):
        mgr = BDD(["a", "b", "p", "q"])
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))
        renamed = mgr.rename(f, {"a": "p", "b": "q"})
        assert renamed == mgr.and_(mgr.var("p"), mgr.not_(mgr.var("q")))

    def test_rename_swap_rejected(self):
        # A swap {a->b, b->a} has overlapping old/new sets and would be
        # order-dependent with sequential composition.
        mgr = BDD(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.not_(mgr.var("b")))
        with pytest.raises(BDDError):
            mgr.rename(f, {"a": "b", "b": "a"})

    def test_rename_onto_existing_var_collapses(self):
        # Disjoint old/new sets are fine even if the new variable
        # already occurs: a -> b turns a & b into b.
        mgr = BDD(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.rename(f, {"a": "b"}) == mgr.var("b")


class TestStructureQueries:
    def test_support(self):
        mgr = BDD(["a", "b", "c"])
        f = mgr.and_(mgr.var("a"), mgr.var("c"))
        assert mgr.support(f) == (0, 2)
        assert mgr.support_names(f) == ("a", "c")
        assert mgr.support(TRUE) == ()

    def test_support_ignores_cancelled_vars(self):
        mgr = BDD(["a", "b"])
        f = mgr.xor(mgr.var("b"), mgr.var("b"))
        assert mgr.support(f) == ()

    def test_node_count(self):
        mgr = BDD(["a", "b"])
        assert mgr.node_count(TRUE) == 1
        a = mgr.var("a")
        assert mgr.node_count(a) == 3  # node + two terminals
        f = mgr.and_(a, mgr.var("b"))
        assert mgr.node_count(f) == 4

    def test_eval_requires_full_assignment(self):
        mgr = BDD(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.eval(f, {"a": 1, "b": 1}) is True
        assert mgr.eval(f, {"a": 1, "b": 0}) is False
        with pytest.raises(BDDError):
            mgr.eval(f, {"a": 1})

    def test_top_var(self):
        mgr = BDD(["a", "b"])
        f = mgr.and_(mgr.var("a"), mgr.var("b"))
        assert mgr.top_var(f) == 0
        with pytest.raises(BDDError):
            mgr.top_var(TRUE)


class TestTruthTableRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(tt_strategy(4))
    def test_roundtrip(self, table):
        mgr = make_mgr(4)
        variables = [0, 1, 2, 3]
        node = from_truth_table(mgr, variables, table)
        assert to_truth_table(mgr, variables, node) == table

    def test_reject_out_of_scope_function(self):
        mgr = make_mgr(3)
        f = mgr.and_(mgr.var(0), mgr.var(2))
        with pytest.raises(ValueError):
            to_truth_table(mgr, [0, 1], f)

    def test_reject_oversized_table(self):
        mgr = make_mgr(2)
        with pytest.raises(ValueError):
            from_truth_table(mgr, [0, 1], 1 << 16)
