"""Tests for Theorems 1 and 2: the decomposability checks."""

from hypothesis import given, settings

from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.decomp import (and_decomposable, derivative_isf,
                          exor_decomposable_single, or_decomposable,
                          weak_and_useful, weak_or_useful)

from conftest import (build_isf, isf_strategy, make_mgr, or_split_exists,
                      tt_strategy)
from repro.boolfn import from_truth_table


class TestOrDecomposability:
    def test_paper_fig3_example(self):
        # Fig. 3: F = OR(a | b, c | d) with XA = {c,d}, XB = {a,b}
        # (Karnaugh map with 1s grouped in rows and columns).
        mgr = BDD(["a", "b", "c", "d"])
        f = parse(mgr, "~a&~b | ~c&~d")
        isf = ISF.from_csf(f)
        assert or_decomposable(isf, ["c", "d"], ["a", "b"])
        assert or_decomposable(isf, ["a", "b"], ["c", "d"])

    def test_and_function_is_not_or_decomposable(self):
        mgr = BDD(["a", "b"])
        isf = ISF.from_csf(parse(mgr, "a & b"))
        assert not or_decomposable(isf, ["a"], ["b"])
        assert and_decomposable(isf, ["a"], ["b"])

    def test_or_function_is_or_decomposable(self):
        mgr = BDD(["a", "b"])
        isf = ISF.from_csf(parse(mgr, "a | b"))
        assert or_decomposable(isf, ["a"], ["b"])
        assert not and_decomposable(isf, ["a"], ["b"])

    def test_xor_is_neither_or_nor_and(self):
        mgr = BDD(["a", "b"])
        isf = ISF.from_csf(parse(mgr, "a ^ b"))
        assert not or_decomposable(isf, ["a"], ["b"])
        assert not and_decomposable(isf, ["a"], ["b"])

    def test_dont_cares_enable_decomposition(self):
        # The Fig. 3 right-hand example: with don't-cares filling the
        # blocking cells, the OR decomposition becomes possible.
        mgr = BDD(["a", "b"])
        blocked = ISF.from_csf(parse(mgr, "a ^ b"))
        assert not or_decomposable(blocked, ["a"], ["b"])
        freed = ISF(parse(mgr, "a ^ b"), parse(mgr, "~a & ~b"))
        assert or_decomposable(freed, ["a"], ["b"])

    def test_duality_of_or_and_and(self):
        mgr = make_mgr(4)
        f = mgr.fn(from_truth_table(mgr, [0, 1, 2, 3], 0x5BB7))
        isf = ISF.from_csf(f)
        comp = ISF.from_csf(~f)
        for xa, xb in (([0], [1]), ([0, 2], [1]), ([2], [3])):
            assert or_decomposable(isf, xa, xb) == \
                and_decomposable(comp, xa, xb)

    @settings(max_examples=25, deadline=None)
    @given(isf_strategy(3))
    def test_theorem1_matches_brute_force(self, pair):
        # Theorem 1 must agree with exhaustive search over all pairs
        # (fA over {x0,x2}, fB over {x1,x2}) for a 3-variable ISF with
        # XA={x0}, XB={x1}, XC={x2}.
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        got = or_decomposable(isf, [0], [1])
        assert got == or_split_exists(on_tt, off_tt)


class TestExorSingleton:
    def test_parity_decomposes_everywhere(self):
        mgr = make_mgr(4)
        f = mgr.fn_false()
        for i in range(4):
            f = f ^ mgr.fn(mgr.var(i))
        isf = ISF.from_csf(f)
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert exor_decomposable_single(isf, a, b)

    def test_and_rejected(self):
        mgr = BDD(["a", "b"])
        isf = ISF.from_csf(parse(mgr, "a & b"))
        assert not exor_decomposable_single(isf, "a", "b")

    def test_mux_is_exor_decomposable(self):
        # MUX(s; a, b) = (s & a) ^ (~s & b): a non-obvious positive.
        mgr = BDD(["s", "a", "b"])
        isf = ISF.from_csf(parse(mgr, "s & a | ~s & b"))
        assert exor_decomposable_single(isf, "a", "b")

    def test_majority_blocks_exor(self):
        # The s=1 cofactor of MAJ(s,a,b) is a|b, which has no XOR
        # split, so no (a, b) EXOR bi-decomposition exists.
        mgr = BDD(["s", "a", "b"])
        isf = ISF.from_csf(parse(mgr, "a&b | a&s | b&s"))
        assert not exor_decomposable_single(isf, "a", "b")

    def test_xor_with_shared_context(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "(a & c) ^ (b | c)"))
        assert exor_decomposable_single(isf, "a", "b")


class TestDerivative:
    @settings(max_examples=40, deadline=None)
    @given(tt_strategy(3))
    def test_csf_derivative_matches_cofactor_xor(self, table):
        mgr = make_mgr(3)
        f = mgr.fn(from_truth_table(mgr, [0, 1, 2], table))
        isf = ISF.from_csf(f)
        q_d, r_d = derivative_isf(isf, [0])
        expected = f.cofactor(0, 0) ^ f.cofactor(0, 1)
        assert q_d == expected
        assert r_d == ~expected

    def test_derivative_of_isf_is_interval(self):
        mgr = BDD(["a", "b"])
        isf = ISF(parse(mgr, "a & b"), parse(mgr, "~a & ~b"))
        q_d, r_d = derivative_isf(isf, ["a"])
        # Derivative must-sets never overlap.
        assert (q_d & r_d).is_false()
        # Some freedom remains (the DC at a=1,b=0 / a=0,b=1).
        assert not (q_d | r_d).is_true()


class TestWeakUsefulness:
    def test_weak_or_useful_definition(self):
        # Useful iff Q & ~exists(XA, R) is non-empty: some on-set rows
        # have no off-set sibling along XA and can migrate to B.
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a & b | c"))
        expected = not (isf.on - isf.off.exists("a")).is_false()
        assert weak_or_useful(isf, ["a"]) == expected
        # For this function, c=1 minterms have a full DC row along a.
        assert expected is True

    def test_weak_on_tautology_interval(self):
        mgr = BDD(["a", "b"])
        isf = ISF(parse(mgr, "a"), mgr.fn_false())
        # Off-set empty: exists(XA, R) = 0, so Q_A becomes empty —
        # maximally useful.
        assert weak_or_useful(isf, ["a"])
        # Dual: on-set empty.
        isf2 = ISF(mgr.fn_false(), parse(mgr, "a"))
        assert weak_and_useful(isf2, ["a"])

    def test_weak_useless_for_parity(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a ^ b ^ c"))
        for v in "abc":
            assert not weak_or_useful(isf, [v])
            assert not weak_and_useful(isf, [v])
