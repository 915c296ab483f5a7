"""Tests for the incompletely-specified-function (ISF) abstraction."""

import pytest
from hypothesis import example, given, settings

from repro.bdd import BDD
from repro.boolfn import ISF, InconsistentISF, parse

from conftest import build_isf, isf_strategy, make_mgr


@pytest.fixture
def mgr():
    return BDD(["a", "b", "c"])


class TestConstruction:
    def test_overlapping_sets_rejected(self, mgr):
        a = mgr.fn_vars()[0]
        with pytest.raises(InconsistentISF):
            ISF(a, a)

    def test_requires_function_handles(self, mgr):
        with pytest.raises(TypeError):
            ISF(mgr.var("a"), mgr.nvar("a"))

    def test_managers_must_match(self, mgr):
        other = BDD(["a"])
        with pytest.raises(ValueError):
            ISF(mgr.fn_vars()[0], other.fn_false())

    def test_from_csf_has_no_dc(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF.from_csf(a & b)
        assert isf.is_completely_specified()
        assert isf.dc.is_false()

    def test_from_on_dc(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF.from_on_dc(a, a & b)   # overlap resolved toward DC
        assert isf.on == (a & ~b)
        assert isf.dc == (a & b)
        assert isf.off == ~a

    def test_from_interval(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF.from_interval(a & b, a | b)
        assert isf.on == (a & b)
        assert isf.off == ~(a | b)
        assert isf.dc == (a ^ b)


class TestCompatibility:
    def test_bounds_are_compatible(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF.from_interval(a & b, a | b)
        assert isf.is_compatible(a & b)
        assert isf.is_compatible(a | b)
        assert isf.is_compatible(a)
        assert isf.is_compatible(b)

    def test_outside_interval_rejected(self, mgr):
        a, b, c = mgr.fn_vars()
        isf = ISF.from_interval(a & b, a | b)
        assert not isf.is_compatible(c)
        assert not isf.is_compatible(~a)
        assert not isf.is_compatible(mgr.fn_true())

    def test_constant_compatibility(self, mgr):
        a = mgr.fn_vars()[0]
        assert ISF(mgr.fn_false(), a).is_constant_compatible() == 0
        assert ISF(a, mgr.fn_false()).is_constant_compatible() == 1
        assert ISF(a, ~a).is_constant_compatible() is None

    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(3))
    @example((0, 0))   # the all-don't-care interval
    def test_cover_is_always_compatible(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        cover = isf.cover()
        assert isf.is_compatible(cover)
        # An empty on-set needs no cube: its ISOP is constant 0.
        assert cover.is_false() == (on_tt == 0)


class TestTransforms:
    def test_complement_swaps_sets(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF.from_interval(a & b, a | b)
        comp = isf.complement()
        assert comp.on == isf.off
        assert comp.off == isf.on
        assert comp.dc == isf.dc

    def test_cofactor_both_sets(self, mgr):
        a, b, c = mgr.fn_vars()
        isf = ISF(a & b, ~a & c)
        cof = isf.cofactor("a", 1)
        assert cof.on == b
        assert cof.off.is_false()

    def test_restrict(self, mgr):
        a, b, c = mgr.fn_vars()
        isf = ISF(a & b & c, ~a)
        restricted = isf.restrict({"a": 1, "b": 1})
        assert restricted.on == c

    def test_structural_support(self, mgr):
        a, _b, c = mgr.fn_vars()
        isf = ISF(a, ~a & c)
        assert isf.structural_support() == (0, 2)


class TestComplementMemo:
    def test_complement_is_memoised(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF(a & b, ~a)
        assert isf.complement() is isf.complement()

    def test_round_trip_returns_the_same_instance(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf = ISF(a & b, ~a)
        assert isf.complement().complement() is isf

    def test_memoised_sibling_equals_a_fresh_complement(self, mgr):
        a, b, c = mgr.fn_vars()
        isf = ISF(a & b, ~a & c)
        assert isf.complement() == ISF(isf.off, isf.on)

    def test_memo_never_crosses_managers(self):
        # Two managers holding structurally identical ISFs: each memo
        # must wrap its own manager's Function handles, so the sibling
        # of one can never answer for the other.
        mgr1 = BDD(["a", "b"])
        mgr2 = BDD(["a", "b"])
        isf1 = ISF(mgr1.fn_vars()[0], ~mgr1.fn_vars()[0])
        isf2 = ISF(mgr2.fn_vars()[0], ~mgr2.fn_vars()[0])
        comp1, comp2 = isf1.complement(), isf2.complement()
        assert comp1 is not comp2
        assert comp1.mgr is mgr1
        assert comp2.mgr is mgr2


class TestDunder:
    def test_equality_and_hash(self, mgr):
        a, b, _c = mgr.fn_vars()
        isf1 = ISF(a & b, ~a)
        isf2 = ISF(b & a, ~a)
        assert isf1 == isf2
        assert hash(isf1) == hash(isf2)
        assert isf1 != ISF(a & b, ~(a & b))

    def test_repr_distinguishes_csf(self, mgr):
        a = mgr.fn_vars()[0]
        assert "CSF" in repr(ISF.from_csf(a))
        assert "ISF" in repr(ISF(a, mgr.fn_false()))
