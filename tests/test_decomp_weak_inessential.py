"""Tests for weak-step selection and inessential-variable removal."""

import pytest

from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.decomp import (AND_GATE, OR_GATE, find_weak_grouping,
                          is_inessential, remove_inessential)
from repro.decomp.context import CheckContext


class TestWeakGrouping:
    def test_picks_single_variable(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a & b | c"))
        weak = find_weak_grouping(isf, isf.structural_support())
        assert weak is not None
        gate, xa = weak
        assert gate in (OR_GATE, AND_GATE)
        assert len(xa) == 1

    def test_none_for_parity(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a ^ b ^ c"))
        assert find_weak_grouping(isf, isf.structural_support()) is None

    def test_maximises_dc_gain(self):
        # F = a | (b & c & d): smoothing by "a" frees the most on-set
        # minterms for component A.
        mgr = BDD(["a", "b", "c", "d"])
        isf = ISF.from_csf(parse(mgr, "a | b & c & d"))
        weak = find_weak_grouping(isf, isf.structural_support())
        assert weak is not None
        gate, xa = weak
        best_var = next(iter(xa))
        # Verify no other single-variable weak OR step frees more.
        chosen_gain = (isf.on.sat_count()
                       - (isf.on & isf.off.exists(best_var)).sat_count())
        for v in isf.structural_support():
            gain = (isf.on.sat_count()
                    - (isf.on & isf.off.exists(v)).sat_count())
            assert chosen_gain >= gain or gate == AND_GATE

    def test_deterministic(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a & b | ~a & c"))
        support = isf.structural_support()
        assert find_weak_grouping(isf, support) == \
            find_weak_grouping(isf, support)

    @pytest.mark.parametrize("wrap", [iter, set], ids=["iterator", "set"])
    def test_support_is_read_once(self, wrap):
        # The single-variable pick and every growth round walk the
        # support: an iterator must give the growth the same candidates
        # (and so the same probes) as a tuple.
        probes = []
        for wrapped in (False, True):
            mgr = BDD(["a", "b", "c", "d"])
            isf = ISF.from_csf(parse(mgr, "a&b | b&c | c&d | a&d"))
            support = isf.structural_support()
            ctx = CheckContext(mgr)
            weak = find_weak_grouping(isf, wrap(support) if wrapped
                                      else support, max_vars=3, ctx=ctx)
            probes.append((weak, ctx.check_calls, ctx.cache_hits,
                           ctx.exists_calls))
        assert probes[0] == probes[1]


class TestInessential:
    def test_structurally_absent_variable_is_trivially_gone(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a & b"))
        assert isf.structural_support() == (0, 1)

    def test_dc_induced_inessential_variable(self):
        # on = a & b, off = ~a: variable b appears structurally but the
        # compatible function "a" ignores it.
        mgr = BDD(["a", "b"])
        isf = ISF(parse(mgr, "a & b"), parse(mgr, "~a"))
        assert is_inessential(isf, "b")
        reduced, removed = remove_inessential(isf)
        assert removed == (1,)
        assert reduced.structural_support() == (0,)
        # The smoothed interval must sit inside the original one:
        # any compatible function of the reduced ISF is compatible
        # with the original.
        f = reduced.cover()
        assert isf.is_compatible(f)

    def test_essential_variable_kept(self):
        mgr = BDD(["a", "b"])
        isf = ISF.from_csf(parse(mgr, "a & b"))
        assert not is_inessential(isf, "a")
        reduced, removed = remove_inessential(isf)
        assert removed == ()
        assert reduced == isf

    def test_cascading_removal(self):
        # With everything don't-care except one must-0 point, every
        # variable is inessential (constant 0 is compatible).
        mgr = BDD(["a", "b", "c"])
        isf = ISF(mgr.fn_false(), parse(mgr, "a & b & c"))
        reduced, removed = remove_inessential(isf)
        assert len(removed) == 3
        assert reduced.structural_support() == ()
        assert reduced.is_constant_compatible() == 0

    def test_csf_never_loses_variables(self):
        mgr = BDD(["a", "b", "c"])
        isf = ISF.from_csf(parse(mgr, "a ^ b & c"))
        _reduced, removed = remove_inessential(isf)
        assert removed == ()
