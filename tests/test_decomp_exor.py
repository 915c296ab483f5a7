"""Tests for the EXOR bi-decomposition check (Fig. 4 + CSF fast path)."""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.boolfn import ISF, parse
from repro.decomp import (EXOR_GATE, DecompositionConfig, bi_decompose,
                          check_exor_bidecomp, derive_exor_component_b,
                          exor_decomposable)
from repro.decomp.bidecomp import DecompositionEngine
from repro.decomp.exor import propagate_exor

from conftest import (build_isf, exor_split_exists, isf_strategy, make_mgr,
                      tt_strategy)
from repro.boolfn import from_truth_table


class TestAgainstOracle:
    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_fig4_matches_brute_force(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        got = check_exor_bidecomp(isf, [0], [1]) is not None
        assert got == exor_split_exists(on_tt, off_tt)

    @settings(max_examples=50, deadline=None)
    @given(tt_strategy(3))
    def test_csf_fast_path_matches_brute_force(self, table):
        mgr = make_mgr(3)
        f = from_truth_table(mgr, [0, 1, 2], table)
        isf = ISF.from_csf(mgr.fn(f))
        mask = (1 << 8) - 1
        got = check_exor_bidecomp(isf, [0], [1]) is not None
        assert got == exor_split_exists(table, ~table & mask)


    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(4))
    def test_propagation_alone_matches_brute_force_on_sets(self, pair):
        # The --check contracts re-prove EXOR steps through the bare
        # propagation (no memo, no Theorem 2 filter), so it must be
        # exact on its own, also for multi-variable groups.
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
        for xa, xb in (([0], [1]), ([0, 1], [2, 3]), ([0, 2], [1])):
            got = propagate_exor(isf, xa, xb) is not None
            assert got == exor_split_exists(on_tt, off_tt, 4, xa, xb)


class TestComponents:
    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_components_recompose(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        result = check_exor_bidecomp(isf, [0], [1])
        if result is None:
            return
        isf_a, isf_b = result
        f_a = isf_a.cover()
        assert 1 not in f_a.support()  # independent of XB
        isf_b2 = derive_exor_component_b(isf, f_a, [0])
        assert isf_b2 is not None, "B inconsistent after choosing f_A"
        f_b = isf_b2.cover()
        assert 0 not in f_b.support()  # independent of XA
        assert isf.is_compatible(f_a ^ f_b)

    def test_parity_components_are_parities(self):
        mgr = BDD(["a", "b", "c", "d"])
        f = parse(mgr, "a ^ b ^ c ^ d")
        isf = ISF.from_csf(f)
        result = check_exor_bidecomp(isf, ["a", "c"], ["b", "d"])
        assert result is not None
        isf_a, isf_b = result
        f_a = isf_a.cover()
        f_b = derive_exor_component_b(isf, f_a, ["a", "c"]).cover()
        assert isf.is_compatible(f_a ^ f_b)
        assert set(f_a.support_names()) <= {"a", "c"}
        assert set(f_b.support_names()) <= {"b", "d"}

    def test_and_of_xors(self):
        mgr = BDD(["a", "b", "c", "d"])
        f = parse(mgr, "(a ^ b) & (c ^ d)")
        isf = ISF.from_csf(f)
        # The top structure is AND, not EXOR, across ({a,b}, {c,d}).
        assert check_exor_bidecomp(isf, ["a", "b"], ["c", "d"]) is None
        # But it IS EXOR-decomposable... nowhere: check a few splits.
        assert check_exor_bidecomp(isf, ["a"], ["c"]) is None

    def test_xor_of_shared_context(self):
        mgr = BDD(["a", "b", "c"])
        f = parse(mgr, "(a & c) ^ (b | ~c)")
        isf = ISF.from_csf(f)
        result = check_exor_bidecomp(isf, ["a"], ["b"])
        assert result is not None
        isf_a, isf_b = result
        f_a = isf_a.cover()
        f_b = derive_exor_component_b(isf, f_a, ["a"]).cover()
        assert (f_a ^ f_b) == f


class TestPrefilter:
    def test_isf_path_still_exact(self):
        # exor_decomposable must agree with check_exor_bidecomp on ISFs
        # (the pairwise prefilter is only a necessary condition).
        mgr = make_mgr(3)
        for on_tt, off_tt in [(0b10010110, 0b01101001),
                              (0b1000, 0b0110), (0b0, 0b1),
                              (0b10000001, 0b01000010)]:
            isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
            assert exor_decomposable(isf, [0], [1]) == \
                (check_exor_bidecomp(isf, [0], [1]) is not None)


@st.composite
def set_order_cases(draw):
    """``(n, on_tt, off_tt, xa, xb)``: an interval over 3-5 variables and
    two disjoint non-empty variable sets."""
    n = draw(st.integers(min_value=3, max_value=5))
    on_tt, off_tt = draw(isf_strategy(n))
    perm = draw(st.permutations(range(n)))
    size_a = draw(st.integers(min_value=1, max_value=n - 1))
    size_b = draw(st.integers(min_value=1, max_value=n - size_a))
    return n, on_tt, off_tt, perm[:size_a], perm[size_a:size_a + size_b]


def _edges(isf):
    return isf.on.node, isf.off.node


class TestSetOrder:
    """Fig. 4 seeds component A, so swapping XA and XB keeps the verdict
    but in general not the component intervals (DESIGN.md section 9):
    the engine must take A from the ``(XA, XB)`` propagation, which is
    why its re-run cannot read a verdict memoised in the other order."""

    @settings(max_examples=150, deadline=None)
    @given(set_order_cases())
    def test_verdict_is_symmetric_in_the_sets(self, case):
        n, on_tt, off_tt, xa, xb = case
        mgr = make_mgr(n)
        isf = build_isf(mgr, list(range(n)), on_tt, off_tt)
        forward = propagate_exor(isf, xa, xb)
        assert (forward is None) == (propagate_exor(isf, xb, xa) is None)
        assert (forward is None) == (check_exor_bidecomp(isf, xb, xa)
                                     is None)

    def test_engine_takes_component_a_from_the_xa_xb_run(self,
                                                          monkeypatch):
        # An EXOR-only run on a 4-variable interval with don't-cares
        # whose top step is EXOR with XA = {x0, x2}, XB = {x1, x3}; its
        # (XB, XA) propagation gives component A another interval.
        steps = []

        def on_step(self, isf, support, gate, xa, xb, isf_a):
            if gate == EXOR_GATE:
                steps.append((_edges(isf_a),
                              _edges(propagate_exor(isf, xa, xb)[0]),
                              _edges(propagate_exor(isf, xb, xa)[1])))
        monkeypatch.setattr(DecompositionEngine, "_on_step", on_step)
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], 38565, 26952)
        bi_decompose({"f": isf}, config=DecompositionConfig(
            use_or=False, use_and=False, use_weak=False))
        assert steps
        for taken, forward, _swapped in steps:
            assert taken == forward
        assert steps[0][2] != steps[0][0]
