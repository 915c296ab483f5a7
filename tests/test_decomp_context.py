"""Tests for the shared decomposability-check context (CheckContext).

The context is an exactness-preserving cache: everything it stores is
a canonical BDD edge or a boolean derived from one, so every check must
agree with the brute-force truth-table oracles, replay the same answer
from its memo, and the caches must die with ``clear_caches()`` like the
kernel's own computed tables.
"""

from hypothesis import given, settings

from repro.bdd import exists as kernel_exists
from repro.decomp import CheckContext, bi_decompose
from repro.decomp import checks
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import check_exor_bidecomp, exor_decomposable
from repro.decomp.grouping import find_initial_grouping, group_variables

from conftest import (brute_force, build_isf, exor_split_exists,
                      isf_strategy, make_mgr, or_split_exists)


def _parity(mgr, variables):
    acc = mgr.false
    for v in variables:
        acc = mgr.xor(acc, mgr.var(v))
    return acc


class TestQuantificationCache:
    def test_exists_cached_second_call_is_a_hit(self):
        mgr = make_mgr(4)
        ctx = CheckContext(mgr)
        f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)), mgr.var(2))
        first = ctx.exists(f, [0, 2])
        assert ctx.exists_calls == 1 and ctx.cache_hits == 0
        second = ctx.exists(f, [2, 0])     # order must not matter
        assert second == first
        assert ctx.exists_calls == 1 and ctx.cache_hits == 1
        assert first == kernel_exists(mgr, [0, 2], f)

    def test_empty_variable_set_is_identity_without_caching(self):
        mgr = make_mgr(2)
        ctx = CheckContext(mgr)
        f = mgr.var(0)
        assert ctx.exists(f, []) == f
        assert ctx.exists_calls == 0 and ctx.cache_hits == 0

    def test_forall_shares_the_cache_through_complement_edges(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        f = mgr.ite(mgr.var(0), mgr.var(1), mgr.var(2))
        got = ctx.forall(f, [1])
        from repro.bdd import forall as kernel_forall
        assert got == kernel_forall(mgr, [1], f)
        assert ctx.exists_calls == 1
        # forall(V, f) was served by exists(V, ~f); asking for that
        # exists directly must now be a pure cache hit.
        ctx.exists(mgr.not_(f), [1])
        assert ctx.exists_calls == 1 and ctx.cache_hits == 1

    def test_caches_are_dropped_by_clear_caches(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        f = mgr.and_(mgr.var(0), mgr.var(1))
        ctx.exists(f, [0])
        assert mgr._cache_ctx_exists and mgr._cache_ctx_varset
        mgr.clear_caches()
        assert not mgr._cache_ctx_exists and not mgr._cache_ctx_varset
        ctx.exists(f, [0])
        assert ctx.exists_calls == 2   # recomputed, not replayed

    def test_variable_sets_are_interned_per_argument(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        first = ctx._varset(["x0", 2])
        assert first == frozenset({0, 2})
        assert ctx._varset(["x0", 2]) is first
        assert ctx._varset((2, 0)) == first

    def test_contexts_on_different_managers_are_isolated(self):
        mgr_a, mgr_b = make_mgr(3), make_mgr(3)
        ctx_a, ctx_b = CheckContext(mgr_a), CheckContext(mgr_b)
        f_a = mgr_a.and_(mgr_a.var(0), mgr_a.var(1))
        f_b = mgr_b.and_(mgr_b.var(0), mgr_b.var(1))
        assert f_a == f_b              # same packed edge value...
        ctx_a.exists(f_a, [0])
        ctx_b.exists(f_b, [0])
        # ...but each manager misses once: nothing leaked across.
        assert ctx_a.exists_calls == 1 and ctx_b.exists_calls == 1
        assert ctx_b.cache_hits == 0


class TestCheckMemo:
    def test_miss_store_hit_cycle(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        q, r = mgr.var(0), mgr.var(1)
        cached, store = ctx.check_memo("or", q, r, [0], [1])
        assert cached is None and store is not None
        assert store(True) is True
        cached, store = ctx.check_memo("or", q, r, [0], [1])
        assert cached is True and store is None
        assert ctx.cache_hits == 1

    def test_false_verdicts_are_cached(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        _, store = ctx.check_memo("exor", mgr.var(0), mgr.var(1),
                                  [0], [1])
        store(False)
        cached, store = ctx.check_memo("exor", mgr.var(0), mgr.var(1),
                                       [0], [1])
        assert cached is False and store is None

    def test_kinds_are_separate_namespaces(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        _, store = ctx.check_memo("or", mgr.var(0), mgr.var(1), [0], [1])
        store(True)
        cached, _ = ctx.check_memo("exor1", mgr.var(0), mgr.var(1),
                                   [0], [1])
        assert cached is None


def _exists_tt(tt, n, xa):
    """Truth table of exists(XA, f) by enumerating XA-cofactor classes."""
    mask = sum(1 << v for v in xa)
    return sum(1 << i for i in range(1 << n)
               if any((tt >> j) & 1 for j in range(1 << n)
                      if (i ^ j) & ~mask == 0))


class TestCachedEqualsUncached:
    """Context verdicts equal the brute-force ∃-partition oracles, and a
    memo replay returns the first answer."""

    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_or_and_single_exor_checks_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        ctx = CheckContext(mgr)
        for xa, xb in (([0], [1]), ([0], [2]), ([1], [2]),
                       ([0, 1], [2]), ([0], [1, 2])):
            want_or = or_split_exists(on_tt, off_tt, 3, xa, xb)
            want_and = or_split_exists(off_tt, on_tt, 3, xa, xb)
            for _replay in range(2):
                assert checks.or_decomposable(isf, xa, xb, ctx) == want_or
                assert checks.and_decomposable(isf, xa, xb, ctx) == \
                    want_and
        for a, b in ((0, 1), (1, 0), (0, 2), (2, 1)):
            want = exor_split_exists(on_tt, off_tt, 3, [a], [b])
            for _replay in range(2):
                assert checks.exor_decomposable_single(isf, a, b, ctx) == \
                    want
        for xa in ([0], [1], [0, 2]):
            assert checks.weak_or_useful(isf, xa, ctx) == bool(
                on_tt & ~_exists_tt(off_tt, 3, xa))
            assert checks.weak_and_useful(isf, xa, ctx) == bool(
                off_tt & ~_exists_tt(on_tt, 3, xa))
        assert ctx.cache_hits > 0

    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_derivative_isf_edges_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        ctx = CheckContext(mgr)
        full = 0xFF
        for variables in ([0], [1], [0, 1], [1, 2]):
            q_d, r_d = checks.derivative_isf(isf, variables, ctx)
            assert brute_force(mgr, q_d.node, [0, 1, 2]) == (
                _exists_tt(on_tt, 3, variables)
                & _exists_tt(off_tt, 3, variables))
            # forall(V, f) = ~exists(V, ~f)
            assert brute_force(mgr, r_d.node, [0, 1, 2]) == full & ~(
                _exists_tt(full & ~on_tt, 3, variables)
                & _exists_tt(full & ~off_tt, 3, variables))
            again = checks.derivative_isf(isf, variables, ctx)
            assert (again[0].node, again[1].node) == (q_d.node, r_d.node)

    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(4))
    def test_full_exor_check_agrees_on_sets(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(4)
        isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
        ctx = CheckContext(mgr)
        for xa, xb in (([0], [1]), ([0, 1], [2, 3]), ([0, 2], [1]),
                       ([0, 1], [2])):
            want = exor_split_exists(on_tt, off_tt, 4, xa, xb)
            first = check_exor_bidecomp(isf, xa, xb, ctx)
            assert (first is not None) == want
            # Re-asking must replay the memo, with the same answer.
            hits = ctx.cache_hits
            replay = check_exor_bidecomp(isf, xa, xb, ctx)
            assert ctx.cache_hits == hits + 1
            if first is None:
                assert replay is None
            else:
                for got, was in zip(replay, first):
                    assert got.on.node == was.on.node
                    assert got.off.node == was.off.node
            assert exor_decomposable(isf, xa, xb, ctx) == want

    @settings(max_examples=40, deadline=None)
    @given(isf_strategy(3))
    def test_grouping_decisions_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        support = sorted(set(mgr.support(isf.on.node))
                         | set(mgr.support(isf.off.node)))
        if len(support) < 2:
            return
        ctx = CheckContext(mgr)
        oracles = {OR_GATE: or_split_exists,
                   AND_GATE: lambda on, off, *rest: or_split_exists(
                       off, on, *rest),
                   EXOR_GATE: exor_split_exists}
        for gate, oracle in oracles.items():
            grouping = group_variables(isf, support, gate, ctx)
            assert group_variables(isf, support, gate, ctx) == grouping
            if grouping is not None:
                xa, xb = (sorted(group) for group in grouping)
                assert oracle(on_tt, off_tt, 3, xa, xb)


class TestPairScanIsLinear:
    def test_or_pair_scan_issues_one_quantification_per_variable(self):
        # Parity is OR-bi-decomposable for no pair, so Fig. 5 probes
        # every one of the n*(n-1)/2 pairs — but each probe only needs
        # exists(x, R) for its two variables, so the context serves the
        # whole scan with exactly n kernel quantifications.
        n = 6
        mgr = make_mgr(n)
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(_parity(mgr, range(n))))
        ctx = CheckContext(mgr)
        assert find_initial_grouping(isf, range(n), OR_GATE, ctx) is None
        assert ctx.check_calls == n * (n - 1) // 2
        assert ctx.exists_calls == n

    def test_exor_pair_scan_quantifications_are_linear(self):
        # The Theorem 2 scan needs the four per-variable derivative
        # quantifications of Q and R plus one exists per partner; with
        # the cache that stays O(n), not O(n^2).  Majority of three
        # overlapping AND pairs refuses EXOR everywhere.
        mgr = make_mgr(3)
        maj = mgr.or_(mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)),
                              mgr.and_(mgr.var(0), mgr.var(2))),
                      mgr.and_(mgr.var(1), mgr.var(2)))
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(maj))
        ctx = CheckContext(mgr)
        assert find_initial_grouping(isf, range(3), EXOR_GATE, ctx) is None
        assert ctx.check_calls == 6       # ordered pairs
        # Q and R are complements, so exists(x, Q)/forall(x, R) pair up
        # through complement edges: 2 per variable, plus the per-pair
        # exists(xb, R_D) probes — still linear-plus-pairs, and far
        # below the 6 * 5 = 30 an uncached scan issues.
        assert ctx.exists_calls <= 2 * 3 + 6

    def test_scan_early_exit_pays_nothing_extra(self):
        # Lazy caching: a scan that accepts its first pair must not
        # quantify over variables it never probed.
        mgr = make_mgr(5)
        f = mgr.or_(mgr.var(0), mgr.var(1))   # first pair OR-decomposes
        from repro.boolfn.isf import ISF
        isf = ISF.from_csf(mgr.fn(f))
        ctx = CheckContext(mgr)
        got = find_initial_grouping(isf, range(5), OR_GATE, ctx)
        assert got == (frozenset([0]), frozenset([1]))
        assert ctx.exists_calls <= 2


class TestEngineIntegration:
    def test_counters_round_trip_through_as_dict(self):
        from repro.bench import get
        from repro.decomp.bidecomp import DecompositionStats
        mgr, specs = get("rd53").build()
        stats = bi_decompose(specs).stats
        assert stats.grouping_check_calls > 0
        assert stats.quantify_cache_hits > 0
        doc = stats.as_dict()
        for key in ("grouping_check_calls", "quantify_cache_hits"):
            assert key in doc
        again = DecompositionStats.from_dict(doc)
        assert again.grouping_check_calls == stats.grouping_check_calls
        assert again.quantify_cache_hits == stats.quantify_cache_hits


class TestSetDerivativeFilter:
    def test_filter_only_prunes_true_failures(self):
        # The set-lifted Theorem 2 condition is necessary: whenever it
        # refuses, the full Fig. 4 propagation must refuse too.  Sweep
        # every ISF shape over 4 points of a 4-variable space's
        # quotient by sampling truth tables.
        from repro.decomp.exor import _set_derivative_filter, propagate_exor
        mgr = make_mgr(4)
        ctx = CheckContext(mgr)
        samples = [(a & ~b, b & ~a)
                   for a in range(1, 65536, 4099)
                   for b in range(2, 65536, 5279)]
        for on_tt, off_tt in samples:
            isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
            if isf.is_completely_specified():
                continue
            for xa, xb in (([0, 1], [2, 3]), ([0, 2], [1, 3])):
                if not _set_derivative_filter(isf, xa, xb, ctx):
                    assert propagate_exor(isf, xa, xb) is None
