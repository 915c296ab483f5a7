"""Tests for the shared decomposability-check context (CheckContext).

The context counts the checks and memoises the EXOR verdicts; every
projection goes straight to the kernel's exists memo.  Everything
memoised is a canonical BDD edge or a boolean derived from one, so
every check must agree with the brute-force truth-table oracles, replay
the same answer from a memo, and the memos must die with
``clear_caches()`` like the kernel's own computed tables.
"""

from hypothesis import given, settings

from repro.bdd import exists, forall, native
from repro.bdd.quantify import levels_token
from repro.decomp import CheckContext, bi_decompose
from repro.decomp import checks
from repro.decomp.derive import AND_GATE, EXOR_GATE, OR_GATE
from repro.decomp.exor import check_exor_bidecomp, exor_decomposable
from repro.decomp.grouping import find_initial_grouping, group_variables

from conftest import (brute_force, build_isf, exists_tt,
                      exor_split_exists, isf_strategy, make_mgr,
                      or_split_exists)


def _parity(mgr, variables):
    acc = mgr.false
    for v in variables:
        acc = mgr.xor(acc, mgr.var(v))
    return acc


def _managers(n):
    """A manager on the C loops (where they are compiled) and one held on
    the Python loops, with variables x0..x{n-1}."""
    c_mgr, py_mgr = make_mgr(n), make_mgr(n)
    native._python_loops(py_mgr)
    return c_mgr, py_mgr


def _quantify(mgr):
    stats = mgr.cache_stats()
    return stats["quantify_calls"], stats["quantify_steps"]


def _arena(mgr):
    return len(mgr._level), list(mgr._free)


class TestQuantificationCache:
    """The checks project through the kernel's exists memo, which
    answers a repeated ``exists`` / ``forall`` at the root: one call and
    one step, and no node."""

    def test_exists_cached_second_call_is_a_hit(self):
        for mgr in _managers(4):
            f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)), mgr.var(2))
            first = exists(mgr, [0, 2], f)
            calls, steps = _quantify(mgr)
            arena = _arena(mgr)
            second = exists(mgr, [2, 0], f)    # order must not matter
            assert second == first
            assert _quantify(mgr) == (calls + 1, steps + 1)
            assert _arena(mgr) == arena

    def test_empty_variable_set_is_identity_without_caching(self):
        for mgr in _managers(2):
            f = mgr.var(0)
            before = _quantify(mgr)
            assert exists(mgr, [], f) == f
            assert forall(mgr, [], f) == f
            assert _quantify(mgr) == before
            assert not getattr(mgr, "_cache_exists", None)

    def test_forall_shares_the_cache_through_complement_edges(self):
        for mgr in _managers(3):
            f = mgr.ite(mgr.var(0), mgr.var(1), mgr.var(2))
            got = forall(mgr, [1], f)
            calls, steps = _quantify(mgr)
            arena = _arena(mgr)
            # forall(V, f) walked exists(V, ~f); that exists and the
            # forall again are both root hits.
            assert exists(mgr, [1], mgr.not_(f)) == mgr.not_(got)
            assert forall(mgr, [1], f) == got
            assert _quantify(mgr) == (calls + 2, steps + 2)
            assert _arena(mgr) == arena

    def test_caches_are_dropped_by_clear_caches(self):
        for mgr in _managers(3):
            f = mgr.and_(mgr.var(0), mgr.var(1))
            exists(mgr, [0], f)
            assert mgr._cache_exists
            mgr.clear_caches()
            assert not mgr._cache_exists
            calls, steps = _quantify(mgr)
            exists(mgr, [0], f)
            # Recomputed, not replayed: the walk goes below the root.
            assert _quantify(mgr)[1] > steps + 1

    def test_variable_sets_are_interned_per_argument(self):
        # A verdict memo key is the set's interned level tuple, which the
        # quantifier itself uses.
        mgr = make_mgr(3)
        first = levels_token(mgr, ["x0", 2])
        assert first == (0, 2)
        assert levels_token(mgr, ["x0", 2]) is first
        assert levels_token(mgr, (2, 0)) == first
        assert levels_token(mgr, []) == ()

    def test_contexts_on_different_managers_are_isolated(self):
        mgr_a, mgr_b = make_mgr(3), make_mgr(3)
        f_a = mgr_a.and_(mgr_a.var(0), mgr_a.var(1))
        f_b = mgr_b.and_(mgr_b.var(0), mgr_b.var(1))
        assert f_a == f_b              # same packed edge value...
        exists(mgr_a, [0], f_a)
        exists(mgr_b, [0], f_b)
        # ...but each manager walks it: nothing leaked across.
        assert _quantify(mgr_a) == _quantify(mgr_b)
        assert _quantify(mgr_b)[1] > 1
        ctx_a, ctx_b = CheckContext(mgr_a), CheckContext(mgr_b)
        ctx_a.check_memo("exor1", f_a, f_a, [0], [1])[1](True)
        assert ctx_b.check_memo("exor1", f_b, f_b, [0], [1])[0] is None
        assert ctx_b.cache_hits == 0


class TestCheckMemo:
    def test_miss_store_hit_cycle(self):
        mgr = make_mgr(3)
        ctx = CheckContext(mgr)
        q, r = mgr.var(0), mgr.var(1)
        cached, store = ctx.check_memo("exor1", q, r, [0], [1])
        assert cached is None and store is not None
        assert store(True) is True
        cached, store = ctx.check_memo("exor1", q, r, [0], [1])
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
        _, store = ctx.check_memo("exor1", mgr.var(0), mgr.var(1),
                                  [0], [1])
        store(True)
        cached, _ = ctx.check_memo("exor", mgr.var(0), mgr.var(1),
                                   [0], [1])
        assert cached is None


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
                on_tt & ~exists_tt(off_tt, 3, xa))
            assert checks.weak_and_useful(isf, xa, ctx) == bool(
                off_tt & ~exists_tt(on_tt, 3, xa))
        assert ctx.cache_hits > 0

    @settings(max_examples=50, deadline=None)
    @given(isf_strategy(3))
    def test_derivative_isf_edges_agree(self, pair):
        on_tt, off_tt = pair
        mgr = make_mgr(3)
        isf = build_isf(mgr, [0, 1, 2], on_tt, off_tt)
        full = 0xFF
        for variables in ([0], [1], [0, 1], [1, 2]):
            q_d, r_d = checks.derivative_isf(isf, variables)
            assert brute_force(mgr, q_d.node, [0, 1, 2]) == (
                exists_tt(on_tt, 3, variables)
                & exists_tt(off_tt, 3, variables))
            # forall(V, f) = ~exists(V, ~f)
            assert brute_force(mgr, r_d.node, [0, 1, 2]) == full & ~(
                exists_tt(full & ~on_tt, 3, variables)
                & exists_tt(full & ~off_tt, 3, variables))
            again = checks.derivative_isf(isf, variables)
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


def _projection_log(monkeypatch):
    """Log every projection the checks make as ``(key, steps)``: the
    exists memo's view of the call (``forall(V, f)`` is
    ``exists(V, ~f)``) and the ``quantify_steps`` it cost."""
    log = []
    for name, flip in (("exists", 0), ("forall", 1)):
        def spy(mgr, variables, f, _real=getattr(checks, name), _flip=flip):
            before = _quantify(mgr)[1]
            result = _real(mgr, variables, f)
            log.append(((levels_token(mgr, variables), f ^ _flip),
                        _quantify(mgr)[1] - before))
            return result
        monkeypatch.setattr(checks, name, spy)
    return log


def _walks(log):
    """Distinct projections of *log*, after checking that every repeat
    was one root hit."""
    seen = set()
    for key, steps in log:
        if key in seen:
            assert steps == 1
        seen.add(key)
    return seen


class TestPairScanIsLinear:
    def test_or_pair_scan_issues_one_quantification_per_variable(self):
        # Parity is OR-bi-decomposable for no pair, so Fig. 5 probes
        # every one of the n*(n-1)/2 pairs — but each probe only needs
        # exists(x, R) for its two variables, so the scan walks exactly
        # n quantifications and every other call is a one-step root hit.
        n = 6
        pairs = n * (n - 1) // 2
        from repro.boolfn.isf import ISF
        for mgr, twin in zip(_managers(n), _managers(n)):
            isf = ISF.from_csf(mgr.fn(_parity(mgr, range(n))))
            twin_r = ISF.from_csf(twin.fn(_parity(twin, range(n)))).off.node
            for x in range(n):     # the scan's first-use order
                exists(twin, [x], twin_r)
            walks = _quantify(twin)[1]
            ctx = CheckContext(mgr)
            assert find_initial_grouping(isf, range(n), OR_GATE, ctx) is None
            assert ctx.check_calls == pairs
            assert _quantify(mgr) == (2 * pairs, walks + 2 * pairs - n)

    def test_exor_pair_scan_quantifications_are_linear(self, monkeypatch):
        # The Theorem 2 scan needs the four per-variable derivative
        # quantifications of Q and R plus one exists per partner; the
        # kernel memo keeps the walks O(n), not O(n^2).  Majority of
        # three overlapping AND pairs refuses EXOR everywhere.
        from repro.boolfn.isf import ISF
        log = _projection_log(monkeypatch)
        for mgr in _managers(3):
            del log[:]
            maj = mgr.or_(mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)),
                                  mgr.and_(mgr.var(0), mgr.var(2))),
                          mgr.and_(mgr.var(1), mgr.var(2)))
            isf = ISF.from_csf(mgr.fn(maj))
            ctx = CheckContext(mgr)
            assert find_initial_grouping(isf, range(3), EXOR_GATE,
                                         ctx) is None
            assert ctx.check_calls == 6       # ordered pairs
            assert _quantify(mgr) == (len(log), sum(s for _, s in log))
            assert len(log) == 6 * 5
            # Q and R are complements, so exists(x, Q)/forall(x, R) pair
            # up through complement edges: 2 walks per variable, plus
            # the per-pair exists(xb, R_D) probes — still
            # linear-plus-pairs, and far below the 30 calls.
            assert len(_walks(log)) <= 2 * 3 + 6

    def test_scan_early_exit_pays_nothing_extra(self):
        # Lazy projection: a scan that accepts its first pair must not
        # quantify over variables it never probed.
        from repro.boolfn.isf import ISF
        for mgr in _managers(5):
            f = mgr.or_(mgr.var(0), mgr.var(1))   # first pair decomposes
            isf = ISF.from_csf(mgr.fn(f))
            ctx = CheckContext(mgr)
            got = find_initial_grouping(isf, range(5), OR_GATE, ctx)
            assert got == (frozenset([0]), frozenset([1]))
            assert _quantify(mgr)[0] == 2


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
        samples = [(a & ~b, b & ~a)
                   for a in range(1, 65536, 4099)
                   for b in range(2, 65536, 5279)]
        for on_tt, off_tt in samples:
            isf = build_isf(mgr, [0, 1, 2, 3], on_tt, off_tt)
            if isf.is_completely_specified():
                continue
            for xa, xb in (([0, 1], [2, 3]), ([0, 2], [1, 3])):
                if not _set_derivative_filter(isf, xa, xb):
                    assert propagate_exor(isf, xa, xb) is None
