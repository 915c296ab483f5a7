"""Micro-benchmarks of the BDD substrate (the BuDDy stand-in).

The paper's CPU-time column ultimately measures BDD operations; these
benches keep the substrate honest: symmetric-function construction,
quantification (the workhorse of every decomposability check), ISOP
covers and sifting reordering.

Run:  pytest benchmarks/test_bdd_perf.py --benchmark-only
"""

from repro.bdd import BDD, exists, isop, live_size, sift
from repro.boolfn import weight_set


def _sym16():
    mgr = BDD(["x%d" % i for i in range(16)])
    node = weight_set(mgr, range(16), {4, 5, 6, 7, 12, 13, 14, 15})
    return mgr, node


def test_build_16sym(benchmark):
    def build():
        return _sym16()[1]
    node = benchmark(build)
    assert node > 1


def test_quantify_half_of_16sym(benchmark):
    mgr, node = _sym16()

    def smooth():
        return exists(mgr, list(range(8)), node)

    result = benchmark(smooth)
    assert result == mgr.true  # some weight is always reachable


def test_isop_9sym(benchmark):
    mgr = BDD(["x%d" % i for i in range(9)])
    node = weight_set(mgr, range(9), {3, 4, 5, 6})

    def cover():
        return isop(mgr, node, node)

    cover_node, cubes = benchmark(cover)
    assert cover_node == node
    assert len(cubes) > 50  # symmetric SOPs are large — the point


def test_apply_heavy_conjunction(benchmark):
    mgr = BDD(["x%d" % i for i in range(20)])

    def conjoin():
        acc = mgr.true
        for i in range(0, 20, 2):
            acc = mgr.and_(acc, mgr.or_(mgr.var(i), mgr.var(i + 1)))
        return acc

    result = benchmark(conjoin)
    assert mgr.node_count(result) > 10


def test_sifting_separated_operands(benchmark):
    def build_and_sift():
        mgr = BDD(["a%d" % i for i in range(6)]
                  + ["b%d" % i for i in range(6)])
        f = mgr.false
        for i in range(6):
            f = mgr.or_(f, mgr.and_(mgr.var("a%d" % i),
                                    mgr.var("b%d" % i)))
        before = live_size(mgr, [f])
        after = sift(mgr, [f])
        return before, after

    before, after = benchmark.pedantic(build_and_sift, rounds=1,
                                       iterations=1)
    assert after < before  # sifting must fix the separated order
