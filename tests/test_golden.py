"""Golden-result regression net.

The decomposition engine is fully deterministic (no wall-clock, no
unordered-set iteration in decision paths), so every benchmark's cost
metrics are reproducible bit-for-bit.  This test pins them: any change
to a heuristic, the cache, the grouping order or the cost model shows
up here as an explicit diff instead of silent quality drift.

Regenerate after an intentional change with::

    python - <<'PY'
    import json
    from repro.bench import get
    from repro.decomp import bi_decompose
    names = json.load(open("tests/golden_results.json"))
    out = {}
    for name in names:
        mgr, specs = get(name).build()
        r = bi_decompose(specs)
        st = r.netlist_stats()
        out[name] = {"gates": st.gates, "exors": st.exors,
                     "inverters": st.inverters, "area": st.area,
                     "cascades": st.cascades,
                     "delay": round(st.delay, 4),
                     "calls": r.stats.calls,
                     "cache_hits": r.stats.cache_hits,
                     "shannon": r.stats.shannon}
    json.dump(out, open("tests/golden_results.json", "w"),
              indent=2, sort_keys=True)
    PY
"""

import json
import os

import pytest

from repro.baselines import bds_like_synthesize, sis_like_synthesize
from repro.bench import get
from repro.decomp import bi_decompose

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_results.json")
with open(GOLDEN_PATH) as _handle:
    GOLDEN = json.load(_handle)

#: The slowest benchmarks are exercised by benchmarks/, not here.
FAST = sorted(name for name in GOLDEN
              if name not in ("alu4", "cordic", "16sym8", "cps"))


def _cost_columns(stats):
    return {"gates": stats.gates, "exors": stats.exors,
            "inverters": stats.inverters, "area": stats.area,
            "cascades": stats.cascades, "delay": round(stats.delay, 4)}


@pytest.mark.parametrize("name", FAST)
def test_golden_metrics_exact(name):
    expected = GOLDEN[name]
    mgr, specs = get(name).build()
    result = bi_decompose(specs)
    got = dict(_cost_columns(result.netlist_stats()),
               calls=result.stats.calls,
               cache_hits=result.stats.cache_hits,
               shannon=result.stats.shannon)
    assert got == expected, (
        "golden drift on %s — if intentional, regenerate "
        "tests/golden_results.json (see module docstring)" % name)


BASELINE_PATH = os.path.join(os.path.dirname(__file__),
                             "golden_baselines.json")
with open(BASELINE_PATH) as _handle:
    GOLDEN_BASELINES = json.load(_handle)


@pytest.mark.parametrize("name", FAST)
def test_baseline_golden_metrics_exact(name):
    """Pin the Table 2 (SIS-like) and Table 3 (BDS-like) comparators.

    ``tests/golden_baselines.json`` holds both flows' cost columns for
    the same benchmarks; regenerate it like the bidecomp file, calling
    ``sis_like_synthesize(specs)`` and ``bds_like_synthesize(specs)`` in
    place of ``bi_decompose``.
    """
    _mgr, specs = get(name).build()
    got = {"sis": _cost_columns(sis_like_synthesize(specs).netlist_stats()),
           "bds": _cost_columns(bds_like_synthesize(specs).netlist_stats())}
    assert got == GOLDEN_BASELINES[name], (
        "baseline drift on %s — if intentional, regenerate "
        "tests/golden_baselines.json" % name)


def test_golden_file_covers_table_benchmarks():
    from repro.bench import TABLE2, TABLE3
    missing = (set(TABLE2) | set(TABLE3)) - set(GOLDEN)
    assert not missing, missing
