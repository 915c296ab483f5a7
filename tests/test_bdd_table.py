"""``native.Table`` behaves as the subset of ``dict`` the BDD kernel uses.

The unique tables, the AND / XOR computed tables and the exists memo
are ``Table`` objects when the C extension is loaded and dicts on the
fallback.  Node indices, counters and the differential tests' state
comparisons rely on the two agreeing on every result *and* on
iteration order, so random operation sequences run on both side by
side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import native

pytestmark = pytest.mark.skipif(
    not native.ACTIVE, reason="Table is dict without the C extension")

KEY_MAX = 2 ** 64 - 2

keys = st.one_of(st.integers(0, 40),
                 st.sampled_from([0, 1, KEY_MAX, KEY_MAX - 1, 2 ** 32,
                                  (2 ** 32 - 1) << 32]),
                 st.integers(0, KEY_MAX))
values = st.integers(0, 2 ** 64 - 1)

operations = st.lists(st.one_of(
    st.tuples(st.just("set"), keys, values),
    # Enough fresh keys to outgrow the table several times over.
    st.tuples(st.just("bulk"), st.integers(0, 2 ** 40),
              st.integers(1, 300), st.integers(1, 2 ** 20)),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("get_default"), keys, values),
    st.tuples(st.just("in"), keys),
    st.tuples(st.just("subscript"), keys),
    st.tuples(st.just("del"), keys),
    st.tuples(st.just("reinsert"), st.integers(0, 40), values),
    st.tuples(st.just("clear"))), max_size=80)


def _outcome(call):
    """The call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:    # compared by type across the two maps
        return type(exc)


def _apply(table, op):
    kind = op[0]
    if kind == "set":
        table[op[1]] = op[2]
        return None
    if kind == "bulk":
        _kind, base, count, stride = op
        for i in range(count):
            table[base + i * stride] = i
        return None
    if kind == "get":
        return table.get(op[1])
    if kind == "get_default":
        return table.get(op[1], op[2])
    if kind == "in":
        return op[1] in table, len(table)
    if kind == "subscript":
        return _outcome(lambda: table[op[1]])
    if kind == "del":
        def delete():
            del table[op[1]]
        return _outcome(delete)
    if kind == "reinsert":
        if op[1] in table:
            del table[op[1]]
        table[op[1]] = op[2]
        return None
    table.clear()
    return None


def _contents(table):
    return (len(table), list(table.items()), list(table.keys()),
            list(table.values()), list(table))


@settings(max_examples=150, deadline=None)
@given(operations)
def test_table_matches_dict(ops):
    """Same results, same ``items()`` / ``keys()`` / ``values()`` order."""
    table, reference = native.Table(), {}
    for op in ops:
        assert _apply(table, op) == _apply(reference, op), op
        assert len(table) == len(reference)
    assert _contents(table) == _contents(reference)


def test_overwrite_keeps_position_and_reinsert_moves_to_end():
    table = native.Table()
    for key in (5, 1, 9):
        table[key] = key
    table[1] = 100
    assert table.items() == [(5, 5), (1, 100), (9, 9)]
    del table[5]
    table[5] = 7
    assert table.items() == [(1, 100), (9, 9), (5, 7)]


def test_deletes_survive_rebuilds():
    """Tombstones are compacted away when the table rebuilds."""
    table, reference = native.Table(), {}
    for key in range(5000):
        table[key * 7919] = reference[key * 7919] = key
        if key % 3 == 0:
            del table[(key // 2) * 7919]
            del reference[(key // 2) * 7919]
    assert table.items() == list(reference.items())
    assert all(table[k] == v for k, v in reference.items())


@pytest.mark.parametrize("key", [-1, 2 ** 64 - 1, 2 ** 64, -2 ** 70])
def test_out_of_range_key(key):
    table = native.Table()
    with pytest.raises(OverflowError):
        table[key] = 1
    assert table.get(key) is None
    assert table.get(key, "default") == "default"
    assert key not in table
    with pytest.raises(KeyError):
        table[key]
    with pytest.raises(KeyError):
        del table[key]
    assert len(table) == 0


@pytest.mark.parametrize("key", ["1", 1.0, None, (1, 2)])
def test_non_int_key(key):
    table = native.Table()
    with pytest.raises(TypeError):
        table[key] = 1
    assert table.get(key) is None
    assert table.get(key, 3) == 3
    assert key not in table
    assert len(table) == 0


@pytest.mark.parametrize("value, error", [(-1, OverflowError),
                                          (2 ** 64, OverflowError),
                                          ("1", TypeError),
                                          (None, TypeError)])
def test_bad_value(value, error):
    table = native.Table()
    with pytest.raises(error):
        table[3] = value
    assert len(table) == 0


def test_extreme_keys_and_values_round_trip():
    table = native.Table()
    table[KEY_MAX] = 2 ** 64 - 1
    table[0] = 0
    assert table[KEY_MAX] == 2 ** 64 - 1
    assert table.items() == [(KEY_MAX, 2 ** 64 - 1), (0, 0)]
    table.clear()
    assert len(table) == 0 and table.items() == [] and not table
    table[1] = 2
    assert table.items() == [(1, 2)]
