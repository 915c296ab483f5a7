"""``native.Column`` behaves as the subset of ``list`` the BDD kernel uses.

The node arena's ``_level``, ``_lo`` and ``_hi`` are ``Column`` arrays
of uint32 when the C extension is loaded and lists on the fallback.
Python code (the fallback loops, ``_mk``, reordering, GC, the Python
walks, the certifier) reads and writes them through the sequence
protocol, and the differential tests compare a C manager's arena with a
fallback manager's lists, so random operation sequences run on a
``Column`` and a ``list`` side by side.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, native

c_only = pytest.mark.skipif(
    not native.ACTIVE, reason="Column is list without the C extension")

ITEM_MAX = 2 ** 32 - 1

items = st.one_of(st.integers(0, 40),
                  st.sampled_from([0, 1, ITEM_MAX, ITEM_MAX - 1, 1 << 30,
                                   1 << 31]),
                  st.integers(0, ITEM_MAX))
indices = st.integers(-50, 50)

operations = st.lists(st.one_of(
    st.tuples(st.just("append"), items),
    # Enough appends to outgrow the array several times over.
    st.tuples(st.just("bulk"), items, st.integers(1, 300)),
    st.tuples(st.just("get"), indices),
    st.tuples(st.just("set"), indices, items),
    st.tuples(st.just("len")),
    st.tuples(st.just("iter"))), max_size=80)


def _outcome(call):
    """The call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:    # compared by type across the two arrays
        return type(exc)


def _apply(column, op):
    kind = op[0]
    if kind == "append":
        column.append(op[1])
        return None
    if kind == "bulk":
        _kind, base, count = op
        for i in range(count):
            column.append((base + i) % (ITEM_MAX + 1))
        return None
    if kind == "get":
        return _outcome(lambda: column[op[1]])
    if kind == "set":
        def store():
            column[op[1]] = op[2]
        return _outcome(store)
    if kind == "len":
        return len(column)
    return list(column)


@settings(max_examples=150, deadline=None)
@given(operations)
def test_column_matches_list(ops):
    """Same results, same items, and equal to each other both ways."""
    column, reference = native.Column(), []
    for op in ops:
        assert _apply(column, op) == _apply(reference, op), op
        assert len(column) == len(reference)
    assert list(column) == reference
    assert column == reference and reference == column
    assert not (column != reference or reference != column)
    assert column == native.Column(reference)


def test_constructor_and_indexing():
    column = native.Column((7, 0, ITEM_MAX))
    assert len(column) == 3
    assert column[0] == 7 and column[-1] == ITEM_MAX and column[-3] == 7
    column[-2] = 5
    assert list(column) == [7, 5, ITEM_MAX]
    assert native.Column() == [] and len(native.Column()) == 0


@c_only
@pytest.mark.parametrize("other, equal", [
    ([1, 2, 3], True), ([1, 2], False), ([1, 2, 3, 4], False),
    ([1, 2, 4], False), ([1.0, 2, 3], True), (["1", 2, 3], False),
    ([-1, 2, 3], False), ([2 ** 64 + 1, 2, 3], False)])
def test_cross_type_equality(other, equal):
    column = native.Column([1, 2, 3])
    assert (column == other) is equal and (other == column) is equal
    assert (column != other) is not equal and (other != column) is not equal
    assert (column == native.Column([1, 2, 3])) is True
    assert (column == native.Column([1, 2])) is False
    assert column != (1, 2, 3) and column != {1: 1}


@c_only
@pytest.mark.parametrize("value, error", [(-1, OverflowError),
                                          (2 ** 32, OverflowError),
                                          (2 ** 64, OverflowError),
                                          (-2 ** 70, OverflowError),
                                          ("1", TypeError),
                                          (1.0, TypeError),
                                          (None, TypeError)])
def test_bad_item(value, error):
    column = native.Column([4])
    with pytest.raises(error):
        column.append(value)
    with pytest.raises(error):
        column[0] = value
    with pytest.raises(error):
        native.Column([1, value])
    assert list(column) == [4]


@c_only
def test_bad_index():
    column = native.Column([4, 5])
    for index in (2, -3, 2 ** 70):
        with pytest.raises(IndexError):
            column[index]
        with pytest.raises(IndexError):
            column[index] = 1
    with pytest.raises(TypeError):
        column["0"]
    with pytest.raises(TypeError):
        del column[0]
    with pytest.raises(TypeError):
        hash(column)
    assert list(column) == [4, 5]


@c_only
def test_manager_arena_is_columns():
    """The arena rejects an edge past 32 bits, as a node index past 2**31
    would make one; the C walks reject such an operand before packing it
    into a 64-bit table key."""
    mgr = BDD(["a", "b"])
    assert all(type(column) is native.Column
               for column in (mgr._level, mgr._lo, mgr._hi))
    with pytest.raises(OverflowError):
        mgr._hi.append(2 ** 32)
    with pytest.raises(OverflowError):
        mgr.and_(mgr.var(0), 2 ** 32)
    assert mgr._level == [1 << 30, 0] and mgr._lo == [0, 0]
    assert mgr._hi == [0, 1]
