import pytest

from extremalav.cmtypes import CmType, enumerate_cm_types, is_cm_type
from extremalav.errors import EnumerationCapExceeded
from extremalav.fp import PrimeContext


def brute_cm_types(p):
    """Oracle: all g-subsets of 1..p-1 hitting each pair {k, p-k} exactly once."""
    from itertools import combinations

    g = (p - 1) // 2
    out = []
    for subset in combinations(range(1, p), g):
        if all((k in subset) != (p - k in subset) for k in range(1, p)):
            out.append(subset)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_is_cm_type_matches_bruteforce(p):
    from itertools import combinations

    ctx = PrimeContext(p)
    expected = set(brute_cm_types(p))
    for subset in combinations(range(1, p), ctx.g):
        assert is_cm_type(ctx, subset) == (subset in expected)


def test_is_cm_type_rejects_wrong_size_and_duplicates():
    ctx = PrimeContext(7)
    assert not is_cm_type(ctx, (1, 2))
    assert not is_cm_type(ctx, (1, 2, 3, 4))
    assert not is_cm_type(ctx, (1, 1, 2))
    assert not is_cm_type(ctx, (1, 2, 5))  # 2 and 5 are a conjugate pair


def test_cm_type_sorts_members():
    ctx = PrimeContext(11)
    assert CmType(ctx, (9, 1, 5, 3, 4)).members == (1, 3, 4, 5, 9)


def test_cm_type_rejects_invalid():
    ctx = PrimeContext(7)
    for bad in [(1, 2, 5), (1, 2), (0, 1, 2), (1, 6, 3)]:
        with pytest.raises(ValueError):
            CmType(ctx, bad)


def test_cm_type_json():
    ctx = PrimeContext(7)
    cm = CmType(ctx, (1, 2, 3))
    assert cm.to_json() == {"p": 7, "set": [1, 2, 3]}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_enumerate_count_and_order(p):
    ctx = PrimeContext(p)
    types = enumerate_cm_types(ctx)
    assert len(types) == 2 ** ctx.g
    as_tuples = [t.members for t in types]
    assert as_tuples == sorted(as_tuples)
    assert as_tuples == sorted(brute_cm_types(p))


def test_enumerate_endpoints():
    ctx = PrimeContext(11)
    types = enumerate_cm_types(ctx)
    assert types[0].members == (1, 2, 3, 4, 5)
    assert types[-1].members == (6, 7, 8, 9, 10)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded, match="enumeration too large"):
        enumerate_cm_types(PrimeContext(53))
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cm_types(PrimeContext(11), cap=16)
    # exactly at the cap is allowed
    assert len(enumerate_cm_types(PrimeContext(11), cap=32)) == 32
