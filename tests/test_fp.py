from fractions import Fraction

import numpy as np
import pytest

from extremalav.fp import PrimeContext, element_order, is_int, is_prime, subgroup_generated

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


def test_is_prime_small_range():
    assert [n for n in range(100) if is_prime(n)] == PRIMES_BELOW_100


@pytest.mark.parametrize("n", [-7, -1, 0, 1])
def test_is_prime_nonpositive(n):
    assert not is_prime(n)


def test_is_prime_reads_integers_only():
    assert is_prime(np.int64(7))
    for n in (9.5, 7.0, True, np.float64(7)):
        assert not is_prime(n)


@pytest.mark.parametrize("p,g", [(3, 1), (5, 2), (7, 3), (11, 5), (13, 6), (199, 99)])
def test_context_genus(p, g):
    assert PrimeContext(p).g == g


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 21, 7.0, True, np.float64(7)])
def test_context_rejects_nonprimes_and_two(p):
    with pytest.raises(ValueError):
        PrimeContext(p)


def test_check_residue():
    ctx = PrimeContext(11)
    assert ctx.check_residue(1) == 1
    assert ctx.check_residue(10) == 10
    for bad in (0, 11, -1, 12, True, False, 3.0, np.float64(3), np.bool_(True), "3"):
        with pytest.raises(ValueError):
            ctx.check_residue(bad)


def test_is_int():
    for x in (5, -2**70, np.int64(5), np.uint8(5)):
        assert is_int(x) is True
    for x in (True, False, np.bool_(True), 5.0, np.float64(5), Fraction(5), "5", None):
        assert is_int(x) is False


def test_numpy_integers_are_read_as_python_ints():
    ctx = PrimeContext(np.int64(7))
    assert type(ctx.p) is int and ctx == PrimeContext(7)
    assert type(ctx.check_residue(np.int64(3))) is int
    assert all(type(k) is int for k in subgroup_generated(ctx, np.int64(2)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_element_order_lagrange(p):
    """Orders divide p-1, and k**order == 1 with no smaller witness."""
    ctx = PrimeContext(p)
    for k in range(1, p):
        d = element_order(ctx, k)
        assert (p - 1) % d == 0
        assert pow(k, d, p) == 1
        assert all(pow(k, e, p) != 1 for e in range(1, d))


def test_element_order_known_values():
    ctx = PrimeContext(11)
    assert element_order(ctx, 1) == 1
    assert element_order(ctx, 10) == 2
    assert element_order(ctx, 3) == 5
    assert element_order(ctx, 2) == 10


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_subgroup_generated_is_a_group(p):
    ctx = PrimeContext(p)
    for k in range(1, p):
        h = subgroup_generated(ctx, k)
        assert h == tuple(sorted(h))
        assert len(h) == element_order(ctx, k)
        assert 1 in h
        members = set(h)
        assert all(a * b % p in members for a in h for b in h)


def test_subgroup_generated_examples():
    ctx = PrimeContext(11)
    assert subgroup_generated(ctx, 1) == (1,)
    assert subgroup_generated(ctx, 10) == (1, 10)
    assert subgroup_generated(ctx, 3) == (1, 3, 4, 5, 9)
    assert subgroup_generated(ctx, 2) == tuple(range(1, 11))
