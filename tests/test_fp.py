import pytest

from extremalav.fp import PrimeContext, element_order, is_prime, subgroup_generated

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]


def test_is_prime_small_range():
    assert [n for n in range(100) if is_prime(n)] == PRIMES_BELOW_100


@pytest.mark.parametrize("n", [-7, -1, 0, 1])
def test_is_prime_nonpositive(n):
    assert not is_prime(n)


@pytest.mark.parametrize("p,g", [(3, 1), (5, 2), (7, 3), (11, 5), (13, 6), (199, 99)])
def test_context_genus(p, g):
    assert PrimeContext(p).g == g


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 21])
def test_context_rejects_nonprimes_and_two(p):
    with pytest.raises(ValueError):
        PrimeContext(p)


def test_check_residue():
    ctx = PrimeContext(11)
    assert ctx.check_residue(1) == 1
    assert ctx.check_residue(10) == 10
    for bad in (0, 11, -1, 12, True, False):
        with pytest.raises(ValueError):
            ctx.check_residue(bad)


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
