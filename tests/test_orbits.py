"""Multiplicative orbits, stabilizers, and the closed-form class count."""

import random
from collections import Counter

import numpy as np
import pytest

from extremalav import orbits
from extremalav.cmtypes import CmType, enumerate_cm_types
from extremalav.fp import PrimeContext, element_order, is_prime, subgroup_generated
from extremalav.orbits import (
    OrbitClass,
    act,
    burnside_count,
    canonical_form,
    orbit_class,
    orbit_classes,
    stabilizer,
)

SMALL_PRIMES = [3, 5, 7, 11, 13]
LARGER_PRIMES = [17, 19, 23, 29]


def brute_fixed_count(ctx, k):
    """Oracle for the closed form: count CM types fixed by k, by enumeration."""
    return sum(1 for cm in enumerate_cm_types(ctx) if act(k, cm) == cm)


def test_act_example():
    ctx = PrimeContext(11)
    cm = CmType(ctx, (4, 5, 8, 9, 10))
    assert act(9, cm).members == (1, 2, 3, 4, 6)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_act_is_a_group_action(p):
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        assert act(1, cm) == cm
        for k in range(2, p):
            moved = act(k, cm)
            inv = pow(k, -1, p)
            assert act(inv, moved) == cm


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_canonical_form_constant_on_orbits(p):
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        rep = canonical_form(cm)
        assert all(canonical_form(act(k, cm)) == rep for k in range(1, p))
        # the representative is the lexicographic minimum of the orbit
        assert rep.members == min(act(k, cm).members for k in range(1, p))


def test_stabilizer_examples():
    ctx = PrimeContext(11)
    triv = stabilizer(CmType(ctx, (1, 2, 3, 4, 5)))
    assert triv.elements == (1,)
    assert triv.order == 1
    assert triv.generator == 1

    c4 = stabilizer(CmType(ctx, (1, 3, 4, 5, 9)))
    assert c4.elements == (1, 3, 4, 5, 9)
    assert c4.order == 5
    assert c4.generator == 3
    assert c4.to_json() == {"elements": [1, 3, 4, 5, 9], "order": 5, "generator": 3}


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_stabilizer_structure(p):
    """Stabilizers are cyclic subgroups that never contain -1."""
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        stab = stabilizer(cm)
        assert p - 1 not in stab.elements
        assert stab.elements == subgroup_generated(ctx, stab.generator)
        assert element_order(ctx, stab.generator) == stab.order
        assert all(act(u, cm) == cm for u in stab.elements)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_orbit_stabilizer_product(p):
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        assert cls.orbit_size * cls.stabilizer.order == p - 1


def test_orbit_classes_p11():
    ctx = PrimeContext(11)
    classes = orbit_classes(ctx)
    assert [c.canonical.members for c in classes] == [
        (1, 2, 3, 4, 5),
        (1, 2, 3, 4, 6),
        (1, 2, 3, 5, 7),
        (1, 3, 4, 5, 9),
    ]
    assert [c.orbit_size for c in classes] == [10, 10, 10, 2]
    assert [c.stabilizer.order for c in classes] == [1, 1, 1, 5]


def test_orbit_class_json_round():
    ctx = PrimeContext(7)
    doc = orbit_classes(ctx)[0].to_json()
    assert doc == {
        "canonical": [1, 2, 3],
        "orbit_size": 6,
        "stabilizer": [1],
        "stabilizer_order": 1,
    }


@pytest.mark.parametrize("p", SMALL_PRIMES + LARGER_PRIMES)
def test_orbits_partition_everything(p):
    ctx = PrimeContext(p)
    classes = orbit_classes(ctx)
    assert sum(c.orbit_size for c in classes) == 2 ** ctx.g
    reps = [c.canonical.members for c in classes]
    assert reps == sorted(reps)
    assert len(set(reps)) == len(reps)


@pytest.mark.parametrize(
    "p,count",
    [(3, 1), (5, 1), (7, 2), (11, 4), (13, 6), (17, 16), (19, 30), (23, 94), (29, 586),
     (31, 1096), (37, 7286), (41, 26216)],
)
def test_class_counts(p, count):
    ctx = PrimeContext(p)
    assert burnside_count(ctx) == count
    assert len(orbit_classes(ctx)) == count


@pytest.mark.parametrize("p", [17, 19, 37])
def test_sweep_agrees_with_single_type_answers(p):
    """Each class the sweep builds, stabilizer elements included, equals the
    class that the single-type answer gives for its canonical form."""
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        assert orbit_class(cls.canonical) == cls


@pytest.mark.parametrize("p", SMALL_PRIMES + LARGER_PRIMES[:-1])
def test_sweep_equals_bruteforce_reference(p):
    """Every class, in order, as grouping all 2**g CM types by their
    single-type canonical form gives it."""
    ctx = PrimeContext(p)
    sizes = Counter(canonical_form(cm) for cm in enumerate_cm_types(ctx))
    expected = [OrbitClass(rep, size, stabilizer(rep))
                for rep, size in sorted(sizes.items(), key=lambda item: item[0].members)]
    assert orbit_classes(ctx) == expected


@pytest.mark.parametrize("p", [43, 47, 53, 59, 61])
def test_word_translation_matches_act(p):
    """The sweep's byte tables translate indicator words as ``act`` does, up
    to the widest words (p = 61 fills all 8 bytes), beyond the primes a
    full sweep can be tested at."""
    ctx = PrimeContext(p)
    rng = random.Random(p)
    types = [CmType(ctx, [k if rng.random() < 0.5 else p - k for k in range(1, ctx.g + 1)])
             for _ in range(50)]
    words = np.array([sum(1 << (p - 1 - r) for r in cm.members) for cm in types],
                     dtype=np.uint64)
    assert orbits._members(ctx, words) == [cm.members for cm in types]
    for k in (2, 3, p - 2):
        moved = orbits._members(ctx, orbits._permute(orbits._translation(p, k), words))
        assert moved == [act(k, cm).members for cm in types]


def test_orbit_class_of_a_translate():
    ctx = PrimeContext(11)
    cls = orbit_class(CmType(ctx, (2, 6, 7, 8, 10)))  # 2 * (1, 3, 4, 5, 9)
    assert cls.canonical.members == (1, 3, 4, 5, 9)
    assert (cls.orbit_size, cls.stabilizer.elements, cls.stabilizer.generator) == (
        2, (1, 3, 4, 5, 9), 3)


def _coset_union(p, n, rng):
    """A CM type that is a union of cosets of the order-n subgroup, n odd:
    one coset from each pair {rH, -rH}, so it is fixed by all of H."""
    H = [x for x in range(1, p) if pow(x, n, p) == 1]
    members, seen = set(), set()
    for r in range(1, p):
        if r not in seen:
            coset = {r * x % p for x in H}
            seen |= coset | {p - y for y in coset}
            members |= coset if rng.random() < 0.5 else {p - y for y in coset}
    return tuple(members)


@pytest.mark.parametrize("p", [29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101])
def test_stabilizer_of_any_type_matches_bruteforce(p):
    """Seeded types, not only canonical ones: random types and translates of
    unions of cosets of every odd-order subgroup (nontrivial stabilizers),
    against the units that fix them through ``act``."""
    ctx = PrimeContext(p)
    g = ctx.g
    rng = random.Random(p)
    types = [tuple(k if rng.random() < 0.5 else p - k for k in range(1, g + 1)) for _ in range(4)]
    types += [_coset_union(p, n, rng) for n in range(3, g + 1, 2) if g % n == 0]
    canonical = 0
    for members in types:
        cm = act(rng.randrange(1, p), CmType(ctx, members))
        canonical += cm == canonical_form(cm)
        fixers = tuple(k for k in range(1, p) if act(k, cm) == cm)
        stab = stabilizer(cm)
        assert stab.elements == fixers
        assert stab.order == len(fixers)
        assert stab.generator == min(k for k in fixers if element_order(ctx, k) == len(fixers))
        assert orbit_class(cm).stabilizer == stab
    assert canonical < len(types)
    assert max(stabilizer(CmType(ctx, m)).order for m in types) > 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_closed_form_fixed_counts_against_enumeration(p):
    """The averaged fixed-point counts must reproduce the enumerated ones."""
    ctx = PrimeContext(p)
    total = sum(brute_fixed_count(ctx, k) for k in range(1, p))
    assert total % (p - 1) == 0
    assert total // (p - 1) == burnside_count(ctx)


def census(p):
    """Classes by stabilizer order, in closed form.  The order-n subgroup of
    (Z/p)^* fixes 2**(g/n) CM types for each odd n | g; E(n), the number
    whose stabilizer has order exactly n, is that minus E(d) for every odd
    d with n | d | g and d > n.  Each such orbit has (p - 1)/n types."""
    g = (p - 1) // 2
    odd = [n for n in range(1, g + 1, 2) if g % n == 0]
    exact, classes = {}, {}
    for n in reversed(odd):
        exact[n] = 2 ** (g // n) - sum(exact[d] for d in odd if d > n and d % n == 0)
        classes[n], rest = divmod(n * exact[n], p - 1)
        assert rest == 0, (p, n)
    return classes


@pytest.mark.parametrize("p", [p for p in range(3, 42, 2) if is_prime(p)])
def test_stabilizer_histogram_matches_the_census(p):
    ctx = PrimeContext(p)
    expected = census(p)
    assert Counter(cls.stabilizer.order for cls in orbit_classes(ctx)) == expected
    assert sum(expected.values()) == burnside_count(ctx)
