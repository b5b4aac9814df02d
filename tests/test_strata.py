"""Deformation strata: spectrum profiles, dimension counts, isolation verdicts."""

import numpy as np
import pytest

from extremalav.cmtypes import CmType, enumerate_cm_types
from extremalav.fp import PrimeContext
from extremalav.orbits import act, orbit_class, orbit_classes, stabilizer
from extremalav.strata import (
    SpectrumProfile,
    SumVerdict,
    classification_row,
    containing_strata,
    extremal_profile,
    is_isolated,
    is_simple,
    stabilizer_element_profile,
    stratum_dimension,
    sum_criterion,
)

SMALL_PRIMES = [3, 5, 7, 11, 13]


# ---------------------------------------------------------------------------
# SpectrumProfile


def test_profile_basic_properties():
    prof = SpectrumProfile(5, (0, 1, 1, 1, 1))
    assert prof.g == 4
    assert prof.r == 2


def test_profile_accepts_lists():
    assert SpectrumProfile(3, [1, 2, 1]).multiplicities == (1, 2, 1)


def test_profile_reads_numpy_integers_as_ints():
    prof = SpectrumProfile(np.int64(3), np.array([1, 2, 1]))
    assert prof == SpectrumProfile(3, (1, 2, 1))
    assert type(prof.q) is int and all(type(m) is int for m in prof.multiplicities)


@pytest.mark.parametrize(
    "q,mults",
    [
        (4, (0, 1, 1, 1)),     # q not prime
        (3, (0, 1)),           # wrong length
        (3, (0, -1, 1)),       # negative entry
        (5, (0, 1, 2, 2, 2)),  # n1+n4 = 3 but n2+n3 = 4
        (2, (1, 1)),           # q = 2: the -1 eigenspace is real
        (3, (True, 1, 1)),     # bool entry: would be written back as true
        (3.0, (0, 1, 1)),      # float q
        (3, (0, 1.0, 1)),      # float entry
    ],
)
def test_profile_rejects_malformed(q, mults):
    with pytest.raises(ValueError, match="inconsistent spectrum"):
        SpectrumProfile(q, mults)


# ---------------------------------------------------------------------------
# dimension formula


@pytest.mark.parametrize(
    "q,mults,dim",
    [
        (5, (1, 1, 1, 1, 1), 3),
        (3, (1, 1, 1), 2),
        (3, (0, 1, 2), 2),
        (3, (2, 2, 2), 7),
        (3, (0, 3, 3), 9),
        (3, (3, 3, 3), 15),
        (7, (0, 1, 0, 2, 1, 3, 2), 4),
    ],
)
def test_stratum_dimension(q, mults, dim):
    assert stratum_dimension(SpectrumProfile(q, mults)) == dim


def test_dimension_oracle_quadratic():
    """n0*(n0+1)/2 plus the products across conjugate pairs, recomputed inline."""
    for q in (3, 5, 7):
        for prof in _some_profiles(q):
            n = prof.multiplicities
            want = n[0] * (n[0] + 1) // 2 + sum(
                n[i] * n[q - i] for i in range(1, (q + 1) // 2)
            )
            assert stratum_dimension(prof) == want


def _some_profiles(q):
    out = []
    for r in range(4):
        for n0 in range(3):
            half = [(i % (r + 1)) for i in range(1, (q + 1) // 2)]
            mults = [n0] + half + [r - m for m in reversed(half)]
            out.append(SpectrumProfile(q, mults))
    return out


# ---------------------------------------------------------------------------
# extremal profiles and isolation


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_extremal_profiles_are_rigid(p):
    """Every CM type sits at a zero-dimensional point of its own stratum."""
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        prof = extremal_profile(cm)
        assert prof.q == p
        assert prof.multiplicities[0] == 0
        assert prof.g == ctx.g
        assert prof.r == 1
        assert stratum_dimension(prof) == 0
        # the profile is the indicator of membership
        assert all(
            prof.multiplicities[j] == (1 if j in cm.members else 0) for j in range(1, p)
        )


def test_isolation_p11():
    ctx = PrimeContext(11)
    verdicts = [is_isolated(c.canonical) for c in orbit_classes(ctx)]
    assert verdicts == [True, True, True, False]
    assert [is_simple(c.canonical) for c in orbit_classes(ctx)] == verdicts


@pytest.mark.parametrize("p", SMALL_PRIMES + [17, 19])
def test_isolated_iff_trivial_stabilizer(p):
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        cm = cls.canonical
        assert is_isolated(cm) == (cls.stabilizer.order == 1)
        assert is_simple(cm) == is_isolated(cm)


# ---------------------------------------------------------------------------
# sum criterion


@pytest.mark.parametrize("p", SMALL_PRIMES + [17, 19])
def test_sum_criterion_sound(p):
    """A nonzero member sum must always pin down a trivial stabilizer."""
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        verdict = sum_criterion(cm)
        if verdict is SumVerdict.GUARANTEED_TRIVIAL:
            assert sum(cm.members) % p != 0
            assert stabilizer(cm).order == 1
        else:
            assert verdict is SumVerdict.INCONCLUSIVE
            assert sum(cm.members) % p == 0


def test_first_half_interval_always_isolated():
    """{1..g} has member sum -1/2 mod p, hence trivial stabilizer, for all p."""
    for p in range(3, 200, 2):
        try:
            ctx = PrimeContext(p)
        except ValueError:
            continue
        cm = CmType(ctx, tuple(range(1, ctx.g + 1)))
        assert sum_criterion(cm) is SumVerdict.GUARANTEED_TRIVIAL
        assert is_isolated(cm)


# ---------------------------------------------------------------------------
# per-element profiles and containing strata


def test_stabilizer_element_profile_c4():
    ctx = PrimeContext(11)
    cm = CmType(ctx, (1, 3, 4, 5, 9))
    prof = stabilizer_element_profile(cm, 3)
    assert prof.q == 5
    assert prof.multiplicities == (1, 1, 1, 1, 1)
    assert stratum_dimension(prof) == 3


def test_stabilizer_element_profile_rejects():
    ctx = PrimeContext(11)
    cm = CmType(ctx, (1, 3, 4, 5, 9))
    with pytest.raises(ValueError):
        stabilizer_element_profile(cm, 1)  # identity carries no stratum
    with pytest.raises(ValueError):
        stabilizer_element_profile(cm, 2)  # does not stabilize
    ctx19 = PrimeContext(19)
    qr = CmType(ctx19, (1, 4, 5, 6, 7, 9, 11, 16, 17))
    with pytest.raises(ValueError):
        stabilizer_element_profile(qr, 4)  # order 9 is not prime
    with pytest.raises(ValueError, match="residue out of range"):
        stabilizer_element_profile(cm, 3.0)


def test_numpy_units_are_read_as_ints():
    ctx = PrimeContext(11)
    cm = CmType(ctx, (1, 3, 4, 5, 9))
    assert stabilizer_element_profile(cm, np.int64(3)) == stabilizer_element_profile(cm, 3)
    moved = act(np.int64(2), cm)
    assert moved == act(2, cm) and all(type(k) is int for k in moved.members)


def _order(p, k):
    """Number of distinct powers of k mod p."""
    return len({pow(k, e, p) for e in range(p - 1)})


def _cycle_lengths(p, u, members):
    """Lengths of the cycles of multiplication by u on the members."""
    remaining = set(members)
    lengths = []
    while remaining:
        s, length = min(remaining), 0
        while s in remaining:
            remaining.remove(s)
            s = u * s % p
            length += 1
        lengths.append(length)
    return lengths


def test_stabilizers_and_strata_match_bruteforce():
    """Stabilizers against the units that fix the type, and every stratum
    against the cycles of its witness theta on the members."""
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        ctx = PrimeContext(p)
        orders = set()
        for cls in orbit_classes(ctx):
            cm = cls.canonical
            fixers = tuple(k for k in range(1, p) if act(k, cm) == cm)
            stab = cls.stabilizer
            assert stab.elements == fixers
            assert stab.order == len(fixers)
            assert stabilizer(cm) == stab
            assert stab.generator == min(k for k in fixers if _order(p, k) == len(fixers))
            orders.add(stab.order)
            by_order = {}  # the smallest fixer of each order
            for k in fixers[1:]:
                by_order.setdefault(_order(p, k), k)
            expected = []
            for q in sorted(by_order):
                if all(q % d for d in range(2, q)):
                    theta = by_order[q]
                    lengths = _cycle_lengths(p, theta, cm.members)
                    assert set(lengths) == {q}
                    expected.append((q, theta, (len(lengths),) * q))
            reports = containing_strata(cm)
            assert [(r.q, r.theta, r.profile.multiplicities) for r in reports] == expected
            assert classification_row(cls)["containing_strata"] == [
                r.to_json() for r in reports
            ]
            for r in reports:
                assert stabilizer_element_profile(cm, r.theta) == r.profile
        if p == 31:
            assert orders == {1, 3, 5, 15}


def test_containing_strata_examples():
    ctx = PrimeContext(11)
    assert containing_strata(CmType(ctx, (1, 2, 3, 4, 5))) == []
    (rep,) = containing_strata(CmType(ctx, (1, 3, 4, 5, 9)))
    assert rep.to_json() == {
        "q": 5,
        "theta": 3,
        "multiplicities": [1, 1, 1, 1, 1],
        "dim": 3,
    }

    ctx13 = PrimeContext(13)
    (rep,) = containing_strata(CmType(ctx13, (1, 2, 3, 5, 6, 9)))
    assert (rep.q, rep.theta, rep.profile.multiplicities, rep.dim) == (
        3,
        3,
        (2, 2, 2),
        7,
    )

    ctx19 = PrimeContext(19)
    (rep,) = containing_strata(CmType(ctx19, (1, 4, 5, 6, 7, 9, 11, 16, 17)))
    assert rep.q == 3
    assert rep.theta == 7
    assert rep.profile.multiplicities == (3, 3, 3)
    assert rep.dim == 15


def test_classification_row_shape():
    ctx = PrimeContext(11)
    row = classification_row(orbit_class(CmType(ctx, (2, 4, 6, 8, 10))))
    assert list(row) == ["canonical", "orbit_size", "stabilizer", "stabilizer_order",
                         "isolated", "simple", "sum_mod_p", "containing_strata"]
    assert row["canonical"] == [1, 2, 3, 4, 5]
    assert row["orbit_size"] == 10
    assert row["stabilizer"] == [1]
    assert row["isolated"] is True
    assert row["simple"] is True
    assert row["sum_mod_p"] == 4
    assert row["stabilizer_order"] == 1
    assert row["containing_strata"] == []


def test_classification_row_starts_with_the_class_json():
    """The row repeats the class's JSON keys in one dict display; they must
    not drift apart from ``OrbitClass.to_json``."""
    for p in [5, 7, 11, 13, 17, 19]:
        for cls in orbit_classes(PrimeContext(p)):
            assert list(classification_row(cls).items())[:4] == list(cls.to_json().items())
