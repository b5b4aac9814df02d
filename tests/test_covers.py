"""Character decomposition of differentials on cyclic covers of the line."""

from itertools import combinations_with_replacement

import pytest

from extremalav.covers import (
    CyclicCoverSpec,
    _closed_form_multiplicity,
    cover_genus,
    cw_spectrum,
    spectrum_class,
    spectrum_support,
)
from extremalav.fp import PrimeContext

from cover_reference import bruteforce_multiplicity


def spec(p, exps):
    return CyclicCoverSpec(PrimeContext(p), exps)


# ---------------------------------------------------------------------------
# branch data validation


def test_balancing_appends_missing_exponent():
    s = spec(11, (2, 8))
    assert s.exponents == (2, 8, 1)
    assert s.branch_count == 3
    # already balanced: nothing appended
    assert spec(11, (2, 8, 1)).exponents == (2, 8, 1)
    assert spec(5, (1, 2, 3, 4)).exponents == (1, 2, 3, 4)


def test_balanced_data_always_sums_to_zero():
    for p in (5, 7, 11):
        for exps in combinations_with_replacement(range(1, p), 3):
            s = spec(p, exps)
            assert sum(s.exponents) % p == 0


def test_rejects_bad_exponents():
    with pytest.raises(ValueError):
        spec(7, (0, 1, 6))
    with pytest.raises(ValueError):
        spec(7, (1, 2, 7))
    with pytest.raises(ValueError):
        spec(7, (1, 2, -3))


def test_rejects_too_few_branch_points():
    with pytest.raises(ValueError, match="at least 3 branch points"):
        spec(7, (3, 4))  # balanced with only two points
    with pytest.raises(ValueError, match="at least 3 branch points"):
        spec(7, (2,))  # balances to (2, 5)


@pytest.mark.parametrize(
    "p,exps,genus",
    [(11, (2, 8, 1), 5), (7, (1, 2, 4), 3), (5, (1, 2, 3, 4), 4), (7, (1, 1, 1, 1), 9)],
)
def test_cover_genus(p, exps, genus):
    assert cover_genus(spec(p, exps)) == genus


# ---------------------------------------------------------------------------
# spectra: frozen examples


@pytest.mark.parametrize(
    "p,exps,spectrum",
    [
        (11, (2, 8, 1), {4: 1, 5: 1, 8: 1, 9: 1, 10: 1}),
        (11, (1, 1, 9), {6: 1, 7: 1, 8: 1, 9: 1, 10: 1}),
        (7, (1, 2, 4), {3: 1, 5: 1, 6: 1}),
        (5, (1, 1, 1), {2: 1, 3: 1, 4: 2}),
        (7, (1, 1, 1, 1), {2: 1, 3: 1, 4: 2, 5: 2, 6: 3}),
        (7, (1, 2, 3, 4), {1: 1, 2: 1, 3: 2, 4: 1, 5: 2, 6: 2}),
        (11, (1, 1, 2, 3), {2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 2, 8: 2, 9: 2, 10: 3}),
        (5, (1, 2, 3, 4), {1: 1, 2: 1, 3: 1, 4: 1}),
    ],
)
def test_cw_spectrum_frozen(p, exps, spectrum):
    assert cw_spectrum(spec(p, exps)) == spectrum


def test_spectrum_support():
    assert spectrum_support({4: 1, 10: 1, 5: 1}) == (4, 5, 10)


# ---------------------------------------------------------------------------
# spectra: dual routes and structural properties


def test_bruteforce_agrees_with_closed_form():
    """Counting differentials must reproduce the Chevalley-Weil formula on
    every balanced cover with three branch points up to p = 13 and with four
    branch points up to p = 11."""
    cases = [(3, p) for p in (5, 7, 11, 13)] + [(4, p) for p in (5, 7, 11)]
    for branches, p in cases:
        for exps in combinations_with_replacement(range(1, p), branches):
            if sum(exps) % p:
                continue
            s = spec(p, exps)
            for t in range(1, p):
                assert bruteforce_multiplicity(s, t) == _closed_form_multiplicity(s, t)


def test_spectrum_sums_to_genus():
    cases = [
        (5, (1, 1, 1)),
        (5, (1, 1, 1, 1)),
        (7, (1, 1, 1, 1)),
        (7, (1, 2, 3, 4)),
        (7, (2, 3, 4, 5)),
        (11, (1, 1, 2, 3)),
        (11, (3, 7, 1)),
        (13, (1, 5, 7)),
    ]
    for p, exps in cases:
        s = spec(p, exps)
        assert sum(cw_spectrum(s).values()) == cover_genus(s)


def test_conjugate_multiplicities_pair_up():
    """m(t) + m(p - t) equals branch_count - 2 for every character t."""
    for p, exps in [(7, (1, 2, 4)), (7, (1, 1, 1, 1)), (11, (1, 1, 2, 3)), (5, (1, 1, 1))]:
        s = spec(p, exps)
        sp = cw_spectrum(s)
        for t in range(1, p):
            assert sp.get(t, 0) + sp.get(p - t, 0) == s.branch_count - 2


def test_relabeling_exponents_permutes_characters():
    """Scaling all branch exponents by u turns the character t into t*u."""
    for p, exps in [(7, (1, 2, 4)), (11, (1, 1, 9)), (7, (1, 1, 1, 1))]:
        ctx = PrimeContext(p)
        base = cw_spectrum(CyclicCoverSpec(ctx, exps))
        for u in range(2, p):
            scaled = cw_spectrum(
                CyclicCoverSpec(ctx, tuple(a * u % p for a in exps))
            )
            assert all(scaled.get(t, 0) == base.get(t * u % p, 0) for t in range(1, p))


def test_exponent_order_is_irrelevant():
    a = cw_spectrum(spec(11, (1, 1, 2, 3)))
    b = cw_spectrum(spec(11, (2, 1, 3, 1)))
    assert a == b


# ---------------------------------------------------------------------------
# classification of the support


def test_spectrum_class_frozen_examples():
    ctx = PrimeContext(11)
    row = spectrum_class(ctx, cw_spectrum(spec(11, (2, 8, 1))))
    assert row["canonical"] == [1, 2, 3, 4, 6]
    assert row["isolated"] is True

    row = spectrum_class(ctx, cw_spectrum(spec(11, (1, 1, 9))))
    assert row["canonical"] == [1, 2, 3, 4, 5]
    assert row["isolated"] is True

    ctx7 = PrimeContext(7)
    row = spectrum_class(ctx7, cw_spectrum(spec(7, (1, 2, 4))))
    assert row["canonical"] == [1, 2, 4]
    assert row["isolated"] is False
    assert row["stabilizer_order"] == 3


def test_spectrum_class_accepts_bare_support():
    ctx = PrimeContext(11)
    row = spectrum_class(ctx, (4, 5, 8, 9, 10))
    assert row["canonical"] == [1, 2, 3, 4, 6]


def test_spectrum_class_rejects_repeats():
    ctx = PrimeContext(5)
    with pytest.raises(ValueError, match="repeated characters"):
        spectrum_class(ctx, cw_spectrum(spec(5, (1, 1, 1))))


def test_spectrum_class_rejects_non_cm_support():
    ctx = PrimeContext(5)
    sp = cw_spectrum(spec(5, (1, 2, 3, 4)))  # multiplicity free, but support
    assert set(sp.values()) == {1}  # contains both halves of every pair
    with pytest.raises(ValueError, match="support is not a CM type"):
        spectrum_class(ctx, sp)
