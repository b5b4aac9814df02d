"""Exact lattice machinery and the floating-point period pipeline.

The integer-side oracles here are deliberately written against different
algorithms than the implementation: the Pfaffian is checked against Laplace
expansion, determinants against rational Gaussian elimination, and the
alternating form against the field trace evaluated with complex arithmetic.
"""

import cmath
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import extremalav.lattice as lattice
from extremalav import cli
from extremalav.cmtypes import CmType, enumerate_cm_types
from extremalav.errors import (
    InternalCheckFailed,
    PolarizationNotFound,
    RiemannRelationsViolated,
)
from extremalav.fp import PrimeContext, is_prime
from extremalav.lattice import (
    ALGEBRAIC_TOL,
    COMPOSED_TOL,
    automorphism_check,
    build_polarization,
    find_polarization,
    gram_matrix,
    multiplication_matrix,
    period_matrix,
    period_report,
    pfaffian,
    reduce_to_fundamental_domain,
    riemann_form_value,
    standard_symplectic,
    symplectic_basis,
)
from extremalav.orbits import orbit_classes

rng = random.Random(20260814)


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


def det_oracle(A):
    """Plain rational Gaussian elimination."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[piv], M[col] = M[col], M[piv]
            sign = -sign
        for r in range(col + 1, n):
            f = M[r][col] / M[col][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    prod = sign
    for i in range(n):
        prod *= M[i][i]
    return int(prod)


def pfaffian_oracle(E):
    """Laplace expansion along the first row."""
    n = len(E)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        keep = [i for i in range(n) if i not in (0, j)]
        minor = [[E[a][b] for b in keep] for a in keep]
        total += (-1) ** (j - 1) * E[0][j] * pfaffian_oracle(minor)
    return total


def random_skew(n, lo=-9, hi=9):
    E = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            E[i][j] = rng.randint(lo, hi)
            E[j][i] = -E[i][j]
    return E


# ---------------------------------------------------------------------------
# exact integer linear algebra


@pytest.mark.parametrize("n", [2, 4, 6])
def test_pfaffian_matches_laplace_expansion(n):
    for _ in range(10):
        E = random_skew(n)
        assert pfaffian(E) == pfaffian_oracle(E)


def test_pfaffian_standard_form():
    # block form [[0, I], [-I, 0]]: the Pfaffian alternates in sign with g
    for g in range(1, 5):
        assert pfaffian(standard_symplectic(g)) == (-1) ** (g * (g - 1) // 2)


def test_pfaffian_congruence_covariance():
    """Pf(V^T E V) = det(V) Pf(E) for arbitrary integer V."""
    for n in (2, 4, 6):
        for _ in range(6):
            E = random_skew(n)
            V = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            VEV = matmul(transpose(V), matmul(E, V))
            assert pfaffian(VEV) == det_oracle(V) * pfaffian(E)


def test_pfaffian_squares_to_determinant():
    for n in (2, 4, 6):
        E = random_skew(n)
        assert pfaffian(E) ** 2 == det_oracle(E)


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])  # odd dimension
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])  # not skew
    with pytest.raises(ValueError):
        pfaffian([[1, 1], [-1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError, match="pfaffian needs a square matrix"):
        pfaffian([[0, 1], [-1]])  # ragged
    with pytest.raises(ValueError, match="pfaffian needs a square matrix"):
        pfaffian([[0, 1, 2], [-1, 0, 3]])  # not square
    with pytest.raises(ValueError, match="pfaffian needs an integer matrix"):
        pfaffian([[0, 1.5], [-1.5, 0]])  # int() would truncate it
    for E in ([[0, True], [-1, 0]], [[False, True], [-True, False]]):
        with pytest.raises(ValueError, match="pfaffian needs an integer matrix"):
            pfaffian(E)  # int() would read True as 1


def test_pfaffian_exact_on_numpy_integer_entries():
    """Entries given as numpy int64 scalars are read as Python ints, so the
    reduction of a form with entries near 2**40 does not wrap."""
    draw = random.Random(6)
    upper = {(i, j): draw.randint(-2**40, 2**40) for i in range(6) for j in range(i + 1, 6)}
    E = [[upper.get((i, j), -upper.get((j, i), 0)) for j in range(6)] for i in range(6)]
    as_numpy = [[np.int64(x) for x in row] for row in E]
    assert pfaffian(as_numpy) == pfaffian(E) == pfaffian_oracle(E)


def test_pfaffian_zero_on_degenerate():
    assert pfaffian([[0, 0], [0, 0]]) == 0
    assert pfaffian([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_det_adjugate_against_rational_elimination(n):
    """The determinant equals the rational oracle's and M adj(M) = det(M) I;
    entries in -1..1 make many matrices singular, and entries near 2**62
    make the minors leave int64."""
    gen = random.Random(n)
    for lo, hi in ((-1, 1), (-9, 9), (-2**62, 2**62)):
        for _ in range(12):
            M = [[gen.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            det, adjugate = lattice._det_adjugate(M)
            assert det == det_oracle(M)
            if det:
                assert matmul(M, adjugate.tolist()) == [[det * (i == j) for j in range(n)]
                                                        for i in range(n)]
            else:
                assert adjugate is None


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_lll_basis_is_reduced(n):
    """The columns of A are a basis of Z**n (det +-1), size-reduced, and meet
    Lovasz's condition with delta = 0.99, with Gram-Schmidt recomputed from a
    Cholesky factor of A^T G A."""
    gen = np.random.default_rng(n)
    for _ in range(10):
        V = gen.integers(-20, 21, size=(n, n))
        if round(np.linalg.det(V)) == 0:
            continue
        G = (V.T @ V).astype(np.float64)
        A = lattice._lll(G)
        assert det_oracle(A.tolist()) in (1, -1)
        L = np.linalg.cholesky(A.astype(np.float64).T @ G @ A.astype(np.float64))
        B, mu = np.diag(L) ** 2, L / np.diag(L)
        assert np.all(np.abs(mu[np.tril_indices(n, -1)]) <= 0.5 + 1e-9)
        for k in range(1, n):
            assert B[k] >= (0.99 - mu[k, k - 1] ** 2) * B[k - 1] * (1 - 1e-9)


# ---------------------------------------------------------------------------
# the symplectic basis


def test_symplectic_basis_on_cm_gram_matrices():
    for p, members, c in [
        (7, (1, 2, 3), (1, -1, 1)),
        (11, (1, 2, 3, 4, 5), (1, -1, 1, -1, 1)),
        (11, (1, 3, 4, 5, 9), (0, -1, 0, 1, 1)),
    ]:
        ctx = PrimeContext(p)
        pol = build_polarization(CmType(ctx, members), c)
        U = symplectic_basis(pol)
        assert matmul(transpose(U), matmul(pol.gram, U)) == standard_symplectic(ctx.g).tolist()


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_symplectic_basis_is_the_period_basis(p):
    """On every form the box returns, U is unimodular, U^T E U == J, and U
    is the basis of the period point."""
    ctx = PrimeContext(p)
    J = standard_symplectic(ctx.g).tolist()
    for cm in enumerate_cm_types(ctx):
        pol = find_polarization(ctx, cm)
        U = symplectic_basis(pol)
        assert det_oracle(U.tolist()) in (1, -1)
        assert matmul(transpose(U), matmul(pol.gram, U)) == J
        assert np.array_equal(U, period_matrix(pol).U)


def huge_unimodular(n):
    """Lower times upper unitriangular, off-diagonal entries near 1e5: det 1,
    entries near 1e10, so the forms V^T E V have entries beyond 2**63."""
    def entry():
        return rng.choice((-1, 1)) * rng.randint(10**5, 2 * 10**5)

    L = [[entry() if j < i else int(i == j) for j in range(n)] for i in range(n)]
    R = [[entry() if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return matmul(L, R)


@pytest.mark.parametrize("g", [2, 3, 5])
def test_exact_beyond_int64(g):
    """Pfaffians of forms whose entries overflow int64."""
    J = standard_symplectic(g).tolist()
    E = gram_matrix(PrimeContext(2 * g + 1), [1] * g).tolist()
    assert pfaffian(E) in (1, -1)
    for form in (J, E):
        V = huge_unimodular(2 * g)
        F = matmul(transpose(V), matmul(form, V))
        assert max(abs(x) for row in F for x in row) > 2**63
        assert pfaffian(F) == pfaffian_oracle(F) == pfaffian_oracle(form)


@pytest.mark.parametrize("b, dtype", [(2**31 - 1, np.int64), (2**31, object)])
def test_matmul_guard_at_the_int64_bound(b, dtype):
    """n * max|A| * max|B| = 2 * 2**31 * b: just below 2**63 the product runs
    in int64, at 2**63 on Python ints, where the entry 2**63 would wrap."""
    a = 2**31
    A = np.array([[a, a], [-a, a]], dtype=object)
    B = np.array([[b, -b], [b, b]], dtype=object)
    product = lattice._matmul(A, B)
    assert product.dtype == dtype
    assert np.array_equal(product, A @ B)
    assert lattice._max_abs(A @ B) == 2 * a * b


def test_power_matches_matrix_power_across_the_bound():
    """Fibonacci powers: F_92 fits in int64 and F_93 does not."""
    fib = np.array([[1, 1], [1, 0]], dtype=object)
    for e in (0, 1, 2, 50, 91, 92, 93, 200):
        assert np.array_equal(lattice._power(fib, e), np.linalg.matrix_power(fib, e))
    assert lattice._power(fib, 50).dtype == np.int64
    assert lattice._power(fib, 93).dtype == object


def test_int64_products_on_every_period_query():
    """For every period query at p = 5..13 that yields a period point, the
    layout product, R and the products of the checks equal their Python-int
    counterparts, and the guard lets R**p run in int64."""
    queries = 0
    for p in (5, 7, 11, 13):
        ctx = PrimeContext(p)
        g = ctx.g
        for cm in enumerate_cm_types(ctx):
            try:
                data = period_matrix(find_polarization(ctx, cm))
            except RiemannRelationsViolated:
                continue
            queries += 1
            E, U, R = data.polarization.gram, data.U, data.R
            assert np.array_equal(lattice._matmul(lattice._matmul(U.T, E), U), U.T @ E @ U)
            X = U.T @ E @ multiplication_matrix(ctx) @ U
            assert np.array_equal(R, np.concatenate((-X[g:], X[:g])))
            JR = np.concatenate((R[g:], -R[:g]))
            assert np.array_equal(lattice._matmul(R.T, JR), R.T @ JR)
            power = lattice._power(R, p)
            assert power.dtype == np.int64
            assert np.array_equal(power, np.linalg.matrix_power(R, p))
    assert queries == 108


def test_symplectic_basis_rejects_imprimitive():
    """The doubled principal form (Pfaffian 2**g), a form with Pfaffian 43
    and the zero form."""
    cm = CmType(PrimeContext(7), (1, 2, 3))
    for c, pf in (((2, -2, 2), 8), ((3, -1, 1), 43), ((0, 0, 0), 0)):
        with pytest.raises(ValueError) as exc:
            symplectic_basis(build_polarization(cm, c))
        assert str(exc.value) == f"form is not principal (Pfaffian {pf}): no symplectic basis"


# ---------------------------------------------------------------------------
# the alternating form


def c_extended(p, c):
    """Odd extension: index k in 1..p-1, with c[p-k] = -c[k] and c_0 = 0."""
    full = [0] * p
    g = (p - 1) // 2
    for k in range(1, g + 1):
        full[k] = c[k - 1]
        full[p - k] = -c[k - 1]
    return full


def form_trace_oracle(p, c, a, b):
    """E(xi^a, xi^b) via the field trace: Tr(xi^m) is p-1 at m = 0, else -1."""
    full = c_extended(p, c)
    total = 0
    for k in range(1, p):
        m = (k + a - b) % p
        total += full[k] * ((p - 1) if m == 0 else -1)
    assert total % p == 0
    return total // p


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_riemann_form_matches_trace(p):
    g = (p - 1) // 2
    for _ in range(4):
        c = tuple(rng.randint(-4, 4) for _ in range(g))
        for a in range(p - 1):
            for b in range(p - 1):
                assert riemann_form_value(PrimeContext(p), c, a, b) == form_trace_oracle(
                    p, c, a, b
                )


@pytest.mark.parametrize("a, b, name", [(1.5, 2, "a"), (True, 2, "a"), (0, 6, "b"),
                                        (-1, 2, "a"), (0, np.float64(2), "b")])
def test_riemann_form_value_rejects_bad_exponents(a, b, name):
    with pytest.raises(ValueError, match=f"^{name} out of range 0..5: "):
        riemann_form_value(PrimeContext(7), (1, -1, 1), a, b)


def test_gram_matrix_structure():
    ctx = PrimeContext(11)
    c = (2, -1, 0, 3, 1)
    E = gram_matrix(ctx, c)
    full = c_extended(11, c)
    assert len(E) == 10
    for a in range(10):
        assert E[a][a] == 0
        for b in range(10):
            assert E[a][b] == full[(b - a) % 11]
            assert E[a][b] == -E[b][a]
    # numpy integer coefficients still give Python ints, which cannot overflow
    assert {type(x) for x in gram_matrix(ctx, np.array(c)).flat} == {int}


@pytest.mark.parametrize("p", [p for p in range(3, 62, 2) if is_prime(p)])
def test_pfaffian_is_det_P_on_the_lagrangian_split(p):
    """On theta_1..theta_g, xi theta_1..xi theta_g the form vanishes on each
    half, its block between them is P, and Pf(E) = det P with no sign, the
    library ``pfaffian`` (a skew elimination) as the oracle.  The last draw,
    c in [-10**6, 10**6], gives Pfaffians of up to 194 digits at p = 61."""
    ctx = PrimeContext(p)
    g = ctx.g
    gen = random.Random(p)
    split = lattice._split_basis(p).astype(object)
    for bound in (1, 2, 5, 10**6):
        c = [gen.randint(-bound, bound) for _ in range(g)]
        pol = build_polarization(CmType(ctx, tuple(range(1, g + 1))), c)
        F = split.T @ pol.gram @ split
        assert not F[:g, :g].any() and not F[g:, g:].any()
        assert np.array_equal(F[:g, g:], pol.P)
        assert pol.pfaffian == pfaffian(pol.gram)


def test_alpha_imag_against_complex_arithmetic():
    for p, members, c in [(7, (1, 2, 3), (1, -1, 1)), (11, (1, 3, 4, 5, 9), (0, -1, 0, 1, 1))]:
        ctx = PrimeContext(p)
        pol = build_polarization(CmType(ctx, members), c)
        full = c_extended(p, c)
        xi = cmath.exp(2j * cmath.pi / p)
        for j, got in zip(members, pol.alpha_imag):
            alpha_j = sum(full[k] * xi ** (j * k) for k in range(1, p)) / p
            assert got == pytest.approx(alpha_j.imag, abs=1e-12)


# ---------------------------------------------------------------------------
# polarization search


@pytest.mark.parametrize(
    "p,members,c,pf",
    [
        (3, (1,), (1,), 1),
        (7, (1, 2, 3), (1, -1, 1), 1),
        (7, (1, 2, 4), (0, 1, -1), -1),
        (11, (1, 2, 3, 4, 5), (1, -1, 1, -1, 1), 1),
        (11, (1, 2, 3, 4, 6), (1, 0, -1, 1, -1), -1),
        (11, (1, 2, 3, 5, 7), (0, 1, 0, 0, 1), -1),
        (11, (1, 3, 4, 5, 9), (0, -1, 0, 1, 1), -1),
    ],
)
def test_find_polarization_frozen_results(p, members, c, pf, bound=1):
    ctx = PrimeContext(p)
    pol = find_polarization(ctx, CmType(ctx, members), bound=bound)
    assert pol.c == c
    assert pol.pfaffian == pf
    assert pol.is_principal_positive
    assert all(v > 0 for v in pol.alpha_imag)


@pytest.mark.parametrize(
    "p,members,c,pf",
    [
        (11, (1, 2, 3, 4, 6), (-1, 3, -4, 5, -5), -1),
        (11, (1, 3, 4, 5, 9), (-3, -5, 1, 5, 5), -1),
        (13, (1, 2, 3, 4, 5, 7), (0, 1, -2, 3, -4, 5), -1),
        (13, (3, 5, 7, 9, 11, 12), (-5, -5, -5, -5, -1, 1), 1),
        (17, (1, 2, 3, 4, 5, 6, 7, 9), (0, 2, -3, 3, -4, 5, -5, 5), -1),
        (17, (1, 2, 3, 4, 5, 6, 8, 10), (-1, 3, -4, 4, -2, 0, 3, -5), -1),
        (17, (1, 2, 3, 4, 5, 6, 9, 10), (-2, 5, -5, 4, -2, -1, 3, -5), 1),
    ],
)
def test_find_polarization_frozen_results_bound_5(p, members, c, pf):
    """At bound 5 the box splits into heads and a tail table, which no
    bound-1 box at p <= 13 does; at p = 17 there are 11**4 heads."""
    test_find_polarization_frozen_results(p, members, c, pf, bound=5)


def test_find_polarization_returns_lexicographic_first():
    """Scan the unit box by hand and require the same winner."""
    ctx = PrimeContext(7)
    cm = CmType(ctx, (1, 2, 4))
    found = find_polarization(ctx, cm, bound=1)
    for c in itertools.product((-1, 0, 1), repeat=3):
        pol = build_polarization(cm, c)
        if pol.is_principal_positive:
            assert pol.c == found.c
            break
    else:
        pytest.fail("hand scan found nothing")


def lexicographic_first_oracle(p, members, bound):
    """Scan the box in itertools.product order in math floats: the first c
    with every s_j > 0 whose closed-form |Pf| rounds to 1."""
    g = (p - 1) // 2
    rows = [[math.sin(2 * math.pi * j * k / p) for k in range(1, g + 1)] for j in members]
    for c in itertools.product(range(-bound, bound + 1), repeat=g):
        signs = []
        for row in rows:
            s = sum(ck * sk for ck, sk in zip(c, row))
            if s <= 0:
                break
            signs.append(s)
        else:
            if round(math.prod(2 * s for s in signs) / math.sqrt(p)) == 1:
                return c
    return None


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("p", [11, 13])
def test_find_polarization_matches_pure_python_scan(p, bound):
    """At bound 3 the box splits into heads and a tail table (bound 2 still
    fits in one table); the winner must be the first hit of a plain
    lexicographic scan either way."""
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        expected = lexicographic_first_oracle(p, cm.members, bound)
        assert expected is not None
        pol = find_polarization(ctx, cm, bound=bound)
        assert pol.c == expected
        assert abs(pol.pfaffian) == 1


@pytest.mark.parametrize("bound", [1, 2, 5])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_every_returned_form_is_principal_positive(p, bound):
    """The witness contract: the form's own ``is_principal_positive`` holds
    on every form that ``find_polarization`` returns, so neither the float
    prescreen nor a Pfaffian test alone decides a hit."""
    ctx = PrimeContext(p)
    for cm in enumerate_cm_types(ctx):
        assert find_polarization(ctx, cm, bound).is_principal_positive


def test_every_class_at_17_gets_a_principal_positive_form():
    ctx = PrimeContext(17)
    for cls in orbit_classes(ctx):
        assert find_polarization(ctx, cls.canonical).is_principal_positive


def test_find_polarization_bad_bound():
    ctx = PrimeContext(7)
    for bound in (0, True, 2.5):  # range() would search True as 1 and fail on 2.5
        with pytest.raises(ValueError):
            find_polarization(ctx, CmType(ctx, (1, 2, 3)), bound=bound)


def test_find_polarization_rejects_a_foreign_prime():
    """A CM type mod 7 searched with the context of 11 is refused by name; it
    used to fail inside the box with "repeat argument cannot be negative"."""
    with pytest.raises(ValueError, match=r"^prime context p = 11 does not match CM type mod 7$"):
        find_polarization(PrimeContext(11), CmType(PrimeContext(7), (1, 2, 4)))


def det_adjugate_3(M):
    """Stands in for the exact g x g elimination: every form built with it
    has Pfaffian det P = 3."""
    return 3, np.eye(len(M), dtype=object)


def test_find_polarization_exhausts_box(monkeypatch):
    """The exact Pfaffian decides every hit of the closed-form prescreen: with
    no candidate exactly unimodular the search must fail loudly."""
    monkeypatch.setattr(lattice, "_det_adjugate", det_adjugate_3)
    ctx = PrimeContext(7)
    with pytest.raises(PolarizationNotFound, match="no polarization in box"):
        find_polarization(ctx, CmType(ctx, (1, 2, 3)), bound=1)


def test_find_polarization_memory_does_not_grow_with_bound(monkeypatch):
    """Exhausting the box [-30, 30]^3 holds a bounded tail table, not all
    61^3 candidates at once."""
    monkeypatch.setattr(lattice, "_det_adjugate", det_adjugate_3)
    ctx = PrimeContext(7)
    tracemalloc.start()
    try:
        with pytest.raises(PolarizationNotFound, match="no polarization in box"):
            find_polarization(ctx, CmType(ctx, (1, 2, 3)), bound=30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def tail_count(g, bound):
    """The t of ``find_polarization``: the most tails that fit 2**14, at least 1."""
    return next((t for t in range(g, 1, -1) if (2 * bound + 1) ** t <= 1 << 14), 1)


def skipped_heads_fail_the_compare(p, members, bound=5) -> int:
    """Re-run the float compare on every head that ``_live_heads`` skips up
    to the winner's head, against a tail table built from an integer grid:
    no tail may pass.  Returns the number of skipped heads."""
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    g, t = ctx.g, tail_count(ctx.g, bound)
    sines = lattice._sines(cm)
    winner = find_polarization(ctx, cm, bound).c[:g - t]
    live = set(itertools.takewhile(lambda head: head <= winner,
                                   (head for head, _ in lattice._live_heads(sines, t, bound))))
    grid = itertools.product(range(-bound, bound + 1), repeat=t)
    tail_signs = sines[:, g - t:] @ np.array(list(grid), dtype=np.float64).T
    skipped = 0
    for head in itertools.product(range(-bound, bound + 1), repeat=g - t):
        if head > winner:
            break
        if head in live:
            continue
        skipped += 1
        passing = np.arange(tail_signs.shape[1])
        for row, shift in zip(tail_signs, sines[:, :g - t] @ head):
            passing = passing[row[passing] > -shift]
        assert not passing.size, (members, head)
    return skipped


def test_skipped_heads_have_no_passing_tail():
    """Every CM type at p = 5..13 (p = 5 and 7 have no heads at bound 5)."""
    skipped = {p: sum(skipped_heads_fail_the_compare(p, cm.members)
                      for cm in enumerate_cm_types(PrimeContext(p)))
               for p in (5, 7, 11, 13)}
    assert skipped[5] == skipped[7] == 0
    assert skipped[13] > 0


def test_skipped_heads_have_no_passing_tail_p17():
    """20 seeded CM types at p = 17, where the box has 11**4 heads."""
    types = list(enumerate_cm_types(PrimeContext(17)))
    sample = random.Random(17).sample(types, 20)
    assert sum(skipped_heads_fail_the_compare(17, cm.members) for cm in sample) > 0


def test_weight_family_size():
    """Every set of one, two or three embeddings, each once: all 2**g - 1
    nonempty sets for g <= 3, and g + C(g, 2) + C(g, 3) rows in general."""
    for g in range(1, 33):
        W = lattice._weights(g)
        sizes = W.sum(axis=1)
        assert W.shape[1] == g and np.isin(W, (0, 1)).all() and set(sizes) <= {1, 2, 3}
        assert len(np.unique(W.astype(np.int64) @ (1 << np.arange(g)))) == len(W)
        assert len(W) == g + math.comb(g, 2) + math.comb(g, 3)
        if g <= 3:
            assert len(W) == 2**g - 1


def test_heads_compared_over_lattice_box_classes(monkeypatch):
    """classify --with-lattice at p = 11 and 13 reaches its 10 winners
    through 250 heads, and the skip leaves 90 of them to the float compare."""
    compared = 0
    real = lattice._live_heads

    def counted(*args):
        nonlocal compared
        for item in real(*args):
            compared += 1
            yield item

    monkeypatch.setattr(lattice, "_live_heads", counted)
    visited = 0
    for p in (11, 13):
        g, t = (p - 1) // 2, tail_count((p - 1) // 2, 5)
        for row in cli.run_classify(p, with_lattice=True)["classes"]:
            visited += 1 + sum((c + 5) * 11 ** (g - t - 1 - i)
                               for i, c in enumerate(row["lattice"]["c"][:g - t]))
    assert (visited, compared) == (250, 90)


def per_head_live_heads(sines, t, bound, limit=None):
    """The head skip one head at a time, over the first ``limit`` heads of
    the box: the reference for ``_live_heads``, which tests heads in blocks."""
    g = len(sines)
    weights = lattice._weights(g)
    weighted = weights @ sines
    floor = (-bound * np.abs(weighted[:, g - t:]).sum(axis=1)
             - 1e-9 * (1 + bound * g * weights.sum(axis=1)))
    box = itertools.product(range(-bound, bound + 1), repeat=g - t)
    for head in itertools.islice(box, limit):
        if (weighted[:, :g - t] @ head >= floor).all():
            yield head, (sines[:, :g - t] @ head)[:, None]


def assert_live_heads_match(cm, bound=5, limit=None):
    """``_live_heads`` yields the reference's heads, as tuples of Python ints
    in the same order, each with a shift of the same doubles, up to the head
    of lexicographic rank ``limit``."""
    g, t = cm.ctx.g, tail_count(cm.ctx.g, bound)
    sines = lattice._sines(cm)
    actual = lattice._live_heads(sines, t, bound)
    if limit is not None:
        width = 2 * bound + 1
        stop = tuple(limit // width ** k % width - bound for k in range(g - t - 1, -1, -1))
        actual = itertools.takewhile(lambda item: item[0] < stop, actual)
    actual, expected = list(actual), list(per_head_live_heads(sines, t, bound, limit))
    assert [head for head, _ in actual] == [head for head, _ in expected]
    assert {type(x) for head, _ in actual for x in head} <= {int}
    for (_, shift), (_, reference) in zip(actual, expected):
        assert shift.shape == reference.shape and shift.tobytes() == reference.tobytes()
    return len(actual)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_live_heads_match_the_per_head_loop(p):
    """Every CM type at p <= 13, at bound 5 (p = 3, 5 and 7 have one empty
    head, p = 13 has 11**2)."""
    for cm in enumerate_cm_types(PrimeContext(p)):
        assert assert_live_heads_match(cm) >= 1


@pytest.mark.parametrize("p,limit", [(17, None), (19, 10_000), (23, 30_000)])
def test_live_heads_match_the_per_head_loop_across_blocks(p, limit):
    """Three seeded CM types: all 11**4 heads at p = 17 (a block holds 2849),
    and the first heads at p = 19 and 23, 5 blocks of 2032 and 27 of 1134."""
    types = list(enumerate_cm_types(PrimeContext(p)))
    sample = random.Random(p).sample(types, 3)
    assert sum(assert_live_heads_match(cm, limit=limit) for cm in sample) > 0


def test_box_search_memory_at_p23():
    """The blocks of heads keep the search at p = 23 within a few MB."""
    ctx = PrimeContext(23)
    cm = CmType(ctx, (1, 2, 3, 4, 5, 9, 11, 13, 15, 16, 17))
    tracemalloc.start()
    try:
        pol = find_polarization(ctx, cm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pol.c == (-5, 2, 5, -3, -4, 3, 3, -2, -3, 1, 4)
    assert peak < 8 * 2**20


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_pfaffian_closed_form(p):
    """|Pf| = prod_{j in C} |2 s_j| / sqrt(p), s_j = sum_k c_k sin(2 pi j k / p), for
    any CM type C: the identity behind the prescreen in ``find_polarization``."""
    ctx = PrimeContext(p)
    for _ in range(6):
        c = [rng.randint(-5, 5) for _ in range(ctx.g)]
        members = [rng.choice((j, p - j)) for j in range(1, ctx.g + 1)]
        closed = math.prod(
            abs(2 * sum(ck * math.sin(2 * math.pi * j * k / p) for k, ck in enumerate(c, 1)))
            for j in members
        ) / math.sqrt(p)
        assert closed == pytest.approx(abs(pfaffian(gram_matrix(ctx, c))), rel=1e-9)


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda ctx, c: gram_matrix(ctx, c),
        lambda ctx, c: riemann_form_value(ctx, c, 0, 1),
        lambda ctx, c: build_polarization(CmType(ctx, (1, 2, 3)), c),
    ],
    ids=["gram_matrix", "riemann_form_value", "build_polarization"],
)
def test_wrong_coefficient_count_raises(call, delta):
    ctx = PrimeContext(7)
    c = [1, -1, 1, 2][:ctx.g + delta]
    with pytest.raises(ValueError, match=f"need 3 coefficients, got {3 + delta}"):
        call(ctx, c)


@pytest.mark.parametrize("c", [(0.5, 1.9, -1.2), (True, 1, -1)], ids=["float", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        lambda ctx, c: gram_matrix(ctx, c),
        lambda ctx, c: riemann_form_value(ctx, c, 0, 1),
        lambda ctx, c: build_polarization(CmType(ctx, (1, 2, 4)), c),
    ],
    ids=["gram_matrix", "riemann_form_value", "build_polarization"],
)
def test_non_integer_coefficients_raise(call, c):
    """int() would read 1.9 as 1 and True as 1: the coefficients are rejected."""
    with pytest.raises(ValueError, match="^coefficient must be an integer, got "):
        call(PrimeContext(7), c)


def test_numpy_integer_coefficients_are_read_as_ints():
    ctx = PrimeContext(7)
    form = build_polarization(CmType(ctx, (1, 2, 4)), np.array([0, 1, -1]))
    assert form.c == (0, 1, -1) and {*map(type, form.c)} == {int}
    assert form.pfaffian == -1


def test_build_polarization_validates_length():
    ctx = PrimeContext(7)
    with pytest.raises(ValueError):
        build_polarization(CmType(ctx, (1, 2, 3)), (1, -1))


# ---------------------------------------------------------------------------
# multiplication by the root of unity


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_multiplication_matrix_has_order_p(p):
    ctx = PrimeContext(p)
    M = multiplication_matrix(ctx)
    n = p - 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    power = identity
    for _ in range(p):
        power = matmul(power, M)
    assert power == identity
    assert M.tolist() != identity
    # 1 + M + ... + M^(p-1) = 0: no eigenvalue is 1, all are primitive roots
    acc = [[0] * n for _ in range(n)]
    power = identity
    for _ in range(p):
        acc = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(acc, power)]
        power = matmul(power, M)
    assert acc == [[0] * n for _ in range(n)]


def test_multiplication_preserves_form():
    for p, c in [(7, (1, -1, 1)), (11, (0, -1, 0, 1, 1))]:
        ctx = PrimeContext(p)
        M = multiplication_matrix(ctx)
        E = gram_matrix(ctx, c)
        assert matmul(transpose(M), matmul(E, M)) == E.tolist()


@pytest.mark.parametrize("p", [3, 7, 13, 17])
def test_times_xi_is_the_multiplication_matrix(p):
    """The shift equals the product with M exactly, entries beyond 2**63 too."""
    M = multiplication_matrix(PrimeContext(p))
    for rows in (1, p - 1, 2 * p):
        X = np.array([[rng.randint(-2**70, 2**70) for _ in range(p - 1)] for _ in range(rows)],
                     dtype=object)
        shifted = lattice._times_xi(X)
        assert shifted.dtype == object
        assert np.array_equal(shifted, X @ M)
        assert shifted.tolist() == matmul(X.tolist(), M.tolist())


@pytest.mark.parametrize("p", [7, 11, 13])
def test_exact_checks_fail_on_tampered_input(p):
    """The shift and the block swap still judge the data: an R with two rows
    swapped fails Rp or symplectic, and a skew form that multiplication by xi
    does not preserve fails MEM."""
    ctx = PrimeContext(p)
    data = pipeline(p, orbit_classes(ctx)[0].canonical.members, bound=1)
    assert automorphism_check(data).all_ok

    R = data.R.copy()
    R[[0, 1]] = R[[1, 0]]
    report = automorphism_check(dataclasses.replace(data, R=R))
    assert report.gram_preserved
    assert not (report.order_p and report.symplectic)

    E = data.polarization.gram.copy()
    E[0, 1] += 1
    E[1, 0] -= 1
    M = multiplication_matrix(ctx).tolist()
    assert matmul(transpose(M), matmul(E.tolist(), M)) != E.tolist()
    tampered = dataclasses.replace(data, polarization=dataclasses.replace(data.polarization, gram=E))
    report = automorphism_check(tampered)
    assert not report.gram_preserved
    assert report.order_p and report.symplectic


# ---------------------------------------------------------------------------
# period matrices


def pipeline(p, members, c=None, bound=5):
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    pol = build_polarization(cm, c) if c else find_polarization(ctx, cm, bound)
    return period_matrix(pol)


def test_period_matrix_p3():
    data = pipeline(3, (1,), (1,))
    tau = complex(data.tau[0, 0])
    assert tau.real == pytest.approx(-0.5, abs=1e-12)
    assert tau.imag == pytest.approx(0.8660254037844387, abs=1e-12)
    assert data.block_swapped is True


@pytest.mark.parametrize("p", [3, 7, 11])
def test_period_matrix_is_symmetric_positive(p):
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        data = pipeline(p, cls.canonical.members, bound=1)
        tau = data.tau
        assert np.max(np.abs(tau - tau.T)) < ALGEBRAIC_TOL
        assert min(np.linalg.eigvalsh(tau.imag)) > ALGEBRAIC_TOL


@pytest.mark.parametrize("p", [3, 7, 11])
def test_automorphism_checks_pass(p):
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        report = automorphism_check(pipeline(p, cls.canonical.members, bound=1))
        assert report.all_ok
        assert report.fixes_tau_error < COMPOSED_TOL
        assert report.spectrum_error < COMPOSED_TOL


@pytest.mark.parametrize("p", [7, 11, 13])
def test_induced_automorphism_intertwines(p):
    """U R = M U exactly: R is multiplication by xi in the symplectic basis."""
    ctx = PrimeContext(p)
    for cls in orbit_classes(ctx):
        data = pipeline(p, cls.canonical.members, bound=1)
        assert matmul(data.U, data.R) == matmul(multiplication_matrix(ctx), data.U)


def test_degenerate_vector_raises():
    """Unimodular but with mixed positivity: no convention makes tau work."""
    with pytest.raises(RiemannRelationsViolated, match="Riemann relations violated"):
        pipeline(7, (1, 2, 3), (1, 1, 1))


def test_mixed_signs_name_the_sign_vector():
    with pytest.raises(RiemannRelationsViolated) as exc:
        pipeline(7, (1, 2, 3), (1, 1, 1))
    assert str(exc.value) == (
        "Riemann relations violated for c = [1, 1, 1] on set [1, 2, 3]: "
        "mixed signs of Im phi(alpha) (+, -, +)"
    )


@pytest.mark.parametrize(
    "c,message",
    [
        ((3, -1, 1), "form is not principal (Pfaffian 43): no symplectic basis"),
        ((0, 0, 0), "form is not principal (Pfaffian 0): no symplectic basis"),
    ],
    ids=["pfaffian-43", "degenerate"],
)
def test_period_matrix_rejects_non_principal_form(c, message):
    """U is built from the inverse of A^T P, which is integral only when
    the Pfaffian det P is +-1."""
    with pytest.raises(ValueError) as exc:
        pipeline(7, (1, 2, 3), c)
    assert str(exc.value) == message


def sign_rule_cases(p, count=50):
    """``count`` random unimodular c in [-3, 3]**g, each with the CM type on
    which every Im phi_j(alpha) is positive, its complement (every one
    negative) and a random type in between (mixed signs).

    Unimodularity is screened with |Pf| = prod_j 2 |s_j| / sqrt(p) over
    j = 1..g, s_j = sum_k c_k sin(2 pi j k / p); the exact Pfaffian confirms.
    """
    g = (p - 1) // 2
    gen = np.random.default_rng(p)
    ks = range(1, g + 1)
    C = gen.integers(-3, 4, size=(1000 * count, g))
    s = C @ np.sin(2 * np.pi * np.outer(ks, ks) / p)
    unit = np.abs(np.prod(2 * np.abs(s), axis=1) / math.sqrt(p) - 1) < 0.5
    cases = []
    for c, signs in list(zip(C[unit].tolist(), s[unit]))[:count]:
        positive = [k if x > 0 else p - k for k, x in zip(ks, signs)]
        flip = int(gen.integers(1, 2**g - 1))
        mixed = [p - k if flip >> i & 1 else k for i, k in enumerate(positive)]
        cases += [(c, positive, True), (c, [p - k for k in positive], False), (c, mixed, None)]
    assert len(cases) == 3 * count
    return cases


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_sign_rule_picks_the_block_convention(p):
    """All Im phi_j(alpha) > 0 gives the swapped convention, all < 0 the plain
    one, mixed signs neither; no uniform-sign form fails the gate on tau."""
    ctx = PrimeContext(p)
    for c, members, swapped in sign_rule_cases(p):
        pol = build_polarization(CmType(ctx, sorted(members)), c)
        assert abs(pol.pfaffian) == 1
        if swapped is None:
            with pytest.raises(RiemannRelationsViolated, match="mixed signs"):
                period_matrix(pol)
            continue
        assert period_matrix(pol).block_swapped is swapped


def count_calls_over_period_queries(monkeypatch, name) -> int:
    """Calls of ``lattice.<name>`` over the 96 period queries at p = 11, 13."""
    calls = []
    real = getattr(lattice, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattice, name, counted)
    queries = 0
    for p in (11, 13):
        for cm in enumerate_cm_types(PrimeContext(p)):
            queries += 1
            try:
                cli.run_period(p, cm.members)
            except (InternalCheckFailed, RiemannRelationsViolated):
                pass
    assert queries == 96
    return len(calls)


def test_one_reduction_per_period_query(monkeypatch):
    """Each query builds one symplectic basis and runs one exact g x g
    elimination for the Pfaffian det P and one for the inverse of A^T P."""
    assert count_calls_over_period_queries(monkeypatch, "symplectic_basis") == 96
    assert count_calls_over_period_queries(monkeypatch, "_det_adjugate") == 2 * 96


def test_period_query_builds_no_multiplication_matrix(monkeypatch):
    """Multiplication by xi is applied as a shift; the (p-1)^2 matrix is
    library API and a test oracle only."""
    assert count_calls_over_period_queries(monkeypatch, "multiplication_matrix") == 0


def test_exact_matrices_are_read_only():
    data = pipeline(7, (1, 2, 3), (1, -1, 1))
    for matrix in (data.polarization.gram, data.polarization.P, data.U, data.R):
        assert matrix.dtype == object and all(type(x) is int for x in matrix.flat)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1


def test_negated_vector_flips_block_convention():
    data = pipeline(7, (1, 2, 3), (-1, 1, -1))
    assert data.block_swapped is False
    assert automorphism_check(data).all_ok
    tau = data.tau
    assert np.max(np.abs(tau - tau.T)) < ALGEBRAIC_TOL
    assert min(np.linalg.eigvalsh(tau.imag)) > ALGEBRAIC_TOL


def test_period_report_document():
    doc, report = period_report(pipeline(7, (1, 2, 3), (1, -1, 1)))
    assert report.all_ok
    assert doc["p"] == 7
    assert doc["set"] == [1, 2, 3]
    assert doc["c"] == [1, -1, 1]
    assert doc["pfaffian"] == 1
    assert doc["checks"] == {
        "MEM": True,
        "Rp": True,
        "symplectic": True,
        "fixes_tau": True,
        "spectrum": True,
    }
    assert len(doc["tau_re"]) == 3 and len(doc["tau_im"]) == 3
    # serialization is reproducible byte for byte
    doc2, _ = period_report(pipeline(7, (1, 2, 3), (1, -1, 1)))
    assert json.dumps(doc) == json.dumps(doc2)


# ---------------------------------------------------------------------------
# fundamental domain reduction (genus 1)


def in_fundamental_domain(tau, eps=1e-9):
    return abs(tau.real) <= 0.5 + eps and abs(tau) >= 1 - eps


def test_reduce_known_points():
    base = complex(0.3, 1.7)
    assert reduce_to_fundamental_domain(base + 7) == pytest.approx(base)
    assert reduce_to_fundamental_domain(base) == pytest.approx(base)
    # a boundary corner may come back as either of its two identified copies
    corner = complex(-0.5, 3**0.5 / 2)
    got = reduce_to_fundamental_domain(corner + 7)
    assert min(abs(got - corner), abs(got + corner.conjugate())) < 1e-9


def test_reduce_random_modular_translates():
    base = complex(0.3, 1.7)  # interior point: reduction must recover it exactly
    mats = [(1, 0, 0, 1)]
    for _ in range(25):
        a, b, c, d = mats[rng.randrange(len(mats))]
        if rng.random() < 0.5:
            shift = rng.randint(-3, 3)
            mats.append((a + shift * c, b + shift * d, c, d))
        else:
            mats.append((-c, -d, a, b))
    for a, b, c, d in mats:
        assert a * d - b * c == 1
        moved = (a * base + b) / (c * base + d)
        got = reduce_to_fundamental_domain(moved)
        assert in_fundamental_domain(got)
        assert got == pytest.approx(base, abs=1e-9)


def test_p3_period_point_is_a_sixth_root_corner():
    data = pipeline(3, (1,), (1,))
    got = reduce_to_fundamental_domain(complex(data.tau[0, 0]))
    corners = [complex(-0.5, 3**0.5 / 2), complex(0.5, 3**0.5 / 2)]
    assert min(abs(got - w) for w in corners) < 1e-8
