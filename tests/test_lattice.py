"""Exact lattice machinery and the floating-point period pipeline.

The integer-side oracles here are deliberately written against different
algorithms than the implementation: the Pfaffian is checked against Laplace
expansion, determinants against rational Gaussian elimination, and the
alternating form against the field trace evaluated with complex arithmetic.
"""

import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import extremalav.lattice as lattice
from extremalav.cmtypes import CmType
from extremalav.errors import PolarizationNotFound, RiemannRelationsViolated
from extremalav.fp import PrimeContext
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


def random_unimodular(n, steps=12):
    """Product of integer shears and swaps; determinant stays +-1."""
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            V[i], V[j] = V[j], V[i]
        else:
            coef = rng.randint(-3, 3)
            V[i] = [a + coef * b for a, b in zip(V[i], V[j])]
    return V


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


def test_pfaffian_zero_on_degenerate():
    assert pfaffian([[0, 0], [0, 0]]) == 0
    assert pfaffian([[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]) == 0


# ---------------------------------------------------------------------------
# symplectic reduction


def test_symplectic_basis_fixes_standard_form():
    for g in (1, 2, 3, 5):
        n = 2 * g
        assert symplectic_basis(standard_symplectic(g)).tolist() == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_symplectic_basis_on_scrambled_standard_form(g):
    J = standard_symplectic(g)
    for _ in range(6):
        V = random_unimodular(2 * g)
        E = matmul(transpose(V), matmul(J, V))
        U = symplectic_basis(E)
        assert matmul(transpose(U), matmul(E, U)) == J.tolist()
        assert det_oracle(U) in (1, -1)


def test_symplectic_basis_on_cm_gram_matrices():
    for p, members, c in [
        (7, (1, 2, 3), (1, -1, 1)),
        (11, (1, 2, 3, 4, 5), (1, -1, 1, -1, 1)),
        (11, (1, 3, 4, 5, 9), (0, -1, 0, 1, 1)),
    ]:
        ctx = PrimeContext(p)
        E = gram_matrix(ctx, c)
        U = symplectic_basis(E)
        assert matmul(transpose(U), matmul(E, U)) == standard_symplectic(ctx.g).tolist()


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
    """Pfaffians and symplectic bases of forms whose entries overflow int64."""
    J = standard_symplectic(g).tolist()
    E = gram_matrix(PrimeContext(2 * g + 1), [1] * g).tolist()
    assert pfaffian(E) in (1, -1)
    for form in (J, E):
        V = huge_unimodular(2 * g)
        F = matmul(transpose(V), matmul(form, V))
        assert max(abs(x) for row in F for x in row) > 2**63
        assert pfaffian(F) == pfaffian_oracle(F) == pfaffian_oracle(form)
        U = symplectic_basis(F)
        assert matmul(transpose(U), matmul(F, U)) == J


def test_symplectic_basis_rejects_imprimitive():
    doubled = [[2 * x for x in row] for row in standard_symplectic(2)]
    with pytest.raises(ValueError, match="elementary divisor"):
        symplectic_basis(doubled)


def test_symplectic_basis_rejects_degenerate_and_odd():
    with pytest.raises(ValueError):
        symplectic_basis([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        symplectic_basis([[0]])


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


def test_alpha_imag_against_complex_arithmetic():
    for p, members, c in [(7, (1, 2, 3), (1, -1, 1)), (11, (1, 3, 4, 5, 9), (0, -1, 0, 1, 1))]:
        ctx = PrimeContext(p)
        pol = build_polarization(ctx, CmType(ctx, members), c)
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
def test_find_polarization_frozen_results(p, members, c, pf):
    ctx = PrimeContext(p)
    pol = find_polarization(ctx, CmType(ctx, members), bound=1)
    assert pol.c == c
    assert pol.pfaffian == pf
    assert pol.is_principal_positive
    assert all(v > 0 for v in pol.alpha_imag)


def test_find_polarization_returns_lexicographic_first():
    """Scan the unit box by hand and require the same winner."""
    import itertools

    ctx = PrimeContext(7)
    cm = CmType(ctx, (1, 2, 4))
    found = find_polarization(ctx, cm, bound=1)
    for c in itertools.product((-1, 0, 1), repeat=3):
        pol = build_polarization(ctx, cm, c)
        if pol.is_principal_positive:
            assert pol.c == found.c
            break
    else:
        pytest.fail("hand scan found nothing")


def test_find_polarization_bad_bound():
    ctx = PrimeContext(7)
    with pytest.raises(ValueError):
        find_polarization(ctx, CmType(ctx, (1, 2, 3)), bound=0)


def test_find_polarization_exhausts_box(monkeypatch):
    """The exact Pfaffian decides every hit of the closed-form prescreen: with
    no candidate exactly unimodular the search must fail loudly."""
    monkeypatch.setattr(lattice, "pfaffian", lambda E: 3)
    ctx = PrimeContext(7)
    with pytest.raises(PolarizationNotFound, match="no polarization in box"):
        find_polarization(ctx, CmType(ctx, (1, 2, 3)), bound=1)


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


def test_build_polarization_validates_length():
    ctx = PrimeContext(7)
    with pytest.raises(ValueError):
        build_polarization(ctx, CmType(ctx, (1, 2, 3)), (1, -1))


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


# ---------------------------------------------------------------------------
# period matrices


def pipeline(p, members, c=None, bound=5):
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    pol = build_polarization(ctx, cm, c) if c else find_polarization(ctx, cm, bound)
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
    one, mixed signs neither.

    A uniform-sign form can still fail the gate on tau when its symplectic
    basis is badly conditioned (ROADMAP item 3); that failure must then name
    the measured asymmetry or eigenvalue, never the signs.
    """
    ctx = PrimeContext(p)
    for c, members, swapped in sign_rule_cases(p):
        pol = build_polarization(ctx, CmType(ctx, sorted(members)), c)
        assert abs(pol.pfaffian) == 1
        if swapped is None:
            with pytest.raises(RiemannRelationsViolated, match="mixed signs"):
                period_matrix(pol)
            continue
        try:
            data = period_matrix(pol)
        except RiemannRelationsViolated as exc:
            assert "asymmetry" in str(exc) or "min eigenvalue of Im tau" in str(exc)
            continue
        assert data.block_swapped is swapped


def test_exact_matrices_are_read_only():
    data = pipeline(7, (1, 2, 3), (1, -1, 1))
    for matrix in (data.polarization.gram, data.U, data.R):
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
