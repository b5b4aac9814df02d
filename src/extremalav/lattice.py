"""Explicit polarized lattices for CM types of odd prime conductor.

Fix an odd prime p = 2g+1, a primitive p-th root of unity xi, and a CM type
C.  The ring Z[xi] embeds as a rank-2g lattice in C**g by evaluating the g
embeddings indexed by C.  An alternating form

    E(xi**a, xi**b) = Tr(alpha xi**a conj(xi**b)),
    alpha = (1/p) * sum_k c_k xi**k,  c_0 = 0,  c_{p-k} = -c_k,

is integral on the lattice for every odd integer vector c, and works out to
the circulant-like table E[a][b] = c[(b-a) mod p].  Whenever the form is
unimodular (Pfaffian +-1) and every Im phi_j(alpha), j in C, is positive, the
quotient torus is a principally polarized abelian variety; a symplectic basis
then yields a symmetric period matrix tau with positive-definite imaginary
part, and multiplication by xi descends to an automorphism fixing tau.

Integer computations are exact and use no rationals: one integer congruence
reduction yields both the Pfaffian and the symplectic basis, and the induced
lattice automorphism is an integer matrix product.  Floating point enters
only in the polarization prescreen, whose every hit an exact Pfaffian
confirms, and in the period matrix itself and its verification.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cmtypes import CmType
from .errors import InternalCheckFailed, PolarizationNotFound, RiemannRelationsViolated
from .fp import PrimeContext

ALGEBRAIC_TOL = 1e-9
COMPOSED_TOL = 1e-8


# ---------------------------------------------------------------------------
# exact integer linear algebra helpers


def standard_symplectic(g: int) -> list[list[int]]:
    """The 2g x 2g block matrix [[0, I], [-I, 0]]."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def _int_matmul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    Bcols = list(zip(*B))
    return [[sum(row[t] * col[t] for t in range(k)) for col in Bcols] for row in A]


def _int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _int_transpose(A):
    return [list(col) for col in zip(*A)]


def int_rank_det(A) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free (Bareiss)
    elimination.

    Every intermediate entry is a minor of ``A``, so each division is exact.
    Columns without a pivot are skipped, which makes the routine work on
    rectangular matrices too; the determinant is 0 unless ``A`` is square
    and of full rank.
    """
    M = [list(row) for row in A]
    n_rows, n_cols = len(M), len(M[0]) if M else 0
    rank, sign, prev = 0, 1, 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot = next((i for i in range(rank, n_rows) if M[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            sign = -sign
        top = M[rank]
        d = top[col]
        for row in M[rank + 1:]:
            f = row[col]
            for j in range(col + 1, n_cols):
                row[j] = (row[j] * d - f * top[j]) // prev
        prev = d
        rank += 1
    det = sign * prev if rank == n_rows == n_cols else 0
    return rank, det


def int_det(A) -> int:
    """Exact determinant of a square integer matrix."""
    return int_rank_det(A)[1]


def pfaffian(E) -> int:
    """Exact Pfaffian of an integer skew-symmetric matrix.

    The congruence reduction splits E into 2x2 blocks [[0, d], [-d, 0]] by a
    unimodular T, and Pf(T^T E T) = det T * Pf(E) with det T = +-1, so the
    Pfaffian is det T times the product of the d's.
    """
    n = len(E)
    if any(len(row) != n for row in E):
        raise ValueError("pfaffian needs a square matrix")
    if n % 2:
        raise ValueError("pfaffian undefined for odd dimension")
    for i in range(n):
        if E[i][i] != 0 or any(E[i][j] != -E[j][i] for j in range(i + 1, n)):
            raise ValueError("pfaffian needs a skew-symmetric matrix")
    _, pivots, det_T = _skew_reduce(E)
    return det_T * math.prod(pivots)


def _skew_reduce(E) -> tuple[list[list[int]], list[int], int]:
    """Integer congruence reduction of an even-dimensional skew matrix E.

    Returns (T, pivots, det T) with T unimodular and T^T E T block diagonal:
    rows 2i, 2i+1 hold the block [[0, d], [-d, 0]] with d = pivots[i] > 0.
    Each step moves a minimal nonzero entry into pivot position, clears its
    row pair by Euclidean steps, and splits off the plane.  A degenerate
    form ends the pivot list with a 0.
    """
    n = len(E)
    G = [list(row) for row in E]
    T = _int_identity(n)
    pivots = []
    det_T = 1

    def swap(i, j):
        nonlocal det_T
        for row in T:
            row[i], row[j] = row[j], row[i]
        G[i], G[j] = G[j], G[i]
        for row in G:
            row[i], row[j] = row[j], row[i]
        det_T = -det_T

    def move(src, dst):
        while src > dst:
            swap(src - 1, src)
            src -= 1

    def negate(i):
        nonlocal det_T
        for row in T:
            row[i] = -row[i]
        G[i] = [-x for x in G[i]]
        for row in G:
            row[i] = -row[i]
        det_T = -det_T

    def addmul(i, k, coef):
        """Basis change b_i += coef * b_k."""
        for row in T:
            row[i] += coef * row[k]
        for row in G:
            row[i] += coef * row[k]
        G[i] = [x + coef * y for x, y in zip(G[i], G[k])]

    for t in range(0, n, 2):
        while True:
            best = min(((abs(G[i][j]), i, j) for i in range(t, n) for j in range(i + 1, n)
                        if G[i][j]), default=None)
            if best is None:
                return T, pivots + [0], det_T
            _, i, j = best
            move(i, t)
            move(j, t + 1)
            if G[t][t + 1] < 0:
                negate(t + 1)
            d = G[t][t + 1]
            clean = True
            for k in range(t + 2, n):
                addmul(k, t + 1, -(G[t][k] // d))
                addmul(k, t, G[t + 1][k] // d)
                if G[t][k] or G[t + 1][k]:
                    clean = False
            if clean:
                break
        pivots.append(G[t][t + 1])
    return T, pivots, det_T


def symplectic_basis(E) -> list[list[int]]:
    """Unimodular U with U^T E U equal to the standard symplectic form.

    E must be an integer skew-symmetric matrix with Pfaffian +-1.  Reorders
    the basis from the congruence reduction into the [[0, I], [-I, 0]] block
    layout.  Raises ValueError when the form is degenerate or an elementary
    divisor exceeds 1 (the form is not principal).
    """
    n = len(E)
    if n % 2:
        raise ValueError("skew form on odd-dimensional lattice cannot be symplectic")
    T, pivots, _ = _skew_reduce(E)
    for d in pivots:
        if d == 0:
            raise ValueError("form is degenerate: no symplectic basis")
        if d != 1:
            raise ValueError(f"elementary divisors not all 1 (pivot {d}): form is not principal")

    order = list(range(0, n, 2)) + list(range(1, n, 2))
    U = [[row[c] for c in order] for row in T]
    if _int_matmul(_int_transpose(U), _int_matmul(E, U)) != standard_symplectic(n // 2):
        raise InternalCheckFailed("symplectic reduction failed verification")
    return U


# ---------------------------------------------------------------------------
# the CM lattice and its alternating forms


@dataclass(frozen=True, eq=False)
class CmEmbedding:
    """Images of the power basis 1, xi, ..., xi**(p-2) under the g embeddings
    selected by a CM type; column k holds the image of xi**k."""

    ctx: PrimeContext
    cm_type: CmType
    basis_images: np.ndarray


def embed(ctx: PrimeContext, cm: CmType) -> CmEmbedding:
    members = np.array(cm.members)
    powers = np.arange(ctx.p - 1)
    images = np.exp(2j * np.pi * np.outer(members, powers) / ctx.p)
    return CmEmbedding(ctx, cm, images)


def _coeff(ctx: PrimeContext, c, m: int) -> int:
    """c extended to all residues: c_0 = 0 and c_{p-k} = -c_k."""
    m %= ctx.p
    if m == 0:
        return 0
    if m <= ctx.g:
        return c[m - 1]
    return -c[ctx.p - m - 1]


def riemann_form_value(ctx: PrimeContext, c, a: int, b: int) -> int:
    """The alternating form on power-basis vectors: E(xi**a, xi**b).

    Equals the trace of alpha * xi**(a-b), which collapses to a single
    coefficient lookup because the traces of nontrivial p-th roots are all -1
    and the c-table is odd.
    """
    if len(c) != ctx.g:
        raise ValueError(f"need {ctx.g} coefficients, got {len(c)}")
    for a_, name in ((a, "a"), (b, "b")):
        if not 0 <= a_ <= ctx.p - 2:
            raise ValueError(f"{name} out of range 0..{ctx.p - 2}: {a_}")
    return _coeff(ctx, c, b - a)


def gram_matrix(ctx: PrimeContext, c) -> list[list[int]]:
    """Gram matrix of the form on the power basis."""
    n = ctx.p - 1
    return [[_coeff(ctx, c, b - a) for b in range(n)] for a in range(n)]


def _alpha_imag(ctx: PrimeContext, cm: CmType, c) -> tuple[float, ...]:
    """Im phi_j(alpha) for j in the CM type, in member order."""
    p = ctx.p
    return tuple(
        2.0 / p * sum(c[k - 1] * math.sin(2 * math.pi * j * k / p) for k in range(1, ctx.g + 1))
        for j in cm.members
    )


@dataclass(frozen=True)
class PolarizationForm:
    """An integral alternating form attached to an odd coefficient vector."""

    ctx: PrimeContext
    cm_type: CmType
    c: tuple[int, ...]
    gram: tuple[tuple[int, ...], ...]
    alpha_imag: tuple[float, ...]
    pfaffian: int

    @property
    def is_principal_positive(self) -> bool:
        return abs(self.pfaffian) == 1 and all(v > 0 for v in self.alpha_imag)


def build_polarization(ctx: PrimeContext, cm: CmType, c) -> PolarizationForm:
    """Assemble the form data for a coefficient vector, without any gating."""
    c = tuple(int(x) for x in c)
    if len(c) != ctx.g:
        raise ValueError(f"need {ctx.g} coefficients, got {len(c)}")
    gram = gram_matrix(ctx, c)
    return PolarizationForm(
        ctx, cm, c, tuple(tuple(row) for row in gram), _alpha_imag(ctx, cm, c), pfaffian(gram)
    )


def find_polarization(ctx: PrimeContext, cm: CmType, bound: int = 5) -> PolarizationForm:
    """First coefficient vector in the box [-bound, bound]**g (lexicographic
    order) whose form is unimodular and positive on every selected embedding.

    With s_j = sum_k c_k sin(2 pi j k / p), positivity is s_j > 0 for j in the
    CM type, and the Pfaffian has the closed form |Pf| = prod_j 2 s_j / sqrt(p).
    |Pf| is an integer, so comparing prod_j s_j with sqrt(p) / 2**g to within
    half of that value separates |Pf| = 1 from every other value with room to
    spare; the exact Pfaffian then decides each hit.

    Raises ``PolarizationNotFound`` when the box is exhausted.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    g, p = ctx.g, ctx.p
    sin_matrix = np.sin(
        2 * np.pi * np.outer(cm.members, np.arange(1, g + 1)) / p
    )  # rows: members
    unit_product = math.sqrt(p) / 2**g  # prod_j s_j when |Pf| = 1
    candidates = itertools.product(range(-bound, bound + 1), repeat=g)
    chunk_size = 1 << 13
    while True:
        chunk = list(itertools.islice(candidates, chunk_size))
        if not chunk:
            break
        signs = np.asarray(chunk, dtype=np.float64) @ sin_matrix.T
        positive = np.flatnonzero((signs > 0.0).all(axis=1))
        products = signs[positive].prod(axis=1)
        for idx in positive[np.abs(products - unit_product) < unit_product / 2]:
            form = build_polarization(ctx, cm, chunk[idx])
            if abs(form.pfaffian) == 1:
                return form
    raise PolarizationNotFound(
        f"no polarization in box [-{bound}, {bound}]^{g} for set {list(cm.members)} mod {p}"
    )


# ---------------------------------------------------------------------------
# period matrices and the induced automorphism


def multiplication_matrix(ctx: PrimeContext) -> list[list[int]]:
    """Multiplication by xi on the power basis (companion matrix of the p-th
    cyclotomic polynomial)."""
    n = ctx.p - 1
    M = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        M[j + 1][j] = 1
    for i in range(n):
        M[i][n - 1] = -1
    return M


@dataclass(frozen=True, eq=False)
class PeriodData:
    """A period matrix together with the exact data that produced it."""

    ctx: PrimeContext
    cm_type: CmType
    polarization: PolarizationForm
    U: tuple[tuple[int, ...], ...]
    M: tuple[tuple[int, ...], ...]
    R: tuple[tuple[int, ...], ...]
    tau: np.ndarray
    block_swapped: bool


def _symmetric_positive(tau: np.ndarray) -> bool:
    if np.max(np.abs(tau - tau.T)) >= ALGEBRAIC_TOL:
        return False
    imag = (tau.imag + tau.imag.T) / 2
    return np.linalg.eigvalsh(imag).min() > ALGEBRAIC_TOL


def period_matrix(embedding: CmEmbedding, polarization: PolarizationForm) -> PeriodData:
    """Period matrix of the embedded lattice in a symplectic basis for the form.

    The two possible block conventions tau = P2^-1 P1 and tau = P1^-1 P2 are
    tried in that order and the first symmetric one with positive-definite
    imaginary part wins (recorded in ``block_swapped``).  If neither works
    the form does not polarize this complex structure.
    """
    ctx = embedding.ctx
    E = [list(row) for row in polarization.gram]
    U = symplectic_basis(E)
    W = embedding.basis_images @ np.array(U, dtype=np.float64)
    g = ctx.g
    tau = None
    for swapped, (left, right) in (
        (False, (W[:, g:], W[:, :g])),
        (True, (W[:, :g], W[:, g:])),
    ):
        try:
            candidate = np.linalg.solve(left, right)
        except np.linalg.LinAlgError:
            continue
        if _symmetric_positive(candidate):
            tau, block_swapped = candidate, swapped
            break
    if tau is None:
        raise RiemannRelationsViolated(
            f"Riemann relations violated for c = {list(polarization.c)} "
            f"on set {list(embedding.cm_type.members)}"
        )
    # U^T E U = J and J^-1 = -J give U^-1 = -J U^T E, so the induced
    # automorphism R = U^-1 M U is an integer product.
    M = multiplication_matrix(ctx)
    neg_J = [[-x for x in row] for row in standard_symplectic(g)]
    U_inv = _int_matmul(neg_J, _int_matmul(_int_transpose(U), E))
    R = _int_matmul(_int_matmul(U_inv, M), U)
    freeze = lambda A: tuple(tuple(row) for row in A)
    return PeriodData(
        ctx, embedding.cm_type, polarization, freeze(U), freeze(M), freeze(R), tau, block_swapped
    )


@dataclass(frozen=True)
class AutomorphismReport:
    """Outcome of the five consistency checks on a period point."""

    gram_preserved: bool
    order_p: bool
    symplectic: bool
    fixes_tau: bool
    spectrum: bool
    fixes_tau_error: float
    spectrum_error: float

    @property
    def all_ok(self) -> bool:
        return (self.gram_preserved and self.order_p and self.symplectic
                and self.fixes_tau and self.spectrum)

    def to_json(self) -> dict:
        return {
            "MEM": self.gram_preserved,
            "Rp": self.order_p,
            "symplectic": self.symplectic,
            "fixes_tau": self.fixes_tau,
            "spectrum": self.spectrum,
        }


def automorphism_check(data: PeriodData) -> AutomorphismReport:
    """Verify, exactly where possible, that multiplication by xi survives on
    the period point: it preserves the form, has order p, acts symplectically
    on the chosen basis, fixes tau, and has the prescribed eigenvalues."""
    ctx = data.ctx
    p, g = ctx.p, ctx.g
    E = [list(row) for row in data.polarization.gram]
    M = [list(row) for row in data.M]
    R = [list(row) for row in data.R]
    J = standard_symplectic(g)

    gram_preserved = _int_matmul(_int_transpose(M), _int_matmul(E, M)) == E

    power = _int_identity(p - 1)
    for _ in range(p):
        power = _int_matmul(power, R)
    order_p = power == _int_identity(p - 1)

    symplectic = _int_matmul(_int_transpose(R), _int_matmul(J, R)) == J

    if data.block_swapped:
        perm = list(range(g, 2 * g)) + list(range(g))
        R_eff = [[R[a][b] for b in perm] for a in perm]
    else:
        R_eff = R
    S = np.array(_int_transpose(R_eff), dtype=np.float64)
    A, B = S[:g, :g], S[:g, g:]
    C, D = S[g:, :g], S[g:, g:]
    tau = data.tau
    try:
        image = np.linalg.solve((C @ tau + D).T, (A @ tau + B).T).T
        fixes_tau_error = float(np.max(np.abs(image - tau)))
    except np.linalg.LinAlgError:
        fixes_tau_error = float("inf")
    fixes_tau = fixes_tau_error < COMPOSED_TOL

    R_eff_arr = np.array(R_eff, dtype=np.float64)
    analytic = tau @ R_eff_arr[:g, g:] + R_eff_arr[g:, g:]
    eigs = np.linalg.eigvals(analytic)
    eigs = eigs[np.argsort(np.mod(np.angle(eigs), 2 * np.pi))]
    expected = np.exp(2j * np.pi * np.array(data.cm_type.members) / p)
    spectrum_error = float(np.max(np.abs(eigs - expected)))
    spectrum = spectrum_error < COMPOSED_TOL

    return AutomorphismReport(
        gram_preserved, order_p, symplectic, fixes_tau, spectrum,
        fixes_tau_error, spectrum_error,
    )


def _sig17(x: float) -> float:
    return float(f"{x:.17g}")


def period_report(data: PeriodData) -> tuple[dict, AutomorphismReport]:
    """JSON-ready description of a period point plus its check report."""
    report = automorphism_check(data)
    doc = {
        "p": data.ctx.p,
        "set": list(data.cm_type.members),
        "c": list(data.polarization.c),
        "pfaffian": data.polarization.pfaffian,
        "tau_re": [[_sig17(v) for v in row] for row in data.tau.real.tolist()],
        "tau_im": [[_sig17(v) for v in row] for row in data.tau.imag.tolist()],
        "block_swapped": data.block_swapped,
        "checks": report.to_json(),
    }
    return doc, report


def reduce_to_fundamental_domain(tau: complex) -> complex:
    """Reduce a point of the upper half plane into the standard fundamental
    domain |Re| <= 1/2, |tau| >= 1 (dimension one only)."""
    if tau.imag <= 0:
        raise ValueError("point must lie in the upper half plane")
    for _ in range(256):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1 - 1e-14:
            tau = -1 / tau
        else:
            return tau
    raise ArithmeticError("modular reduction did not converge")
