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
part, and multiplication by xi descends to an automorphism fixing tau.  The
polarization is the whole input of the period pipeline: the sign vector of
Im phi_j(alpha) alone decides which block convention gives tau, or that none
does.

Integer computations are exact and use no rationals: every integer matrix
(Gram matrix, symplectic basis U, induced automorphism R) is a numpy array of
Python ints (dtype=object), exact at any size, and the matrices stored on the
frozen dataclasses are read-only.  One integer congruence reduction yields
both the Pfaffian and the symplectic basis, and the induced lattice
automorphism is an integer matrix product.  Floating point enters only in the
polarization prescreen, whose every hit an exact Pfaffian confirms, and in
the period matrix itself and its verification.
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
# exact integer linear algebra on object arrays


def standard_symplectic(g: int) -> np.ndarray:
    """The 2g x 2g block matrix [[0, I], [-I, 0]]."""
    return np.kron(np.array([[0, 1], [-1, 0]]), np.eye(g, dtype=int)).astype(object)


def pfaffian(E) -> int:
    """Exact Pfaffian of an integer skew-symmetric matrix.

    The congruence reduction splits E into 2x2 blocks [[0, d], [-d, 0]] by a
    unimodular T, and Pf(T^T E T) = det T * Pf(E) with det T = +-1, so the
    Pfaffian is det T times the product of the d's.
    """
    E = np.asarray(E, dtype=object)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    if len(E) % 2:
        raise ValueError("pfaffian undefined for odd dimension")
    if not np.array_equal(E, -E.T):
        raise ValueError("pfaffian needs a skew-symmetric matrix")
    _, pivots, det_T = _skew_reduce(E)
    return det_T * math.prod(pivots)


def _skew_reduce(E: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """Integer congruence reduction of an even-dimensional skew matrix E.

    Returns (T, pivots, det T) with T unimodular and T^T E T block diagonal:
    rows 2i, 2i+1 hold the block [[0, d], [-d, 0]] with d = pivots[i] > 0.
    Each step moves a minimal nonzero entry (the least (|v|, i, j), i < j)
    into pivot position, clears its row pair by Euclidean steps, and splits
    off the plane.  A degenerate form ends the pivot list with a 0.
    """
    n = len(E)
    G = E.copy()
    T = np.eye(n, dtype=object)
    pivots = []
    det_T = 1
    for t in range(0, n, 2):
        rows, cols = np.triu_indices(n - t, 1)
        while True:
            values = np.abs(G[rows + t, cols + t])
            nonzero = np.flatnonzero(values)
            if not nonzero.size:
                return T, pivots + [0], det_T
            k = nonzero[np.argmin(values[nonzero])]
            i, j = int(rows[k]) + t, int(cols[k]) + t
            # bring b_i, b_j to positions t, t+1, keeping the others in order:
            # (i - t) + (j - t - 1) adjacent transpositions
            perm = [*range(t), i, j, *(m for m in range(t, n) if m not in (i, j))]
            T, G = T[:, perm], G[np.ix_(perm, perm)]
            det_T *= (-1) ** (i + j + 1)
            if G[t, t + 1] < 0:
                T[:, t + 1] *= -1
                G[t + 1] *= -1
                G[:, t + 1] *= -1
                det_T = -det_T
            d = G[t, t + 1]
            # b_k += s_k b_t - r_k b_{t+1} for every k > t+1 leaves E(b_t, b_k)
            # and E(b_{t+1}, b_k) as their remainders mod d
            r, s = G[t, t + 2:] // d, G[t + 1, t + 2:] // d
            T[:, t + 2:] += np.outer(T[:, t], s) - np.outer(T[:, t + 1], r)
            G[:, t + 2:] += np.outer(G[:, t], s) - np.outer(G[:, t + 1], r)
            G[t + 2:] += np.outer(s, G[t]) - np.outer(r, G[t + 1])
            if not G[t:t + 2, t + 2:].any():
                break
        pivots.append(G[t, t + 1])
    return T, pivots, det_T


def symplectic_basis(E) -> np.ndarray:
    """Unimodular U with U^T E U equal to the standard symplectic form.

    E must be an integer skew-symmetric matrix with Pfaffian +-1.  Reorders
    the basis from the congruence reduction into the [[0, I], [-I, 0]] block
    layout.  Raises ValueError when the form is degenerate or an elementary
    divisor exceeds 1 (the form is not principal).
    """
    E = np.asarray(E, dtype=object)
    n = len(E)
    if n % 2:
        raise ValueError("skew form on odd-dimensional lattice cannot be symplectic")
    T, pivots, _ = _skew_reduce(E)
    for d in pivots:
        if d == 0:
            raise ValueError("form is degenerate: no symplectic basis")
        if d != 1:
            raise ValueError(f"elementary divisors not all 1 (pivot {d}): form is not principal")

    U = T[:, np.r_[0:n:2, 1:n:2]]
    if not np.array_equal(U.T @ E @ U, standard_symplectic(n // 2)):
        raise InternalCheckFailed("symplectic reduction failed verification")
    return U


# ---------------------------------------------------------------------------
# the CM lattice and its alternating forms


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


def gram_matrix(ctx: PrimeContext, c) -> np.ndarray:
    """Gram matrix of the form on the power basis."""
    n, c = ctx.p - 1, [int(x) for x in c]
    return np.array([[_coeff(ctx, c, b - a) for b in range(n)] for a in range(n)], dtype=object)


def _sines(ctx: PrimeContext, cm: CmType) -> np.ndarray:
    """sin(2 pi j k / p), one row per member j of the CM type, k = 1..g."""
    return np.sin(2 * np.pi * np.outer(cm.members, np.arange(1, ctx.g + 1)) / ctx.p)


@dataclass(frozen=True, eq=False)
class PolarizationForm:
    """An integral alternating form attached to an odd coefficient vector."""

    ctx: PrimeContext
    cm_type: CmType
    c: tuple[int, ...]
    gram: np.ndarray
    alpha_imag: tuple[float, ...]
    pfaffian: int

    def __post_init__(self):
        self.gram.setflags(write=False)

    @property
    def is_principal_positive(self) -> bool:
        return abs(self.pfaffian) == 1 and all(v > 0 for v in self.alpha_imag)


def build_polarization(ctx: PrimeContext, cm: CmType, c) -> PolarizationForm:
    """Assemble the form data for a coefficient vector, without any gating."""
    c = tuple(int(x) for x in c)
    if len(c) != ctx.g:
        raise ValueError(f"need {ctx.g} coefficients, got {len(c)}")
    gram = gram_matrix(ctx, c)
    alpha_imag = 2.0 / ctx.p * (_sines(ctx, cm) @ np.array(c, dtype=np.float64))
    return PolarizationForm(ctx, cm, c, gram, tuple(alpha_imag.tolist()), pfaffian(gram))


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
    sines = _sines(ctx, cm)
    unit_product = math.sqrt(p) / 2**g  # prod_j s_j when |Pf| = 1
    candidates = itertools.product(range(-bound, bound + 1), repeat=g)
    chunk_size = 1 << 13
    while True:
        chunk = list(itertools.islice(candidates, chunk_size))
        if not chunk:
            break
        signs = np.asarray(chunk, dtype=np.float64) @ sines.T
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


def multiplication_matrix(ctx: PrimeContext) -> np.ndarray:
    """Multiplication by xi on the power basis (companion matrix of the p-th
    cyclotomic polynomial)."""
    M = np.eye(ctx.p - 1, k=-1, dtype=object)
    M[:, -1] = -1
    return M


@dataclass(frozen=True, eq=False)
class PeriodData:
    """A period matrix together with the exact data that produced it: the
    symplectic basis U and the induced automorphism R = U^-1 M U."""

    polarization: PolarizationForm
    U: np.ndarray
    R: np.ndarray
    tau: np.ndarray
    block_swapped: bool

    def __post_init__(self):
        self.U.setflags(write=False)
        self.R.setflags(write=False)


def period_matrix(polarization: PolarizationForm) -> PeriodData:
    """Period matrix of the CM lattice in a symplectic basis for the form.

    With W = (P1 | P2) the images of the symplectic basis under the embeddings
    of the CM type, E(x, y) = -2 sum_j Im phi_j(alpha) Im(phi_j(x) conj phi_j(y))
    fixes the block convention: tau = P1^-1 P2 (``block_swapped``) when every
    Im phi_j(alpha) is positive, tau = P2^-1 P1 when every one is negative,
    and with mixed signs the form polarizes no complex structure on this CM
    type.  Raises ``RiemannRelationsViolated`` naming the quantity that failed.
    """
    ctx, cm = polarization.ctx, polarization.cm_type
    E = polarization.gram
    U = symplectic_basis(E)
    violated = (f"Riemann relations violated for c = {list(polarization.c)} "
                f"on set {list(cm.members)}")
    signs = ["+" if v > 0 else "-" for v in polarization.alpha_imag]
    if len(set(signs)) > 1:
        raise RiemannRelationsViolated(
            f"{violated}: mixed signs of Im phi(alpha) ({', '.join(signs)})"
        )
    block_swapped = signs[0] == "+"
    images = np.exp(2j * np.pi * np.outer(np.array(cm.members), np.arange(ctx.p - 1)) / ctx.p)
    W = images @ U.astype(np.float64)
    g = ctx.g
    P1, P2 = W[:, :g], W[:, g:]
    try:
        tau = np.linalg.solve(P1, P2) if block_swapped else np.linalg.solve(P2, P1)
    except np.linalg.LinAlgError:
        raise RiemannRelationsViolated(f"{violated}: singular period block") from None
    asymmetry = np.max(np.abs(tau - tau.T))
    if asymmetry >= ALGEBRAIC_TOL:
        raise RiemannRelationsViolated(
            f"{violated}: asymmetry {asymmetry:.2g} >= {ALGEBRAIC_TOL:g}"
        )
    smallest = np.linalg.eigvalsh((tau.imag + tau.imag.T) / 2).min()
    if not smallest > ALGEBRAIC_TOL:
        raise RiemannRelationsViolated(
            f"{violated}: min eigenvalue of Im tau {smallest:.2g} <= {ALGEBRAIC_TOL:g}"
        )
    # U^T E U = J and J^-1 = -J give U^-1 = -J U^T E, so the induced
    # automorphism R = U^-1 M U is an integer product.
    R = -standard_symplectic(g) @ U.T @ E @ multiplication_matrix(ctx) @ U
    return PeriodData(polarization, U, R, tau, block_swapped)


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
        return all(self.to_json().values())

    def to_json(self) -> dict:
        return {
            "MEM": self.gram_preserved,
            "Rp": self.order_p,
            "symplectic": self.symplectic,
            "fixes_tau": self.fixes_tau,
            "spectrum": self.spectrum,
        }

    def failures(self) -> list[str]:
        """The failed checks in ``to_json`` order, each with its measured
        error where it has one, e.g. ``fixes_tau error 3.2e-07 >= 1e-08``."""
        measured = {"fixes_tau": self.fixes_tau_error, "spectrum": self.spectrum_error}
        return [
            f"{name} error {measured[name]:.2g} >= {COMPOSED_TOL:g}" if name in measured else name
            for name, ok in self.to_json().items() if not ok
        ]


def automorphism_check(data: PeriodData) -> AutomorphismReport:
    """Verify, exactly where possible, that multiplication by xi survives on
    the period point: it preserves the form, has order p, acts symplectically
    on the chosen basis, fixes tau, and has the prescribed eigenvalues."""
    pol = data.polarization
    p, g = pol.ctx.p, pol.ctx.g
    E, M, R = pol.gram, multiplication_matrix(pol.ctx), data.R
    J = standard_symplectic(g)

    gram_preserved = np.array_equal(M.T @ E @ M, E)
    order_p = np.array_equal(np.linalg.matrix_power(R, p), np.eye(p - 1, dtype=object))
    symplectic = np.array_equal(R.T @ J @ R, J)

    if data.block_swapped:
        perm = np.r_[g:2 * g, 0:g]
        R_eff = R[np.ix_(perm, perm)]
    else:
        R_eff = R
    S = R_eff.T.astype(np.float64)
    A, B = S[:g, :g], S[:g, g:]
    C, D = S[g:, :g], S[g:, g:]
    tau = data.tau
    try:
        image = np.linalg.solve((C @ tau + D).T, (A @ tau + B).T).T
        fixes_tau_error = float(np.max(np.abs(image - tau)))
    except np.linalg.LinAlgError:
        fixes_tau_error = float("inf")
    fixes_tau = fixes_tau_error < COMPOSED_TOL

    analytic = tau @ S.T[:g, g:] + S.T[g:, g:]
    eigs = np.linalg.eigvals(analytic)
    eigs = eigs[np.argsort(np.mod(np.angle(eigs), 2 * np.pi))]
    expected = np.exp(2j * np.pi * np.array(pol.cm_type.members) / p)
    spectrum_error = float(np.max(np.abs(eigs - expected)))
    spectrum = spectrum_error < COMPOSED_TOL

    return AutomorphismReport(
        gram_preserved, order_p, symplectic, fixes_tau, spectrum,
        fixes_tau_error, spectrum_error,
    )


def period_report(data: PeriodData) -> tuple[dict, AutomorphismReport]:
    """JSON-ready description of a period point plus its check report."""
    report = automorphism_check(data)
    pol = data.polarization
    doc = {
        "p": pol.ctx.p,
        "set": list(pol.cm_type.members),
        "c": list(pol.c),
        "pfaffian": pol.pfaffian,
        "tau_re": data.tau.real.tolist(),
        "tau_im": data.tau.imag.tolist(),
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
