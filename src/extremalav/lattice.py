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
frozen dataclasses are read-only.  Both halves of Z[xi] = Z[xi+] + xi Z[xi+]
are Lagrangian for every such form, so each form carries one symmetric
g x g matrix P, the form between the halves: its Pfaffian is det P, and the
symplectic basis (``symplectic_basis``) is the fixed split basis times
diag(A, (A^T P)^-1) for any basis A of Z[xi+].  One fraction-free
elimination gives det P and that inverse; the induced lattice automorphism
is an integer matrix product.  ``pfaffian``, the Pfaffian of any integer
skew matrix by fraction-free skew elimination, is the independent
reference for det P.
Products run in int64 only while a bound on their entries proves that no
partial sum leaves its range, and on Python ints otherwise.  Floating point
enters only in the polarization prescreen (the head skip and the sign
compare), whose every hit an exact Pfaffian confirms, in the LLL reduction
that picks A (the exact check U^T E U == J judges its result), and in the
period matrix itself and its verification.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cmtypes import CmType
from .errors import InternalCheckFailed, PolarizationNotFound, RiemannRelationsViolated
from .fp import PrimeContext, is_int, read_int

ALGEBRAIC_TOL = 1e-9
COMPOSED_TOL = 1e-8
#: Half-width of the coefficient box that ``find_polarization`` searches.
DEFAULT_BOUND = 5


# ---------------------------------------------------------------------------
# exact integer linear algebra


def standard_symplectic(g: int) -> np.ndarray:
    """The 2g x 2g block matrix [[0, I], [-I, 0]]."""
    J = np.zeros((2 * g, 2 * g), dtype=object)
    i = np.arange(g)
    J[i, i + g] = 1
    J[i + g, i] = -1
    return J


def pfaffian(E) -> int:
    """Exact Pfaffian of an integer skew-symmetric matrix.

    Fraction-free skew elimination, the Pfaffian analogue of the Bareiss step
    in ``_det_adjugate`` (Knuth, "Overlapping Pfaffians", 1996).  The step on
    the pivot pair (t, t+1), with a = X[t, t+1], u and v the rest of rows t
    and t+1 and ``previous`` the last pivot, maps the trailing block X to
    (a X - u v^T + v u^T) // previous.  Entry (i, j) is then the Pfaffian of
    rows and columns 0..t+1, i, j of E, so every division is exact and no
    entry grows beyond a sub-Pfaffian; the last pivot is Pf(E).  A zero row
    in the trailing block makes E degenerate, and swapping two indices
    negates the Pfaffian.
    """
    E = np.asarray(E, dtype=object)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    if len(E) % 2:
        raise ValueError("pfaffian undefined for odd dimension")
    if not np.array_equal(E, -E.T):
        raise ValueError("pfaffian needs a skew-symmetric matrix")
    if not all(is_int(x) for x in E.flat):
        raise ValueError("pfaffian needs an integer matrix")
    X = np.frompyfunc(int, 1, 1)(E)  # numpy integer entries would wrap
    sign, previous = 1, 1
    for t in range(0, len(X), 2):
        cols = np.flatnonzero(X[t, t + 1:]) + t + 1
        if not cols.size:
            return 0
        if cols[0] != t + 1:
            swap = [t + 1, cols[0]]
            X[swap] = X[swap[::-1]]
            X[:, swap] = X[:, swap[::-1]]
            sign = -sign
        a, u, v = X[t, t + 1], X[t, t + 2:, None], X[t + 1, t + 2:, None]
        X[t + 2:, t + 2:] = (a * X[t + 2:, t + 2:] - u * v.T + v * u.T) // previous
        previous = a
    return sign * previous


def _max_abs(X: np.ndarray) -> int:
    return int(np.abs(X).max(initial=0))


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for integer matrices, exactly.

    Every partial sum of an n-term dot product is at most n * max|A| * max|B|
    in absolute value, so below 2**63 the product runs in int64 and returns
    int64; otherwise it runs on Python ints and returns an object array.
    """
    if A.shape[1] * max(_max_abs(A), 1) * max(_max_abs(B), 1) < 1 << 63:
        return A.astype(np.int64) @ B.astype(np.int64)
    return A.astype(object) @ B.astype(object)


def _power(R: np.ndarray, e: int) -> np.ndarray:
    """R**e, e >= 0, by repeated squaring through ``_matmul``."""
    result = np.eye(len(R), dtype=np.int64)
    while e:
        if e & 1:
            result = _matmul(result, R)
        e >>= 1
        if e:
            R = _matmul(R, R)
    return result


def _det_adjugate(M) -> tuple[int, np.ndarray | None]:
    """Determinant and adjugate of a square integer matrix, on Python ints.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [M | I]: every entry
    after step k is a minor of [M | I], so each division is exact.  The rows
    stay integer combinations of the rows of [M | I], so when the left block
    ends as d * I, d the last pivot, the right block L has L M = d I; d is
    det M up to the sign of the row swaps, and adj M = det M * M^-1 is that
    sign times L.  A singular M returns (0, None).
    """
    n = len(M)
    X = np.concatenate((np.asarray(M, dtype=object), np.eye(n, dtype=object)), axis=1)
    sign, previous = 1, 1
    for k in range(n):
        rows = np.flatnonzero(X[k:, k]) + k
        if not rows.size:
            return 0, None
        if rows[0] != k:
            X[[k, rows[0]]] = X[[rows[0], k]]
            sign = -sign
        pivot_row = X[k].copy()
        X = (X[k, k] * X - X[:, k, None] * pivot_row) // previous
        X[k] = pivot_row
        previous = pivot_row[k]
    return sign * previous, sign * X[:, n:]


def _lll(G: np.ndarray) -> np.ndarray:
    """Unimodular integer A whose columns are an LLL-reduced basis
    (delta = 0.99) of Z**n under the positive-definite Gram matrix G.

    Cohen, GTM 138, Alg. 2.6.3, on inner products only: the Gram-Schmidt
    coefficients mu and squared lengths B are updated at each size reduction
    and swap, never recomputed.  A vector that step 2 meets for the first
    time is still e_k, so its products with the basis are G[k] @ b_j.
    """
    n = len(G)
    G = G.tolist()
    b = [[int(i == j) for j in range(n)] for i in range(n)]  # b[k]: vector k in the input basis
    mu = [[0.0] * n for _ in range(n)]
    B = [G[0][0]] + [0.0] * (n - 1)

    def size_reduce(k, l):
        q = round(mu[k][l])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            for j in range(k):
                dot = sum(x * y for x, y in zip(G[k], b[j]))
                mu[k][j] = (dot - sum(mu[j][i] * mu[k][i] * B[i] for i in range(j))) / B[j]
            B[k] = G[k][k] - sum(mu[k][j] ** 2 * B[j] for j in range(k))
        size_reduce(k, k - 1)
        if B[k] < (0.99 - mu[k][k - 1] ** 2) * B[k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            for j in range(k - 1):
                mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
            m = mu[k][k - 1]
            swapped = B[k] + m * m * B[k - 1]
            mu[k][k - 1] = m * B[k - 1] / swapped
            B[k] = B[k - 1] * B[k] / swapped
            B[k - 1] = swapped
            for i in range(k + 1, k_max + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return np.array(b, dtype=object).T


# ---------------------------------------------------------------------------
# the CM lattice and its alternating forms


def _odd_table(ctx: PrimeContext, c) -> np.ndarray:
    """c extended to all residues mod p as Python ints: c_0 = 0, c_{p-k} = -c_k."""
    c = [read_int(x, "coefficient") for x in c]
    if len(c) != ctx.g:
        raise ValueError(f"need {ctx.g} coefficients, got {len(c)}")
    return np.array([0, *c, *(-x for x in reversed(c))], dtype=object)


def riemann_form_value(ctx: PrimeContext, c, a: int, b: int) -> int:
    """The alternating form on power-basis vectors: E(xi**a, xi**b).

    Equals the trace of alpha * xi**(a-b), which collapses to a single
    coefficient lookup because the traces of nontrivial p-th roots are all -1
    and the c-table is odd.
    """
    table = _odd_table(ctx, c)
    for a_, name in ((a, "a"), (b, "b")):
        if not is_int(a_) or not 0 <= a_ <= ctx.p - 2:
            raise ValueError(f"{name} out of range 0..{ctx.p - 2}: {a_}")
    return table[(b - a) % ctx.p]


def gram_matrix(ctx: PrimeContext, c) -> np.ndarray:
    """Gram matrix of the form on the power basis."""
    return _gram(_odd_table(ctx, c))


def _gram(table: np.ndarray) -> np.ndarray:
    """Gram matrix on the power basis from the odd table mod p = len(table)."""
    k = np.arange(len(table) - 1)
    return table[(k - k[:, None]) % len(table)]


def _sines(cm: CmType) -> np.ndarray:
    """sin(2 pi j k / p), one row per member j of the CM type, k = 1..g."""
    return np.sin(2 * np.pi * np.outer(cm.members, np.arange(1, cm.ctx.g + 1)) / cm.ctx.p)


def _weights(g: int) -> np.ndarray:
    """0/1 weight rows over g embeddings: every set of one, two or three of
    them (all 2**g - 1 nonempty sets when g <= 3).  Larger sets skip few
    more heads, and as g grows their longer product per head costs more than
    the compares they save."""
    sets = [s for size in (1, 2, 3) for s in itertools.combinations(range(g), size)]
    return np.array([[i in s for i in range(g)] for s in sets], dtype=np.float64)


def _live_heads(sines: np.ndarray, t: int, bound: int):
    """Yield each head (the first g - t coefficients, in lexicographic order)
    that some tail in the box may make positive on every embedding, with its
    shift ``sines[:, :g - t] @ head`` as a column.

    For a weight row w >= 0 of ``_weights``, w . (shift + tail signs) is at
    most w . shift + reach_w, where reach_w = bound * sum_k |(w . tail
    sines)_k| is the maximum of w . (tail signs) over the box.  When
    w . shift + reach_w < -margin_w for some w, every tail leaves a sign
    negative (the easy half of Farkas' lemma), and the head is skipped.
    Every |sin| is at most 1, so |w . signs| <= bound * g * |w|_1 for each c
    in the box, and both sides round by a few units of 2**-52 times that.
    margin_w = 1e-9 * (1 + bound * g * |w|_1) is far above it, so every
    tail of a skipped head also fails the float compare in
    ``find_polarization``.
    A block of heads is tested with one product of at most 2**18 doubles;
    each live head, a tuple of Python ints, gets its shift from its own product.
    """
    g = len(sines)
    weights = _weights(g)
    weighted = weights @ sines
    head_weights = weighted[:, :g - t]
    floor = (-bound * np.abs(weighted[:, g - t:]).sum(axis=1, keepdims=True)
             - 1e-9 * (1 + bound * g * weights.sum(axis=1, keepdims=True)))
    width = 2 * bound + 1
    place = np.array([width ** k for k in range(g - t - 1, -1, -1)])[:, None]
    block = max(1, (1 << 18) // len(weights))
    for start in range(0, width ** (g - t), block):
        heads = np.arange(start, min(start + block, width ** (g - t))) // place % width - bound
        for head in map(tuple, heads[:, (head_weights @ heads >= floor).all(axis=0)].T.tolist()):
            yield head, (sines[:, :g - t] @ head)[:, None]


@dataclass(frozen=True, eq=False)
class PolarizationForm:
    """An integral alternating form attached to an odd coefficient vector.

    ``P`` is the form on the Lagrangian split: on the basis theta_1..theta_g,
    xi theta_1..xi theta_g of Z[xi] (``_split_basis``) its Gram matrix is
    [[0, P], [-P, 0]], and ``pfaffian`` is det P.
    """

    cm_type: CmType
    c: tuple[int, ...]
    gram: np.ndarray
    alpha_imag: tuple[float, ...]
    pfaffian: int
    P: np.ndarray

    def __post_init__(self):
        self.gram.setflags(write=False)
        self.P.setflags(write=False)

    @property
    def is_principal_positive(self) -> bool:
        return abs(self.pfaffian) == 1 and all(v > 0 for v in self.alpha_imag)

    def to_json(self) -> dict:
        return {**self.cm_type.to_json(), "c": list(self.c), "pfaffian": self.pfaffian}


def build_polarization(cm: CmType, c) -> PolarizationForm:
    """Assemble the form data for a coefficient vector, without any gating.

    With theta_k = xi**k + xi**-k, E(theta_i, xi theta_j) is the sum of the
    four table entries c[1 + j - i], c[1 - i - j], c[1 + i + j], c[1 + i - j]
    (indices mod p), which is symmetric in i and j.  E vanishes on real
    pairs, since the table is odd, and so on each half of the split.
    Pf(E) = det(split) * (-1)**(g(g-1)/2) * det P, and det(split) cancels the
    sign, so the Pfaffian is det P exactly.
    """
    ctx = cm.ctx
    table = _odd_table(ctx, c)
    c = tuple(table[1:ctx.g + 1])
    alpha_imag = 2.0 / ctx.p * (_sines(cm) @ np.array(c, dtype=np.float64))
    i, j = np.ogrid[1:ctx.g + 1, 1:ctx.g + 1]
    P = sum(table[(1 + s * i + t * j) % ctx.p] for s in (-1, 1) for t in (-1, 1))
    return PolarizationForm(cm, c, _gram(table), tuple(alpha_imag.tolist()),
                            _det_adjugate(P)[0], P)


def find_polarization(ctx: PrimeContext, cm: CmType,
                      bound: int = DEFAULT_BOUND) -> PolarizationForm:
    """First coefficient vector in the box [-bound, bound]**g (lexicographic
    order) whose form is unimodular and positive on every selected embedding.

    With s_j = sum_k c_k sin(2 pi j k / p), positivity is s_j > 0 for j in the
    CM type, and the Pfaffian has the closed form |Pf| = 2**g * prod_j s_j / sqrt(p).
    |Pf| is an integer, so comparing prod_j s_j with sqrt(p) / 2**g to within
    half of that value separates |Pf| = 1 from every other value with room to
    spare; the form's ``is_principal_positive`` then decides each hit.

    Each s_j is linear in c, so the signs of every tail (the last t
    coefficients, in lexicographic order) are tabled once, and each head (the
    first g - t, in the same order) shifts that table.  t is the most that
    gives at most 2**14 tails, and at least 1: up to bound 8191 memory does
    not grow with bound, and above it the table has width columns, one per
    value of the last coefficient.  The tail grid is filled as floats, row i
    broadcasting the range -bound..bound along axis i; these are the values,
    in the order, of an integer grid, so the product with the sines needs no
    cast and gives the same doubles.
    A head that no tail can make positive on every embedding is skipped
    before any compare (``_live_heads``: a weighted sum of the signs stays
    negative over the whole tail box); every tail of a skipped head would
    fail the compare too, so the winner is the same.  Each other head
    compares the table with minus its shift before adding anything: for
    finite doubles fl(a + b) > 0 exactly when a > -b, so the tails kept
    are the same, and only they are summed and multiplied.  Each hit is built
    once, and det P gives its exact Pfaffian.

    Raises ``PolarizationNotFound`` when the box is exhausted; ``cm`` must be mod ``ctx``.
    """
    if cm.ctx != ctx:
        raise ValueError(f"prime context p = {ctx.p} does not match CM type mod {cm.ctx.p}")
    bound = read_int(bound, "bound")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    g, p = ctx.g, ctx.p
    width = 2 * bound + 1
    t = next((t for t in range(g, 1, -1) if width ** t <= 1 << 14), 1)
    sines = _sines(cm)
    unit_product = math.sqrt(p) / 2**g  # prod_j s_j when |Pf| = 1
    tails = np.empty((t,) + (width,) * t)  # one column per tail, as floats
    for i in range(t):
        tails[i] = np.arange(-bound, bound + 1.0).reshape((width,) + (1,) * (t - 1 - i))
    tails = tails.reshape(t, -1)
    tail_signs = sines[:, g - t:] @ tails
    for head, shift in _live_heads(sines, t, bound):
        positive = np.flatnonzero((tail_signs > -shift).all(axis=0))
        products = (tail_signs[:, positive] + shift).prod(axis=0)
        for idx in positive[np.abs(products - unit_product) < unit_product / 2]:
            form = build_polarization(cm, (*head, *map(int, tails[:, idx])))
            if form.is_principal_positive:
                return form
    raise PolarizationNotFound(
        f"no polarization in box [-{bound}, {bound}]^{g} for set {list(cm.members)} mod {p}"
    )


# ---------------------------------------------------------------------------
# period matrices and the induced automorphism


def multiplication_matrix(ctx: PrimeContext) -> np.ndarray:
    """Multiplication by xi on the power basis (companion matrix of the p-th
    cyclotomic polynomial)."""
    return _times_xi(np.eye(ctx.p - 1, dtype=object))


def _times_xi(X: np.ndarray) -> np.ndarray:
    """X times multiplication by xi on the power basis, exactly, as a shift:
    column j of the product is column j+1 of X, and the last is minus the row
    sums, since xi**(p-1) = -(1 + xi + ... + xi**(p-2))."""
    return np.concatenate((X[:, 1:], -X.sum(axis=1, keepdims=True)), axis=1)


def _split_basis(p: int) -> np.ndarray:
    """Power-basis coordinates of theta_1..theta_g, then xi theta_1..xi theta_g,
    theta_k = xi**k + xi**-k, as columns: a Z-basis of Z[xi] = Z[xi+] +
    xi Z[xi+]."""
    g = (p - 1) // 2
    k = np.tile(np.arange(1, g + 1), 2)
    shift = np.repeat([0, 1], g)
    X = np.zeros((p, 2 * g), dtype=np.int64)  # coefficients of xi**0 .. xi**(p-1)
    X[(shift + k) % p, np.arange(2 * g)] = 1
    X[(shift - k) % p, np.arange(2 * g)] = 1
    return X[:-1] - X[-1]  # xi**(p-1) = -(1 + xi + ... + xi**(p-2))


@dataclass(frozen=True, eq=False)
class PeriodData:
    """A period matrix together with the exact data that produced it: the
    symplectic basis U with U^T E U = ``standard_symplectic(g)`` and the
    induced automorphism R = U^-1 M U, M = ``multiplication_matrix(ctx)``."""

    polarization: PolarizationForm
    U: np.ndarray
    R: np.ndarray
    tau: np.ndarray
    block_swapped: bool

    def __post_init__(self):
        for matrix in (self.U, self.R):
            matrix.setflags(write=False)


def symplectic_basis(polarization: PolarizationForm) -> np.ndarray:
    """Symplectic basis U of Z[xi] for a principal form: U^T E U equals
    ``standard_symplectic(g)``, checked exactly.

    U = split diag(A, (A^T P)^-1), ``_split_basis``: A is an LLL basis of
    Z[xi+] under x -> sum_j |Im phi_j(alpha)| phi_j(x)**2,
    phi_j(theta_k) = 2 cos(2 pi j k / p), and its dual under P spans
    xi Z[xi+].  det(A^T P) = +-1, so the inverse is integral.  The reduced A
    keeps U small, so that tau and the checks lose little to rounding.
    Raises ValueError naming the Pfaffian when the form is not principal.
    """
    ctx, cm = polarization.cm_type.ctx, polarization.cm_type
    E, P = polarization.gram, polarization.P
    g = ctx.g
    if abs(polarization.pfaffian) != 1:
        raise ValueError(f"form is not principal (Pfaffian {polarization.pfaffian}): "
                         "no symplectic basis")
    theta = 2 * np.cos(2 * np.pi * np.outer(cm.members, np.arange(1, g + 1)) / ctx.p)
    A = _lll(theta.T @ (np.abs(polarization.alpha_imag)[:, None] * theta))
    det, adjugate = _det_adjugate(_matmul(A.T, P))
    split = _split_basis(ctx.p)
    U = np.concatenate((_matmul(split[:, :g], A), _matmul(split[:, g:], det * adjugate)),
                       axis=1).astype(object)
    if not np.array_equal(_matmul(_matmul(U.T, E), U), standard_symplectic(g)):
        raise InternalCheckFailed("symplectic basis failed verification")
    return U


def period_matrix(polarization: PolarizationForm) -> PeriodData:
    """Period matrix of the CM lattice in the symplectic basis
    ``symplectic_basis(polarization)``.

    With W = (P1 | P2) the images of the symplectic basis under the embeddings
    of the CM type, E(x, y) = -2 sum_j Im phi_j(alpha) Im(phi_j(x) conj phi_j(y))
    fixes the block convention: tau = P1^-1 P2 (``block_swapped``) when every
    Im phi_j(alpha) is positive, tau = P2^-1 P1 when every one is negative,
    and with mixed signs the form polarizes no complex structure on this CM
    type.  Raises ``RiemannRelationsViolated`` naming the quantity that failed,
    and ValueError naming the Pfaffian when the form is not principal.
    """
    ctx, cm = polarization.cm_type.ctx, polarization.cm_type
    E = polarization.gram
    g = ctx.g
    U = symplectic_basis(polarization)
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
    # automorphism R = U^-1 M U = -J (U^T E M) U is an integer product; the
    # factor M is a shift, applied to E itself because its row sums are not
    # guarded against int64, and -J X is the signed block swap [-X_2; X_1].
    X = _matmul(_matmul(U.T, _times_xi(E)), U)
    R = np.concatenate((-X[g:], X[:g])).astype(object)
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
    p, g = pol.cm_type.ctx.p, pol.cm_type.ctx.g
    E, R = pol.gram, data.R

    # M^T E M is ((E M)^T M)^T, two shifts, and J R is the swap [R_2; -R_1].
    gram_preserved = np.array_equal(_times_xi(_times_xi(E).T).T, E)
    order_p = np.array_equal(_power(R, p), np.eye(p - 1, dtype=object))
    symplectic = np.array_equal(_matmul(R.T, np.concatenate((R[g:], -R[:g]))),
                                standard_symplectic(g))

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
    doc = {
        **data.polarization.to_json(),
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
