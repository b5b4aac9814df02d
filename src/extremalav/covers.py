"""Character decomposition of differentials on cyclic p-covers of the line.

A curve y**p = prod (x - e_i)**(a_i) with p prime and all a_i nonzero mod p
carries the order-p automorphism y -> zeta*y.  Holomorphic differentials
split into character eigenspaces indexed by t = 1..p-1 (the eigenvector
shape is f(x) y**(-t) dx), and the multiplicity of each character follows
from the valuations at the branch points.  For three branch points the
multiplicities are 0/1 and the support of the spectrum is a CM type, which
ties concrete curves to the lattice classification.
"""

from dataclasses import dataclass

from .cmtypes import CmType, is_cm_type
from .fp import PrimeContext
from .lattice import int_rank_det
from .strata import classification_row


@dataclass(frozen=True)
class CyclicCoverSpec:
    """Branch data of a totally ramified cyclic p-cover of the line.

    ``exponents`` lists the branch exponents at finite points; when they do
    not sum to zero mod p the cover also ramifies over infinity and the
    missing exponent is appended, so the stored tuple is always balanced.
    """

    ctx: PrimeContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(a) for a in self.exponents)
        for a in exps:
            self.ctx.check_residue(a)
        missing = -sum(exps) % self.ctx.p
        if missing:
            exps = exps + (missing,)
        if len(exps) < 3:
            raise ValueError(
                f"need at least 3 branch points for positive genus, got {len(exps)}"
            )
        object.__setattr__(self, "exponents", exps)

    @property
    def branch_count(self) -> int:
        return len(self.exponents)


def cover_genus(spec: CyclicCoverSpec) -> int:
    """Genus by Riemann-Hurwitz: every branch point is totally ramified."""
    return (spec.ctx.p - 1) * (spec.branch_count - 2) // 2


def _closed_form_multiplicity(spec: CyclicCoverSpec, t: int) -> int:
    """sum of fractional parts <t a / p> over all branch exponents, minus 1."""
    p = spec.ctx.p
    return sum(t * a % p for a in spec.exponents) // p - 1


def _bruteforce_multiplicity(spec: CyclicCoverSpec, t: int) -> int:
    """Dimension of the character-t eigenspace by explicit differentials.

    Places the last branch point at infinity and the others at 0, 1, ...,
    enumerates the monomial differentials prod (x - e_i)**(r_i) y**(-t) dx
    with non-negative valuation everywhere, and returns the rank of their
    span (the monomials become dependent once the eigenspace has dimension
    two or more, so counting them would overshoot).
    """
    p = spec.ctx.p
    finite = spec.exponents[:-1]
    lower = [t * a // p for a in finite]
    degree_cap = t * sum(finite) // p - 1
    budget = degree_cap - sum(lower)
    if budget < 0:
        return 0

    tuples = [[]]
    for _ in finite:
        tuples = [prefix + [extra] for prefix in tuples
                  for extra in range(budget - sum(prefix) + 1)]
    vectors = []
    for extras in tuples:
        poly = [1]
        for e, (low, extra) in enumerate(zip(lower, extras)):
            for _ in range(low + extra):
                poly = [c1 - e * c0 for c1, c0 in zip([0] + poly, poly + [0])]
        vectors.append(poly + [0] * (degree_cap + 1 - len(poly)))
    return int_rank_det(vectors)[0]


def cw_spectrum(spec: CyclicCoverSpec) -> dict[int, int]:
    """Multiplicity of every character t = 1..p-1 on holomorphic differentials.

    Three-branch covers use the fractional-part closed form; covers with more
    branch points are computed from the differentials themselves.  Characters
    with multiplicity zero are omitted.
    """
    if spec.branch_count == 3:
        mult = _closed_form_multiplicity
    else:
        mult = _bruteforce_multiplicity
    spectrum = {}
    for t in range(1, spec.ctx.p):
        m = mult(spec, t)
        if m:
            spectrum[t] = m
    return spectrum


def spectrum_support(spectrum: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted(spectrum))


def spectrum_class(ctx: PrimeContext, spectrum) -> dict:
    """Classification row of the CM type supporting a multiplicity-free spectrum.

    Accepts either a spectrum dict or a bare support iterable; rejects
    spectra with repeated characters or whose support is not a CM type.
    """
    if isinstance(spectrum, dict):
        if any(m != 1 for m in spectrum.values()):
            raise ValueError("spectrum has repeated characters: support is not a CM type")
        support = spectrum_support(spectrum)
    else:
        support = tuple(sorted(spectrum))
    if not is_cm_type(ctx, support):
        raise ValueError(f"support is not a CM type mod {ctx.p}: {list(support)}")
    return classification_row(ctx, CmType(ctx, support))
