"""Character decomposition of differentials on cyclic p-covers of the line.

A curve y**p = prod (x - e_i)**(a_i) with p prime and all a_i nonzero mod p
carries the order-p automorphism y -> zeta*y.  Holomorphic differentials
split into character eigenspaces indexed by t = 1..p-1 (the eigenvector
shape is f(x) y**(-t) dx), and the multiplicity of each character follows
from the branch exponents by the Chevalley-Weil formula.  For three branch
points the multiplicities are 0/1 and the support of the spectrum is a CM
type, which ties concrete curves to the lattice classification.
"""

from dataclasses import dataclass

from .cmtypes import CmType, is_cm_type
from .fp import PrimeContext, read_int
from .orbits import orbit_class
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
        exps = tuple(self.ctx.check_residue(read_int(a, "exponent")) for a in self.exponents)
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
    """Chevalley-Weil: the sum of fractional parts <t a / p> over all branch
    exponents, minus 1."""
    p = spec.ctx.p
    return sum(t * a % p for a in spec.exponents) // p - 1


def cw_spectrum(spec: CyclicCoverSpec) -> dict[int, int]:
    """Multiplicity of every character t = 1..p-1 on holomorphic differentials.

    Uses the Chevalley-Weil closed form for any number of branch points.
    Characters with multiplicity zero are omitted.
    """
    spectrum = {}
    for t in range(1, spec.ctx.p):
        m = _closed_form_multiplicity(spec, t)
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
    if isinstance(spectrum, dict) and any(m != 1 for m in spectrum.values()):
        raise ValueError("spectrum has repeated characters: support is not a CM type")
    support = spectrum_support(spectrum)
    if not is_cm_type(ctx, support):
        raise ValueError(f"support is not a CM type mod {ctx.p}: {list(support)}")
    return classification_row(orbit_class(CmType(ctx, support)))
