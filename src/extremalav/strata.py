"""Isolation of a polarized class inside the singular locus of moduli.

A class is an isolated singular point exactly when its stabilizer is trivial;
equivalently (for these maximal-prime-order classes) when the underlying
torus is simple.  A nontrivial stabilizer element theta of prime order q
places the class inside a positive-dimensional stratum of classes admitting
an order-q automorphism, whose dimension is computable from the eigenvalue
multiplicities (n_0, ..., n_{q-1}) of the induced analytic action:

    dim = n_0 (n_0 + 1) / 2  +  sum_{i=1}^{(q-1)/2} n_i n_{q-i}

with n_i + n_{q-i} constant (= r) for i != 0 and g = n_0 + r (q-1)/2.

``classification_row`` gives the verdict of an orbit class from the
stabilizer the class already carries, so a classify run translates no CM
type beyond the orbit sweep.
"""

import enum
from dataclasses import dataclass

from .cmtypes import CmType
from .fp import PrimeContext, element_order, is_prime
from .orbits import OrbitClass, Stabilizer, act, stabilizer
# Not called here: kept so that the layer tracer in bench/layers.py can wrap it.
from .orbits import canonical_form  # noqa: F401


@dataclass(frozen=True)
class SpectrumProfile:
    """Eigenvalue multiplicities of an order-q action on a g-dimensional torus.

    ``multiplicities[i]`` counts the eigenvalue exp(2*pi*i*I/q); the profile
    must satisfy the pairing constraint n_i + n_{q-i} = r for i != 0.
    """

    q: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        n = self.multiplicities
        if not is_prime(self.q):
            raise ValueError(f"inconsistent spectrum: q = {self.q} is not prime")
        if len(n) != self.q or any(m < 0 or not isinstance(m, int) for m in n):
            raise ValueError(f"inconsistent spectrum: need {self.q} multiplicities >= 0")
        pair_sums = {n[i] + n[self.q - i] for i in range(1, (self.q + 1) // 2)}
        if len(pair_sums) > 1:
            raise ValueError(
                f"inconsistent spectrum: pair sums n_i + n_(q-i) differ: {sorted(pair_sums)}"
            )

    @property
    def g(self) -> int:
        return sum(self.multiplicities)

    @property
    def r(self) -> int:
        """Common value of n_i + n_{q-i} for i != 0."""
        return self.multiplicities[1] + self.multiplicities[self.q - 1]


def stratum_dimension(profile: SpectrumProfile) -> int:
    """Dimension of the stratum of polarized tori carrying this action."""
    n = profile.multiplicities
    q = profile.q
    return n[0] * (n[0] + 1) // 2 + sum(n[i] * n[q - i] for i in range(1, (q + 1) // 2))


def extremal_profile(ctx: PrimeContext, cm: CmType) -> SpectrumProfile:
    """Profile of the order-p action itself: n_0 = 0 and n_i = [i in C]."""
    members = set(cm.members)
    return SpectrumProfile(ctx.p, tuple(1 if i in members else 0 for i in range(ctx.p)))


def is_isolated(ctx: PrimeContext, cm: CmType) -> bool:
    """True iff the class of ``cm`` is an isolated singular point (trivial stabilizer)."""
    return stabilizer(ctx, cm).order == 1


def is_simple(ctx: PrimeContext, cm: CmType) -> bool:
    """True iff the underlying torus is simple; coincides with ``is_isolated``."""
    return is_isolated(ctx, cm)


class SumVerdict(enum.Enum):
    GUARANTEED_TRIVIAL = "guaranteed_trivial"
    INCONCLUSIVE = "inconclusive"


def sum_criterion(ctx: PrimeContext, cm: CmType) -> SumVerdict:
    """Cheap sufficient test: members summing to a nonzero residue force a
    trivial stabilizer (a stabilizer element u != 1 would scale the sum by u).
    """
    if sum(cm.members) % ctx.p != 0:
        return SumVerdict.GUARANTEED_TRIVIAL
    return SumVerdict.INCONCLUSIVE


def stabilizer_element_profile(ctx: PrimeContext, cm: CmType, u: int) -> SpectrumProfile:
    """Eigenvalue profile of a prime-order stabilizer element u acting on the members.

    Multiplication by u permutes the members without fixed points, so they
    fall into m = g/q cycles of length q = ord(u) and every q-th root of
    unity occurs with multiplicity m.
    """
    ctx.check_residue(u)
    if u == 1:
        raise ValueError("u = 1 carries no stratum information")
    if act(ctx, u, cm) != cm:
        raise ValueError(f"{u} does not stabilize {list(cm.members)} mod {ctx.p}")
    q = element_order(ctx, u)
    if not is_prime(q):
        raise ValueError(f"stabilizer element {u} has composite order {q}")
    remaining = set(cm.members)
    cycles = 0
    while remaining:
        s = next(iter(remaining))
        length = 0
        while s in remaining:
            remaining.remove(s)
            s = u * s % ctx.p
            length += 1
        if length != q:
            raise ArithmeticError(f"cycle of length {length} != order {q}")
        cycles += 1
    return SpectrumProfile(q, (cycles,) * q)


@dataclass(frozen=True)
class StratumReport:
    """A positive-dimensional stratum containing a non-isolated class."""

    q: int
    theta: int
    profile: SpectrumProfile
    dim: int

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "theta": self.theta,
            "multiplicities": list(self.profile.multiplicities),
            "dim": self.dim,
        }


def containing_strata(ctx: PrimeContext, cm: CmType) -> list[StratumReport]:
    """One stratum report per prime divisor q of the stabilizer order.

    For each q the witness theta is the smallest stabilizer element of order
    q.  Empty exactly when the class is isolated.
    """
    return _strata(ctx, cm, stabilizer(ctx, cm))


def _strata(ctx: PrimeContext, cm: CmType, stab: Stabilizer) -> list[StratumReport]:
    reports = []
    order = stab.order
    q = 2
    while q <= order:
        if order % q == 0:
            theta = min(u for u in stab.elements if element_order(ctx, u) == q)
            profile = stabilizer_element_profile(ctx, cm, theta)
            reports.append(StratumReport(q, theta, profile, stratum_dimension(profile)))
        q += 1
        while q <= order and not is_prime(q):
            q += 1
    return reports


def classification_row(ctx: PrimeContext, cls: OrbitClass) -> dict:
    """The classify row of an orbit class: its JSON, then the verdict.

    The verdict comes from the class's own stabilizer; a trivial one has no
    containing strata, and ``_strata`` returns at once for it.
    """
    canonical, stab = cls.canonical, cls.stabilizer
    row = cls.to_json()
    row["isolated"] = row["simple"] = stab.order == 1
    row["sum_mod_p"] = sum(canonical.members) % ctx.p
    row["containing_strata"] = [r.to_json() for r in _strata(ctx, canonical, stab)]
    return row
