"""Isolation of a polarized class inside the singular locus of moduli.

A class is an isolated singular point exactly when its stabilizer is trivial;
equivalently (for these maximal-prime-order classes) when the underlying
torus is simple.  A nontrivial stabilizer element theta of odd prime order q
places the class inside a positive-dimensional stratum of classes admitting
an order-q automorphism, whose dimension is computable from the eigenvalue
multiplicities (n_0, ..., n_{q-1}) of the induced analytic action:

    dim = n_0 (n_0 + 1) / 2  +  sum_{i=1}^{(q-1)/2} n_i n_{q-i}

with n_i + n_{q-i} constant (= r) for i != 0 and g = n_0 + r (q-1)/2.

The stabilizer is the unique subgroup of (Z/p)^* of its order, and it acts
freely on the g members of a CM type, so the order alone fixes every stratum:
for each prime q dividing it, theta is the smallest nontrivial q-th root of
unity and each q-th root of unity has multiplicity g/q.  ``classification_row``
gives the verdict of an orbit class from the stabilizer order the class
already carries, so a classify run translates no CM type beyond the orbit
sweep.
"""

import enum
from dataclasses import dataclass

from .cmtypes import CmType
from .fp import PrimeContext, element_order, is_int, is_prime
from .orbits import OrbitClass, _subgroup, stabilizer
# Not called here: kept so that the layer tracer in bench/layers.py can wrap it.
from .orbits import canonical_form  # noqa: F401


@dataclass(frozen=True)
class SpectrumProfile:
    """Eigenvalue multiplicities of an action of odd prime order q on a
    g-dimensional torus (at q = 2 the -1 eigenspace is real).

    ``multiplicities[i]`` counts the eigenvalue exp(2*pi*i*I/q); the profile
    must satisfy the pairing constraint n_i + n_{q-i} = r for i != 0.
    """

    q: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        n = tuple(self.multiplicities)
        if not is_prime(self.q):
            raise ValueError(f"inconsistent spectrum: q = {self.q} is not prime")
        if self.q == 2:
            raise ValueError("inconsistent spectrum: q = 2 is not an odd prime")
        if len(n) != self.q or any(not is_int(m) or m < 0 for m in n):
            raise ValueError(f"inconsistent spectrum: need {self.q} multiplicities >= 0")
        n = tuple(map(int, n))
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "multiplicities", n)
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


def extremal_profile(cm: CmType) -> SpectrumProfile:
    """Profile of the order-p action itself: n_0 = 0 and n_i = [i in C]."""
    p, members = cm.ctx.p, set(cm.members)
    return SpectrumProfile(p, tuple(1 if i in members else 0 for i in range(p)))


def is_isolated(cm: CmType) -> bool:
    """True iff the class of ``cm`` is an isolated singular point (trivial stabilizer)."""
    return stabilizer(cm).order == 1


# True iff the underlying torus is simple, which for these classes is isolation.
is_simple = is_isolated


class SumVerdict(enum.Enum):
    GUARANTEED_TRIVIAL = "guaranteed_trivial"
    INCONCLUSIVE = "inconclusive"


def sum_criterion(cm: CmType) -> SumVerdict:
    """Cheap sufficient test: members summing to a nonzero residue force a
    trivial stabilizer (a stabilizer element u != 1 would scale the sum by u).
    """
    if sum(cm.members) % cm.ctx.p != 0:
        return SumVerdict.GUARANTEED_TRIVIAL
    return SumVerdict.INCONCLUSIVE


def stabilizer_element_profile(cm: CmType, u: int) -> SpectrumProfile:
    """Eigenvalue profile of a prime-order stabilizer element u acting on the members.

    Multiplication by u permutes the members without fixed points, so they
    fall into g/q cycles of length q = ord(u) and every q-th root of unity
    occurs with multiplicity g/q.
    """
    ctx = cm.ctx
    u = ctx.check_residue(u)
    if u == 1:
        raise ValueError("u = 1 carries no stratum information")
    if u not in stabilizer(cm).elements:
        raise ValueError(f"{u} does not stabilize {list(cm.members)} mod {ctx.p}")
    q = element_order(ctx, u)
    if not is_prime(q):
        raise ValueError(f"stabilizer element {u} has composite order {q}")
    return SpectrumProfile(q, (ctx.g // q,) * q)


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


def containing_strata(cm: CmType) -> list[StratumReport]:
    """One stratum report per prime divisor q of the stabilizer order.

    For each q the witness theta is the smallest stabilizer element of order
    q.  Empty exactly when the class is isolated.
    """
    return _strata(cm.ctx, stabilizer(cm).order)


def _strata(ctx: PrimeContext, order: int) -> list[StratumReport]:
    """The strata of a class whose stabilizer has this order."""
    reports = []
    for q in range(2, order + 1):
        if order % q == 0 and is_prime(q):
            theta = _subgroup(ctx, q).generator
            profile = SpectrumProfile(q, (ctx.g // q,) * q)
            reports.append(StratumReport(q, theta, profile, stratum_dimension(profile)))
    return reports


def classification_row(cls: OrbitClass) -> dict:
    """The classify row of an orbit class: its JSON, then the verdict from
    the class's own stabilizer order (a trivial one has no strata)."""
    ctx, order = cls.canonical.ctx, cls.stabilizer.order
    return {**cls.to_json(), "isolated": order == 1, "simple": order == 1,
            "sum_mod_p": sum(cls.canonical.members) % ctx.p,
            "containing_strata": [r.to_json() for r in _strata(ctx, order)]}
