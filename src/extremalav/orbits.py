"""The multiplicative action of (Z/p)^* on CM types.

Two CM types give isomorphic polarized lattices exactly when one is a
multiplicative translate of the other, so classification happens at the level
of orbits.  The orbit count is cross-checked by a Burnside (orbit-counting
lemma) computation that never touches the enumeration: a translate-by-k fixed
point is a union of <k>-cosets, and negation pairs those cosets up whenever
-1 is outside <k>.
"""

from dataclasses import dataclass

from .cmtypes import DEFAULT_ENUMERATION_CAP, CmType, check_cap
# Not called here: kept so that the layer tracer in bench/layers.py can wrap it.
from .cmtypes import enumerate_cm_types  # noqa: F401
from .fp import PrimeContext, element_order, subgroup_generated


def act(ctx: PrimeContext, k: int, cm: CmType) -> CmType:
    """Translate a CM type by the unit k: every member s becomes k*s mod p."""
    ctx.check_residue(k)
    return CmType(ctx, tuple(k * s % ctx.p for s in cm.members))


def _translates(ctx: PrimeContext, members) -> list[tuple[int, ...]]:
    """The sorted translates k*members mod p, for k = 1..p-1 in that order."""
    p = ctx.p
    return [tuple(sorted(k * s % p for s in members)) for k in range(1, p)]


def canonical_form(ctx: PrimeContext, cm: CmType) -> CmType:
    """The lexicographically smallest translate of ``cm``.

    Orbit-constant by construction, hence a canonical orbit representative.
    """
    return CmType(ctx, min(_translates(ctx, cm.members)))


@dataclass(frozen=True)
class Stabilizer:
    """The subgroup of units fixing a CM type setwise."""

    elements: tuple[int, ...]
    order: int
    generator: int

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "order": self.order,
            "generator": self.generator,
        }


def stabilizer(ctx: PrimeContext, cm: CmType) -> Stabilizer:
    """Stabilizer of ``cm`` under translation, with its smallest generator.

    The subgroup is cyclic, so the generator is the smallest residue whose
    order equals the subgroup order.  -1 never stabilizes a CM type (it maps
    the type onto its complement), so the order always divides g.
    """
    return _stabilizer(ctx, _translates(ctx, cm.members))


def _stabilizer(ctx: PrimeContext, translates) -> Stabilizer:
    """The stabilizer read off the translates of one CM type by k = 1..p-1."""
    elements = tuple(k for k, t in enumerate(translates, 1) if t == translates[0])
    order = len(elements)
    generator = min(k for k in elements if element_order(ctx, k) == order)
    return Stabilizer(elements, order, generator)


@dataclass(frozen=True)
class OrbitClass:
    """One orbit of CM types under the multiplicative action."""

    canonical: CmType
    orbit_size: int
    stabilizer: Stabilizer

    def to_json(self) -> dict:
        return {
            "canonical": list(self.canonical.members),
            "orbit_size": self.orbit_size,
            "stabilizer": list(self.stabilizer.elements),
            "stabilizer_order": self.stabilizer.order,
        }


def orbit_classes(ctx: PrimeContext, cap: int = DEFAULT_ENUMERATION_CAP) -> list[OrbitClass]:
    """All orbits, sorted by canonical representative.

    Sweeps the 2**g choice masks (bit k-1 set means p-k is chosen), one seen
    flag each.  Each unseen mask starts an orbit: its translates mark the
    orbit seen and give the canonical form (their minimum) and the stabilizer,
    which the abelian group shares among all members of the orbit.
    """
    check_cap(ctx, cap)
    p, g = ctx.p, ctx.g
    bit = [0] * (g + 1) + [1 << (p - 1 - s) for s in range(g + 1, p)]
    seen = bytearray(1 << g)
    classes = []
    mask = 0
    while mask >= 0:
        members = [p - k if mask >> (k - 1) & 1 else k for k in range(1, g + 1)]
        translates = _translates(ctx, members)
        for t in translates:
            seen[sum(map(bit.__getitem__, t))] = 1
        stab = _stabilizer(ctx, translates)
        classes.append(OrbitClass(CmType(ctx, min(translates)), (p - 1) // stab.order, stab))
        mask = seen.find(0, mask + 1)
    classes.sort(key=lambda cls: cls.canonical.members)
    return classes


def burnside_count(ctx: PrimeContext) -> int:
    """Number of orbits, via the orbit-counting lemma in closed form.

    Translation by k fixes a CM type iff the type is a union of <k>-cosets
    containing one coset of each negation-paired couple; that is impossible
    when -1 lies in <k>, and otherwise leaves 2**((p-1)/(2*ord(k))) choices.
    """
    p = ctx.p
    total = 0
    for k in range(1, p):
        subgroup = subgroup_generated(ctx, k)
        if p - 1 in subgroup:
            continue
        total += 2 ** ((p - 1) // (2 * len(subgroup)))
    if total % (p - 1):
        raise ArithmeticError(f"fixed-point total {total} not divisible by {p - 1}")
    return total // (p - 1)
