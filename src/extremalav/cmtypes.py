"""CM types for the cyclotomic field of odd prime conductor.

A CM type here is a set of g = (p-1)/2 residues in 1..p-1 containing exactly
one member of each conjugate pair {k, p-k}.  There are exactly 2**g of them;
they index the inequivalent diagonal complex structures on R**(p-1) that are
compatible with multiplication by a primitive p-th root of unity.
"""

from dataclasses import dataclass

from .errors import EnumerationCapExceeded
from .fp import PrimeContext

#: Refuse to sweep more than this many CM types.  The orbit sweep holds one
#: chunk of choice masks plus about 2**g/(p-1) classes, and the classify
#: output grows with the classes: at the default (p <= 47) a classify run
#: peaks near 350 MB.
DEFAULT_ENUMERATION_CAP = 1 << 24


def check_cap(ctx: PrimeContext, cap: int) -> None:
    """Raise ``EnumerationCapExceeded`` when the 2**g CM types exceed ``cap``."""
    if 2 ** ctx.g > cap:
        raise EnumerationCapExceeded(
            f"enumeration too large: 2**{ctx.g} CM types exceeds cap {cap}"
        )


def is_cm_type(ctx: PrimeContext, members) -> bool:
    """True iff ``members`` picks exactly one residue from every pair {k, p-k}."""
    s = set(members)
    for k in s:
        ctx.check_residue(k)
    if len(s) != ctx.g:
        return False
    return all((k in s) != (ctx.p - k in s) for k in range(1, ctx.g + 1))


@dataclass(frozen=True)
class CmType:
    """A validated CM type, stored as the ascending tuple of its members."""

    ctx: PrimeContext
    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted(self.members))
        object.__setattr__(self, "members", members)
        if not is_cm_type(self.ctx, members):
            raise ValueError(f"not a CM type mod {self.ctx.p}: {list(members)}")

    @classmethod
    def _unchecked(cls, ctx: PrimeContext, members: tuple[int, ...]) -> "CmType":
        """A CM type from ascending members already known to form one, such
        as the orbit sweep decodes, without the checks of the constructor."""
        cm = object.__new__(cls)
        object.__setattr__(cm, "ctx", ctx)
        object.__setattr__(cm, "members", members)
        return cm

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "set": list(self.members)}


def enumerate_cm_types(ctx: PrimeContext, cap: int = DEFAULT_ENUMERATION_CAP) -> list[CmType]:
    """All 2**g CM types mod p, sorted by their ascending member lists.

    Raises ``EnumerationCapExceeded`` when 2**g exceeds ``cap``.
    """
    check_cap(ctx, cap)
    p = ctx.p
    sets = []
    for bits in range(1 << ctx.g):
        sets.append(
            tuple(sorted(p - k if bits >> (k - 1) & 1 else k for k in range(1, ctx.g + 1)))
        )
    sets.sort()
    return [CmType(ctx, members) for members in sets]
