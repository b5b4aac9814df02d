"""Arithmetic in the multiplicative group of integers modulo an odd prime.

Everything downstream works with residues 1..p-1 of an odd prime p = 2g+1
and needs element orders and cyclic subgroups, exactly and cheaply.
"""

import numbers
from dataclasses import dataclass, field


def is_int(x) -> bool:
    """The package's one integer test: Python and numpy integers pass, bools
    and non-integers fail.  ``type`` goes first: ``Integral`` costs 25x more."""
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def read_int(x, name: str) -> int:
    """x as a Python int, or ``ValueError`` unless ``is_int(x)``."""
    if not is_int(x):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def is_prime(n: int) -> bool:
    """Trial-division primality test, false unless ``is_int(n)``; plenty for these sizes."""
    if not is_int(n) or n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime p together with g = (p-1)/2."""

    p: int
    g: int = field(init=False)

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p!r}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "g", (self.p - 1) // 2)

    def check_residue(self, k: int) -> int:
        """k as a Python int, if it is a unit residue 1..p-1 (``is_int``)."""
        if not is_int(k) or not 1 <= k <= self.p - 1:
            raise ValueError(f"residue out of range 1..{self.p - 1}: {k!r}")
        return int(k)


def element_order(ctx: PrimeContext, k: int) -> int:
    """Multiplicative order of k modulo p."""
    return len(subgroup_generated(ctx, k))


def subgroup_generated(ctx: PrimeContext, k: int) -> tuple[int, ...]:
    """The cyclic subgroup <k> of (Z/p)^*, as a sorted tuple of residues."""
    acc = k = ctx.check_residue(k)
    elements = {1}
    while acc not in elements:
        elements.add(acc)
        acc = acc * k % ctx.p
    return tuple(sorted(elements))
