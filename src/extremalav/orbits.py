"""The multiplicative action of (Z/p)^* on CM types.

Two CM types give isomorphic polarized lattices exactly when one is a
multiplicative translate of the other, so classification happens at the level
of orbits.  ``orbit_classes`` finds every orbit in one numpy sweep over
indicator words.  A single CM type's class, and with it its canonical form,
is read off its sorted translates by ``orbit_class``, and its stabilizer
alone from membership: the units that map every member back into the type.
The sweep is cross-checked by a closed-form census that never touches the
enumeration: the classes of each stabilizer order, counted from the CM types
that are unions of cosets of each subgroup, and their total, the orbit count
of the Burnside (orbit-counting) lemma.

(Z/p)^* is cyclic, with one subgroup of each order n dividing p-1, the n-th
roots of unity, so a stabilizer is found as its order alone.
"""

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cmtypes import DEFAULT_ENUMERATION_CAP, CmType, check_cap
# Not called here: kept so that the layer tracer in bench/layers.py can wrap it.
from .cmtypes import enumerate_cm_types  # noqa: F401
from .errors import EnumerationCapExceeded
from .fp import PrimeContext, element_order

#: Bits in the sweep's indicator word, one per residue 1..p-1, so p <= 65.
WORD_BITS = 64
#: Choice masks per numpy pass of the sweep.
CHUNK = 1 << 16
#: Classes per decoded chunk when a class table is iterated.
DECODE_ROWS = 128


def act(k: int, cm: CmType) -> CmType:
    """Translate a CM type by the unit k: every member s becomes k*s mod p."""
    k = cm.ctx.check_residue(k)
    return CmType(cm.ctx, tuple(k * s % cm.ctx.p for s in cm.members))


def canonical_form(cm: CmType) -> CmType:
    """The lexicographically smallest translate of ``cm``, via ``orbit_class``.

    Orbit-constant by construction, hence a canonical orbit representative.
    """
    return orbit_class(cm).canonical


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


def stabilizer(cm: CmType) -> Stabilizer:
    """Stabilizer of ``cm`` under translation, with its smallest generator.

    Its order is the number of units k that map every member into the type
    (k is injective, so into is onto), each test stopping at the first
    member sent outside it; no translate is built or sorted.  The subgroup
    is cyclic, so the generator is the smallest residue whose order equals
    the subgroup order.  -1 never stabilizes a CM type (it maps the type
    onto its complement), so the order always divides g.
    """
    p, members = cm.ctx.p, cm.members
    fixed = frozenset(members)
    return _subgroup(cm.ctx, sum(all(k * s % p in fixed for s in members) for k in range(1, p)))


def _subgroup(ctx: PrimeContext, order: int) -> Stabilizer:
    """The unique subgroup of this order: the order-th roots of unity."""
    elements = tuple(k for k in range(1, ctx.p) if pow(k, order, ctx.p) == 1)
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


def orbit_class(cm: CmType) -> OrbitClass:
    """The class of ``cm``: the smallest of its sorted translates by
    k = 1..p-1 is the canonical form, and ``stabilizer(cm)`` the stabilizer.

    The group is abelian, so every member of the orbit has the stabilizer of
    ``cm``.
    """
    p, stab = cm.ctx.p, stabilizer(cm)
    canonical = min(tuple(sorted(k * s % p for s in cm.members)) for k in range(1, p))
    return OrbitClass(CmType(cm.ctx, canonical), (p - 1) // stab.order, stab)


def _byte_tables(targets: list[int]) -> np.ndarray:
    """Lookup tables of the bit map j -> targets[j] on words: entry [b, v] is
    the image of byte b holding the value v."""
    n_bytes = -(-len(targets) // 8)
    images = np.zeros(n_bytes * 8, dtype=np.uint64)
    images[:len(targets)] = [1 << t for t in targets]
    bits = (np.arange(256, dtype=np.uint64)[:, None] >> np.arange(8, dtype=np.uint64)) & 1
    return (bits * images.reshape(n_bytes, 1, 8)).sum(axis=2, dtype=np.uint64)


def _translation(p: int, k: int) -> np.ndarray:
    """Byte tables of translation by k on words holding residue r at bit p-1-r."""
    return _byte_tables([p - 1 - k * (p - 1 - j) % p for j in range(p - 1)])


def _permute(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Apply a bit map to every word, one table lookup per byte."""
    view = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = tables[0][view[:, 0]]
    for b in range(1, len(tables)):
        out |= tables[b][view[:, b]]
    return out


def _members(ctx: PrimeContext, words: np.ndarray) -> list[tuple[int, ...]]:
    """The ascending residues of each indicator word."""
    bits = np.unpackbits(words.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    # Column c holds bit 63 - c, so residue r sits in column 64 - p + r.
    residues = np.flatnonzero(bits[:, 65 - ctx.p:]) % (ctx.p - 1) + 1
    return list(map(tuple, residues.reshape(-1, ctx.g).tolist()))


class ClassTable(Sequence):
    """The orbit classes of a sweep in class order, held as the descending
    survivor words and their stabilizer orders: a class is decoded only when
    it is read, one chunk of words at a time, so no list of classes is held.

    It compares equal to any sequence of the same classes, such as a list.
    """

    def __init__(self, ctx: PrimeContext, words: np.ndarray, orders: np.ndarray):
        self.ctx, self.words, self.orders = ctx, words, orders
        present = np.flatnonzero(np.bincount(orders)).tolist()
        self.stabilizers = {n: _subgroup(ctx, n) for n in present}

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, i: int) -> OrbitClass:
        i = range(len(self))[operator.index(i)]
        return self._class(_members(self.ctx, self.words[i:i + 1])[0], int(self.orders[i]))

    def __iter__(self):
        for members, orders in self.chunks():
            yield from map(self._class, members, orders)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def chunks(self):
        """Per step, the ascending members and the stabilizer orders of the
        next ``DECODE_ROWS`` classes, as lists."""
        for start in range(0, len(self), DECODE_ROWS):
            stop = start + DECODE_ROWS
            yield _members(self.ctx, self.words[start:stop]), self.orders[start:stop].tolist()

    def _class(self, members: tuple[int, ...], order: int) -> OrbitClass:
        return OrbitClass(CmType._unchecked(self.ctx, members), (self.ctx.p - 1) // order,
                          self.stabilizers[order])


def orbit_classes(ctx: PrimeContext, cap: int = DEFAULT_ENUMERATION_CAP) -> ClassTable:
    """All orbits, sorted by canonical representative.

    A CM type is swept as its indicator word, residue r at bit p-1-r.  Among
    sets of g residues the larger word is the lexicographically smaller
    sorted tuple, so the canonical form of an orbit is its largest translate
    and the class order is descending word order.  Translation by k permutes
    the bits.  The sweep passes the 2**g choice masks (bit k-1 set means p-k
    is chosen) in chunks and, after each k, keeps the words no smaller than
    their translate: one word per orbit survives.  Only types containing
    residue 1 are swept, since every orbit's largest word contains it; their
    translate by -1, the complement, never beats them.  A survivor's
    stabilizer order counts 1 and the k whose translate equals it.  Memory
    is one chunk of choice masks, the survivor words and their orders: the
    returned table decodes a class only when it is read.
    """
    check_cap(ctx, cap)
    p, g = ctx.p, ctx.g
    if p - 1 > WORD_BITS:
        raise EnumerationCapExceeded(
            f"enumeration too large: p = {p} needs {p - 1} bits, "
            f"over the {WORD_BITS}-bit indicator word of the orbit sweep"
        )
    encode = _byte_tables([p - 2 - j for j in range(g)])  # unset bit j: residue j+1
    moves = [_translation(p, k) for k in range(2, p - 1)]
    half = 1 << (g - 1)
    parts = []
    for start in range(0, half, CHUNK):
        masks = np.arange(start, min(start + CHUNK, half), dtype=np.uint64) << 1
        w = masks | _permute(encode, masks ^ ((1 << g) - 1))
        for table in moves:
            w = w[w >= _permute(table, w)]
        parts.append(w)
    # Descending and contiguous: _permute views the buffer as bytes.
    survivors = np.sort(np.concatenate(parts))[::-1].copy()
    orders = np.ones(len(survivors), dtype=np.uint8)  # an order divides g <= 32
    for table in moves:
        orders += survivors == _permute(table, survivors)
    return ClassTable(ctx, survivors, orders)


def _mobius(n: int) -> int:
    """The Moebius function: 0 when a square > 1 divides n, else -1 to the
    number of prime factors."""
    sign, q = 1, 2
    while n > 1:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            sign = -sign
        q += 1
    return sign


def census(ctx: PrimeContext) -> dict[int, int]:
    """The number of classes of each stabilizer order n, in closed form.

    A stabilizer has odd order n | g, since -1 stabilizes no CM type.  For
    odd d | g the order-d subgroup fixes the 2**(g/d) CM types that are
    unions of its cosets taking one coset of each negation-paired couple, so
    by Moebius inversion over the odd divisors
    E(n) = sum over odd d with n | d | g of mu(d/n) * 2**(g/d)
    types have a stabilizer of order exactly n.  Their orbits have
    (p-1)/n members, so they form n*E(n)/(p-1) classes.
    """
    g = ctx.g
    odd = [d for d in range(1, g + 1, 2) if g % d == 0]
    classes = {}
    for n in odd:
        exact = sum(_mobius(d // n) * 2 ** (g // d) for d in odd if d % n == 0)
        classes[n], rest = divmod(n * exact, ctx.p - 1)
        if rest:
            raise ArithmeticError(f"{exact} types of stabilizer order {n} "
                                  f"do not fill orbits of size {(ctx.p - 1) // n}")
    return classes


def burnside_count(ctx: PrimeContext) -> int:
    """Number of orbits: the total of the closed-form ``census``."""
    return sum(census(ctx).values())
