"""The multiplicative action of (Z/p)^* on CM types.

Two CM types give isomorphic polarized lattices exactly when one is a
multiplicative translate of the other, so classification happens at the level
of orbits.  ``orbit_classes`` finds every orbit in one numpy sweep over
indicator words.  A single CM type's class, and with it its canonical form,
is read off its sorted translates by ``orbit_class``, and its stabilizer
alone from membership: the units that map every member back into the type.
The orbit count is cross-checked by a Burnside (orbit-counting lemma)
computation that never touches the enumeration: a translate-by-k fixed point
is a union of <k>-cosets, and negation pairs those cosets up whenever -1 is
outside <k>.

(Z/p)^* is cyclic, with one subgroup of each order n dividing p-1, the n-th
roots of unity, so a stabilizer is found as its order alone.
"""

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


def orbit_classes(ctx: PrimeContext, cap: int = DEFAULT_ENUMERATION_CAP) -> list[OrbitClass]:
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
    is one chunk, the survivors and the classes.
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
    orders = np.ones(len(survivors), dtype=np.int64)
    for table in moves:
        orders += survivors == _permute(table, survivors)
    stabs = {n: _subgroup(ctx, n) for n in set(orders.tolist())}
    classes = []
    for start in range(0, len(survivors), CHUNK):
        stop = start + CHUNK
        for members, n in zip(_members(ctx, survivors[start:stop]), orders[start:stop].tolist()):
            classes.append(OrbitClass(CmType._unchecked(ctx, members), (p - 1) // n, stabs[n]))
    return classes


def burnside_count(ctx: PrimeContext) -> int:
    """Number of orbits, via the orbit-counting lemma in closed form.

    Translation by k fixes a CM type iff the type is a union of <k>-cosets
    containing one coset of each negation-paired couple; that is impossible
    when -1 lies in <k>, and otherwise leaves 2**(g/ord(k)) choices.
    """
    p = ctx.p
    orders = [element_order(ctx, k) for k in range(1, p)]
    # -1 is the only element of order 2, so it lies in <k> iff ord(k) is even.
    total = sum(2 ** (ctx.g // n) for n in orders if n % 2)
    if total % (p - 1):
        raise ArithmeticError(f"fixed-point total {total} not divisible by {p - 1}")
    return total // (p - 1)
