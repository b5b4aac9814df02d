"""Reference for the Chevalley-Weil closed form: the character multiplicities
of a cyclic cover counted from explicit differentials."""

from extremalav.covers import CyclicCoverSpec
from extremalav.lattice import int_rank_det


def bruteforce_multiplicity(spec: CyclicCoverSpec, t: int) -> int:
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
