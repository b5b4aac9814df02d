"""Reference for the Chevalley-Weil closed form: the character multiplicities
of a cyclic cover counted from explicit differentials."""

from fractions import Fraction

from extremalav.covers import CyclicCoverSpec


def rank_oracle(A):
    """Rank by plain rational row reduction."""
    M = [[Fraction(x) for x in row] for row in A]
    rank = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[piv], M[rank] = M[rank], M[piv]
        for r in range(rank + 1, len(M)):
            f = M[r][col] / M[rank][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


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
    return rank_oracle(vectors)
