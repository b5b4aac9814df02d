"""Workload inputs, made from the seed, and the checks on their answers.

The checks use references recorded from the program (``reference.json``)
or oracles written here, independently of the package.
"""

import json
import random
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

PERIOD_PRIMES = (11, 13)
STABILIZER_PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)
SPECTRUM3_PRIMES = (29, 31, 37, 41, 43, 47, 53, 59, 61)
SPECTRUM45_PRIMES = (11, 13, 17, 19, 23, 29, 31)
# Per batch of queries: every CM type at p = 11 and 13 once (96 period
# queries, a quarter of the batch), and this many of each other kind.
STABILIZER_QUERIES = 144
SPECTRUM_QUERIES = 144


def all_cm_types(p: int) -> list[tuple[int, ...]]:
    g = (p - 1) // 2
    return [tuple(sorted(p - k if bits >> (k - 1) & 1 else k for k in range(1, g + 1)))
            for bits in range(1 << g)]


def random_cm_type(rng: random.Random, p: int) -> tuple[int, ...]:
    g = (p - 1) // 2
    return tuple(sorted(p - k if rng.getrandbits(1) else k for k in range(1, g + 1)))


def symmetric_cm_type(rng: random.Random, p: int) -> tuple[int, ...]:
    """A random CM type with a nontrivial stabilizer: for a subgroup H of odd
    order d > 1 (so -1 is not in H), one of the cosets aH, -aH from each pair."""
    g = (p - 1) // 2
    d = rng.choice([d for d in range(3, g + 1, 2) if g % d == 0])
    root = next(r for r in range(2, p) if multiplicative_order(p, r) == p - 1)
    h = pow(root, (p - 1) // d, p)
    subgroup = [pow(h, i, p) for i in range(d)]
    members, seen = [], set()
    for a in range(1, p):
        if a not in seen:
            coset = [a * x % p for x in subgroup]
            opposite = [p - x for x in coset]
            seen.update(coset + opposite)
            members += coset if rng.getrandbits(1) else opposite
    return tuple(sorted(members))


def balanced_exponents(rng: random.Random, p: int, branch_points: int) -> tuple[int, ...]:
    """Nonzero exponents summing to 0 mod p.  The last one is forced; when it
    would be 0 the cover would lose a branch point, so the draw is repeated."""
    while True:
        head = [rng.randrange(1, p) for _ in range(branch_points - 1)]
        last = -sum(head) % p
        if last:
            return tuple(head + [last])


def query_batch(seed: int) -> list[list]:
    """One closed-loop stream of single-object queries, as [op, p, arg] calls.

    Period queries visit every CM type at p = 11 and p = 13 once, in random
    order, so the failure share and the latency mix of a batch do not depend
    on the draw.  A quarter of the stabilizer queries are drawn among types
    with a nontrivial stabilizer, which uniform draws almost never reach.
    """
    rng = random.Random(f"queries-mixed:{seed}")
    calls = [["period", p, list(t)] for p in PERIOD_PRIMES for t in all_cm_types(p)]
    for i in range(STABILIZER_QUERIES):
        p = rng.choice(STABILIZER_PRIMES)
        draw = symmetric_cm_type if i % 4 == 0 else random_cm_type
        calls.append(["stabilizer", p, list(draw(rng, p))])
    for i in range(SPECTRUM_QUERIES):
        if i % 2:
            p, points = rng.choice(SPECTRUM3_PRIMES), 3
        else:
            p, points = rng.choice(SPECTRUM45_PRIMES), rng.choice((4, 5))
        calls.append(["spectrum", p, list(balanced_exponents(rng, p, points))])
    rng.shuffle(calls)
    return calls


def job_calls(workload: str, seed: int) -> list[list]:
    if workload == "classify-p37":
        return [["classify", 37, None]]
    if workload == "lattice-box":
        return [["classify_lattice", 11, None], ["classify_lattice", 13, None]]
    if workload == "queries-mixed":
        return query_batch(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracles


def translate(p: int, k: int, members) -> tuple[int, ...]:
    return tuple(sorted(k * s % p for s in members))


def multiplicative_order(p: int, k: int) -> int:
    order, acc = 1, k
    while acc != 1:
        acc = acc * k % p
        order += 1
    return order


def stabilizer_oracle(p: int, members) -> dict:
    members = tuple(sorted(members))
    elements = [k for k in range(1, p) if translate(p, k, members) == members]
    order = len(elements)
    generator = min(k for k in elements if multiplicative_order(p, k) == order)
    return {"p": p, "set": list(members), "stabilizer": elements,
            "order": order, "generator": generator}


def spectrum_oracle(p: int, exponents) -> dict:
    """Chevalley-Weil for a totally ramified cyclic cover of the line: the
    character t occurs sum_i {t a_i / p} - 1 times on holomorphic differentials."""
    spectrum = {}
    for t in range(1, p):
        m = sum(t * a % p for a in exponents) // p - 1
        if m:
            spectrum[t] = m
    support = sorted(spectrum)
    genus = (p - 1) * (len(exponents) - 2) // 2
    if sum(spectrum.values()) != genus:
        raise ArithmeticError(f"oracle spectrum of {exponents} mod {p} misses the genus")
    canonical = isolated = None
    is_cm = len(support) == (p - 1) // 2 and all(p - s not in spectrum for s in support)
    if all(m == 1 for m in spectrum.values()) and is_cm:
        canonical = list(min(translate(p, k, support) for k in range(1, p)))
        isolated = stabilizer_oracle(p, support)["order"] == 1
    return {"p": p, "exponents": list(exponents), "genus": genus, "support": support,
            "class_canonical": canonical, "isolated": isolated}


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the answer is right


def check_call(op: str, p: int, arg, code: int, answer) -> list[str]:
    where = f"{op} p={p} {arg}"
    if op == "classify":
        ref = REFERENCE["classify"][str(p)]
        if code or answer != ref:
            return [f"{where}: exit {code}, output {answer} differs from reference {ref}"]
        return []
    if op == "classify_lattice":
        ref = REFERENCE["classify_lattice"][str(p)]
        if code:
            return [f"{where}: exit {code}"]
        problems = []
        if answer["rows"] != len(ref):
            problems.append(f"{where}: {answer['rows']} classes, reference {len(ref)}")
        for (canonical, c, pf, checks), (ref_canonical, ref_c, ref_pf) in zip(answer["classes"], ref):
            if [canonical, c, pf] != [ref_canonical, ref_c, ref_pf] or not all(checks.values()):
                problems.append(f"{where}: class {canonical} c={c} pfaffian={pf} checks={checks}, "
                                f"reference {ref_canonical} c={ref_c} pfaffian={ref_pf}")
        return problems
    if op == "period":
        if code in (4, 5):
            return []
        if code or answer["set"] != sorted(arg) or abs(answer["pfaffian"]) != 1 \
                or not all(answer["checks"].values()):
            return [f"{where}: exit {code}, answer {answer}"]
        return []
    oracle = stabilizer_oracle(p, arg) if op == "stabilizer" else spectrum_oracle(p, arg)
    if code or answer != oracle:
        return [f"{where}: exit {code}, answer {answer}, oracle {oracle}"]
    return []


def operations(op: str, answer) -> int:
    """User-visible operations in one call: class rows, or one query."""
    if op.startswith("classify"):
        return answer["rows"] if answer else 1
    return 1
