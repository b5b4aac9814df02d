"""Acceptance gate: the headline guarantees of the package, one per test.

Every test prints a single verdict line (visible under ``pytest -s`` or in
the failure report) and then asserts it, so a red run names the guarantee
that broke rather than an implementation detail.
"""

import json
import time
from itertools import combinations_with_replacement

import numpy as np

from extremalav.cli import main
from extremalav.cmtypes import CmType, enumerate_cm_types
from extremalav.covers import (
    CyclicCoverSpec,
    _closed_form_multiplicity,
    cover_genus,
    cw_spectrum,
    spectrum_support,
)
from extremalav.fp import PrimeContext, element_order, is_prime
from extremalav.lattice import (
    automorphism_check,
    find_polarization,
    period_matrix,
    reduce_to_fundamental_domain,
)
from extremalav.orbits import act, burnside_count, canonical_form, orbit_classes, stabilizer
from extremalav.strata import (
    SumVerdict,
    containing_strata,
    extremal_profile,
    is_isolated,
    stratum_dimension,
    sum_criterion,
)

from cover_reference import bruteforce_multiplicity

P11_CLASSES = [(1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 7), (1, 3, 4, 5, 9)]


def verdict(number: int, label: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {number:02d}: {label}"
    print(line)
    assert ok, line + (f" [{detail}]" if detail else "")


def test_01_four_classes_at_p11(capsys):
    start = time.perf_counter()
    code = main(["classify", "--p", "11"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    doc = json.loads(out)
    got = [tuple(row["canonical"]) for row in doc["classes"]]
    ok = code == 0 and got == P11_CLASSES and elapsed < 1.0
    with capsys.disabled():
        verdict(1, "classify at p = 11 yields the four expected classes in < 1 s",
                ok, f"got {got} in {elapsed:.3f}s")


def test_02_isolation_flags_at_p11():
    ctx = PrimeContext(11)
    flags = [is_isolated(CmType(ctx, members)) for members in P11_CLASSES]
    verdict(2, "first three p = 11 classes isolated, the last not",
            flags == [True, True, True, False], f"got {flags}")


def test_03_last_class_stratum():
    ctx = PrimeContext(11)
    strata = containing_strata(CmType(ctx, (1, 3, 4, 5, 9)))
    ok = (
        len(strata) == 1
        and strata[0].q == 5
        and element_order(ctx, strata[0].theta) == 5
        and strata[0].dim == 3
    )
    verdict(3, "non-isolated p = 11 class lies in exactly one stratum: q = 5, dim 3",
            ok, f"got {[s.to_json() for s in strata]}")


def test_04_extremal_profiles_are_rigid():
    bad = []
    for p in (3, 5, 7, 11, 13):
        ctx = PrimeContext(p)
        for cm in enumerate_cm_types(ctx):
            if stratum_dimension(extremal_profile(cm)) != 0:
                bad.append((p, cm.members))
    verdict(4, "every maximal-order profile spans a zero-dimensional stratum (p <= 13)",
            not bad, f"violations: {bad[:5]}")


def test_05_sum_criterion_sound():
    bad = []
    for p in (3, 5, 7, 11, 13, 17, 19):
        ctx = PrimeContext(p)
        for cm in enumerate_cm_types(ctx):
            if (
                sum_criterion(cm) is SumVerdict.GUARANTEED_TRIVIAL
                and stabilizer(cm).order != 1
            ):
                bad.append((p, cm.members))
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        ctx = PrimeContext(p)
        first_half = CmType(ctx, tuple(range(1, ctx.g + 1)))
        if not is_isolated(first_half):
            bad.append((p, "initial interval"))
    verdict(5, "nonzero member sum guarantees trivial stabilizer; {1..g} isolated to p = 199",
            not bad, f"violations: {bad[:5]}")


def test_06_closed_form_class_count():
    start = time.perf_counter()
    counts = {}
    bad = []
    for p in (3, 5, 7, 11, 13, 17, 19):
        ctx = PrimeContext(p)
        closed = burnside_count(ctx)
        counts[p] = closed
        if closed != len(orbit_classes(ctx)):
            bad.append(p)
    elapsed = time.perf_counter() - start
    ok = (
        not bad
        and counts[11] == 4
        and counts[7] == 2
        and counts[13] == 6
        and elapsed < 30.0
    )
    verdict(6, "averaged fixed-point count equals enumerated class count (p <= 19, < 30 s)",
            ok, f"counts {counts}, mismatches {bad}, {elapsed:.2f}s")


def test_07_lattice_realization_p11():
    start = time.perf_counter()
    failures = []
    ctx = PrimeContext(11)
    for members in P11_CLASSES:
        cm = CmType(ctx, members)
        pol = find_polarization(ctx, cm, bound=5)
        if pol.pfaffian not in (1, -1):
            failures.append((members, "pfaffian"))
            continue
        data = period_matrix(pol)
        tau = data.tau
        report = automorphism_check(data)
        if np.max(np.abs(tau - tau.T)) >= 1e-9:
            failures.append((members, "symmetry"))
        if min(np.linalg.eigvalsh(tau.imag)) <= 1e-9:
            failures.append((members, "positivity"))
        if not (report.gram_preserved and report.order_p and report.symplectic):
            failures.append((members, "integer identities"))
        if report.fixes_tau_error > 1e-8:
            failures.append((members, "fixed point"))
        if report.spectrum_error > 1e-8:
            failures.append((members, "eigenvalue spectrum"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    verdict(7, "all four p = 11 classes realized by explicit polarized lattices (< 60 s)",
            ok, f"failures {failures}, {elapsed:.2f}s")


def test_08_elliptic_point_is_hexagonal():
    ctx = PrimeContext(3)
    cm = CmType(ctx, (1,))
    data = period_matrix(find_polarization(ctx, cm, bound=1))
    reduced = reduce_to_fundamental_domain(complex(data.tau[0, 0]))
    corners = [complex(0.5, 3**0.5 / 2), complex(-0.5, 3**0.5 / 2)]
    dist = min(abs(reduced - w) for w in corners)
    verdict(8, "p = 3 period point reduces to the hexagonal lattice point",
            dist < 1e-8, f"distance {dist:.2e}")


def test_09_cover_spectra():
    ctx = PrimeContext(11)
    bad = []

    sp = cw_spectrum(CyclicCoverSpec(ctx, (2, 8, 1)))
    if canonical_form(CmType(ctx, spectrum_support(sp))).members != (1, 2, 3, 4, 6):
        bad.append("(2,8,1) support class")
    sp = cw_spectrum(CyclicCoverSpec(ctx, (1, 1, 9)))
    if canonical_form(CmType(ctx, spectrum_support(sp))).members != (1, 2, 3, 4, 5):
        bad.append("(1,1,9) support class")

    for p in (5, 7, 11, 13):
        c = PrimeContext(p)
        for exps in combinations_with_replacement(range(1, p), 3):
            if sum(exps) % p:
                continue
            s = CyclicCoverSpec(c, exps)
            if any(
                bruteforce_multiplicity(s, t) != _closed_form_multiplicity(s, t)
                for t in range(1, p)
            ):
                bad.append((p, exps))
            if sum(cw_spectrum(s).values()) != cover_genus(s):
                bad.append((p, exps, "genus"))
    verdict(9, "cover spectra: frozen class matches and dual-route agreement to p = 13",
            not bad, f"violations: {bad[:5]}")


def test_10_structural_properties():
    bad = []
    for p in (3, 5, 7, 11, 13, 17, 19):
        ctx = PrimeContext(p)
        for cm in enumerate_cm_types(ctx):
            rep = canonical_form(cm)
            for k in range(1, p):
                moved = act(k, cm)
                if len(moved.members) != ctx.g:
                    bad.append((p, cm.members, k, "size"))
                if canonical_form(moved) != rep:
                    bad.append((p, cm.members, k, "canonical"))
        for cls in orbit_classes(ctx):
            if cls.orbit_size * cls.stabilizer.order != p - 1:
                bad.append((p, cls.canonical.members, "orbit-stabilizer"))
            for srep in containing_strata(cls.canonical):
                prof = srep.profile
                if prof.g != ctx.g:
                    bad.append((p, cls.canonical.members, "profile total"))
                pairs = {
                    prof.multiplicities[i] + prof.multiplicities[prof.q - i]
                    for i in range(1, (prof.q + 1) // 2)
                }
                if len(pairs) > 1:
                    bad.append((p, cls.canonical.members, "pairing"))
    verdict(10, "group action, orbit-stabilizer, and profile invariants hold to p = 19",
            not bad, f"violations: {bad[:5]}")
