"""Command line driver.

Exit codes: 0 success, 2 invalid input, 3 enumeration cap exceeded,
4 polarization search exhausted, 5 internal consistency failure.
All output is deterministic: same inputs and version, same bytes.
"""

import argparse
import csv
import io
import json
import sys

from . import __version__
from .cmtypes import DEFAULT_ENUMERATION_CAP, CmType
from .covers import CyclicCoverSpec, cover_genus, cw_spectrum, spectrum_class, spectrum_support
from .errors import (
    EnumerationCapExceeded,
    InternalCheckFailed,
    PolarizationNotFound,
    RiemannRelationsViolated,
)
from .fp import PrimeContext
from .lattice import COMPOSED_TOL, embed, find_polarization, period_matrix, period_report
from .orbits import burnside_count, orbit_classes, stabilizer
from .strata import SpectrumProfile, classification_row, stratum_dimension

# The exit code of each error class; the module docstring says what they mean.
EXIT_CODES = {
    ValueError: 2,
    EnumerationCapExceeded: 3,
    PolarizationNotFound: 4,
    RiemannRelationsViolated: 5,
    InternalCheckFailed: 5,
}


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _lattice_witness(ctx: PrimeContext, cm: CmType, bound: int) -> dict:
    polarization = find_polarization(ctx, cm, bound)
    data = period_matrix(embed(ctx, cm), polarization)
    doc, report = period_report(data)
    if not report.all_ok:
        measured = {"fixes_tau": report.fixes_tau_error, "spectrum": report.spectrum_error}
        failed = [
            f"{name} error {measured[name]:.2g} >= {COMPOSED_TOL:g}" if name in measured else name
            for name, ok in doc["checks"].items() if not ok
        ]
        raise InternalCheckFailed(
            f"automorphism checks failed for set {list(cm.members)}: {', '.join(failed)}"
        )
    return doc


def _checked_orbit_classes(ctx: PrimeContext, cap: int) -> list:
    """The orbit classes, cross-checked against the Burnside count."""
    classes = orbit_classes(ctx, cap)
    expected = burnside_count(ctx)
    if expected != len(classes):
        raise InternalCheckFailed(
            f"Burnside count {expected} != enumerated orbit count {len(classes)}"
        )
    return classes


def run_classify(p: int, with_lattice: bool = False, bound: int = 5,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    ctx = PrimeContext(p)
    classes = _checked_orbit_classes(ctx, cap)
    rows = []
    for cls in classes:
        row = classification_row(ctx, cls)
        if with_lattice:
            row["lattice"] = _lattice_witness(ctx, cls.canonical, bound)
        rows.append(row)
    return {"version": __version__, "p": p, "g": ctx.g,
            "orbit_count": len(rows), "classes": rows}


def run_orbits(p: int, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    ctx = PrimeContext(p)
    classes = _checked_orbit_classes(ctx, cap)
    return {"version": __version__, "p": p, "g": ctx.g,
            "orbit_count": len(classes), "classes": [c.to_json() for c in classes]}


def run_stabilizer(p: int, members: tuple[int, ...]) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    stab = stabilizer(ctx, cm)
    return {"p": p, "set": list(cm.members), "stabilizer": list(stab.elements),
            "order": stab.order, "generator": stab.generator}


def run_dim(q: int, multiplicities: tuple[int, ...]) -> dict:
    profile = SpectrumProfile(q, multiplicities)
    return {"q": q, "multiplicities": list(profile.multiplicities),
            "g": profile.g, "r": profile.r, "dim": stratum_dimension(profile)}


def run_polarize(p: int, members: tuple[int, ...], bound: int = 5) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    polarization = find_polarization(ctx, cm, bound)
    return {"p": p, "set": list(cm.members), "c": list(polarization.c),
            "pfaffian": polarization.pfaffian}


def run_period(p: int, members: tuple[int, ...], bound: int = 5) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    return _lattice_witness(ctx, cm, bound)


def run_spectrum(p: int, exponents: tuple[int, ...]) -> dict:
    ctx = PrimeContext(p)
    spec = CyclicCoverSpec(ctx, exponents)
    spectrum = cw_spectrum(spec)
    doc = {"p": p, "exponents": list(spec.exponents), "genus": cover_genus(spec),
           "support": list(spectrum_support(spectrum))}
    if all(m == 1 for m in spectrum.values()):
        try:
            row = spectrum_class(ctx, spectrum)
        except ValueError:
            row = None
    else:
        row = None
    doc["class_canonical"] = row["canonical"] if row else None
    doc["isolated"] = row["isolated"] if row else None
    return doc


# ---------------------------------------------------------------------------
# output formatting


def _cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _rows_and_headers(doc: dict) -> tuple[list[str], list[list[str]]]:
    rows = doc.get("classes")
    if rows is None:
        rows = [doc]
    headers = list(rows[0].keys()) if rows else []
    return headers, [[_cell(row.get(h)) for h in headers] for row in rows]


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        sink = io.StringIO()
        # json.dump writes the encoder's chunks as they come; json.dumps
        # would first hold every chunk in one list.
        json.dump(doc, sink, indent=2)
        sink.write("\n")
        return sink.getvalue()
    headers, rows = _rows_and_headers(doc)
    if fmt == "csv":
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return sink.getvalue()
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremalav",
        description="Classify polarized lattice classes with an automorphism "
                    "of maximal prime order and realize them explicitly.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **options):
        cmd = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--format", choices=("json", "csv", "table"), default="json")
        return cmd

    p_arg = {"type": int, "required": True, "help": "odd prime p = 2g+1"}
    set_arg = {"required": True, "help": "comma-separated ascending residues"}
    bound_arg = {"type": int, "default": 5, "help": "coefficient box half-width"}
    cap_arg = {"type": int, "default": DEFAULT_ENUMERATION_CAP,
               "help": "refuse enumerations beyond this many CM types"}

    classify = add("classify", "classify all orbit classes for a prime",
                   **{"--p": p_arg, "--bound": bound_arg, "--cap": cap_arg})
    classify.add_argument("--with-lattice", action="store_true",
                          help="attach a polarized lattice witness to every class")
    add("orbits", "list orbit classes with stabilizers", **{"--p": p_arg, "--cap": cap_arg})
    add("stabilizer", "stabilizer of one CM type", **{"--p": p_arg, "--set": set_arg})
    add("dim", "stratum dimension from an eigenvalue profile",
        **{"--q": {"type": int, "required": True, "help": "prime order of the action"},
           "--mults": {"required": True, "help": "comma-separated multiplicities n_0..n_(q-1)"}})
    add("polarize", "search the coefficient box for a principal positive form",
        **{"--p": p_arg, "--set": set_arg, "--bound": bound_arg})
    add("period", "period matrix and automorphism checks for one CM type",
        **{"--p": p_arg, "--set": set_arg, "--bound": bound_arg})
    add("spectrum", "character spectrum of a cyclic cover of the line",
        **{"--p": p_arg, "--exponents": {"required": True,
                                         "help": "comma-separated branch exponents"}})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            doc = run_classify(args.p, args.with_lattice, args.bound, args.cap)
        elif args.command == "orbits":
            doc = run_orbits(args.p, args.cap)
        elif args.command == "stabilizer":
            doc = run_stabilizer(args.p, _parse_ints(args.set))
        elif args.command == "dim":
            doc = run_dim(args.q, _parse_ints(args.mults))
        elif args.command == "polarize":
            doc = run_polarize(args.p, _parse_ints(args.set), args.bound)
        elif args.command == "period":
            doc = run_period(args.p, _parse_ints(args.set), args.bound)
        else:
            doc = run_spectrum(args.p, _parse_ints(args.exponents))
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    sys.stdout.write(render(doc, args.format))
    return 0


def entry_point():
    raise SystemExit(main())
