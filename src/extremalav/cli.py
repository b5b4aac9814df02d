"""Command line driver.

Exit codes: 0 success, 2 invalid input, 3 enumeration cap exceeded,
4 polarization search exhausted, 5 internal consistency failure.
All output is deterministic: same inputs and version, same bytes.
"""

import argparse
import csv
import io
import json
import re
import sys
from itertools import chain, islice

import numpy as np

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
from .lattice import DEFAULT_BOUND, find_polarization, period_matrix, period_report
from .orbits import ClassTable, OrbitClass, burnside_count, census, orbit_classes, stabilizer
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


def _lattice_witness(cm: CmType, bound: int) -> dict:
    doc, report = period_report(period_matrix(find_polarization(cm.ctx, cm, bound)))
    if not report.all_ok:
        raise InternalCheckFailed(
            f"automorphism checks failed for set {list(cm.members)}: "
            f"{', '.join(report.failures())}"
        )
    return doc


class _Rows:
    """The rows of a class table, each built by ``make_row`` as it is
    iterated: no list of rows is held, and the view can be iterated again."""

    def __init__(self, classes: ClassTable, make_row):
        self.classes, self.make_row = classes, make_row

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self):
        return map(self.make_row, self.classes)

    def json_chunks(self):
        """The rows as ``json.dumps(indent=2)`` writes them inside
        ``classes``, one decoded chunk of the table at a time.

        Every field of a row but ``canonical`` and ``sum_mod_p`` depends on
        the class's stabilizer order alone, so each order's row is built
        once, by ``make_row`` on its first class, and encoded as a template;
        each class then encodes only those two fields, from its members.  No
        ``OrbitClass``, ``CmType`` or dict is built per class.
        """
        table, p = self.classes, self.classes.ctx.p
        decimal = [str(n) for n in range(p)].__getitem__
        encoders = {"canonical": lambda members: _int_list_json(members, decimal),
                    "sum_mod_p": lambda members: decimal(sum(members) % p)}
        rows = {n: self.make_row(table[int(np.argmax(table.orders == n))])
                for n in table.stabilizers}
        templates = {n: _row_template(row, encoders) for n, row in rows.items()}
        fields = [encoders[key] for key in next(iter(rows.values())) if key in encoders]
        for members, orders in table.chunks(_CHUNK_ROWS):
            columns = [list(map(encode, members)) for encode in fields]
            yield [templates[n] % values for n, values in zip(orders, zip(*columns))]


def _class_document(p: int, cap: int, make_row) -> dict:
    """The document of every orbit class, cross-checked against the
    closed-form census (its total is the Burnside count), with one row per
    class built by ``make_row``."""
    ctx = PrimeContext(p)
    classes = orbit_classes(ctx, cap)
    expected = burnside_count(ctx)
    if expected != len(classes):
        raise InternalCheckFailed(
            f"Burnside count {expected} != enumerated orbit count {len(classes)}"
        )
    # The totals agree, so once every order of the census matches, no other order has a class.
    found = np.bincount(classes.orders, minlength=ctx.g + 1).tolist()
    for n, count in census(ctx).items():
        if found[n] != count:
            raise InternalCheckFailed(
                f"census count {count} != enumerated count {found[n]} "
                f"of classes with stabilizer order {n}"
            )
    return {"version": __version__, "p": ctx.p, "g": ctx.g,
            "orbit_count": len(classes), "classes": _Rows(classes, make_row)}


def run_classify(p: int, with_lattice: bool = False, bound: int = DEFAULT_BOUND,
                 cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    doc = _class_document(p, cap, classification_row)
    if with_lattice:  # eager, so that a failed witness exits 5 before any output
        doc["classes"] = [{**row, "lattice": _lattice_witness(cls.canonical, bound)}
                          for cls, row in zip(doc["classes"].classes, doc["classes"])]
    return doc


def run_orbits(p: int, cap: int = DEFAULT_ENUMERATION_CAP) -> dict:
    return _class_document(p, cap, OrbitClass.to_json)


def run_stabilizer(p: int, members: tuple[int, ...]) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    stab = stabilizer(cm)
    return {**cm.to_json(), "stabilizer": list(stab.elements),
            "order": stab.order, "generator": stab.generator}


def run_dim(q: int, multiplicities: tuple[int, ...]) -> dict:
    profile = SpectrumProfile(q, multiplicities)
    return {"q": profile.q, "multiplicities": list(profile.multiplicities),
            "g": profile.g, "r": profile.r, "dim": stratum_dimension(profile)}


def run_polarize(p: int, members: tuple[int, ...], bound: int = DEFAULT_BOUND) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    return find_polarization(ctx, cm, bound).to_json()


def run_period(p: int, members: tuple[int, ...], bound: int = DEFAULT_BOUND) -> dict:
    ctx = PrimeContext(p)
    cm = CmType(ctx, members)
    return _lattice_witness(cm, bound)


def run_spectrum(p: int, exponents: tuple[int, ...]) -> dict:
    ctx = PrimeContext(p)
    spec = CyclicCoverSpec(ctx, exponents)
    spectrum = cw_spectrum(spec)
    try:
        row = spectrum_class(ctx, spectrum)
    except ValueError:
        row = {"canonical": None, "isolated": None}
    return {"p": ctx.p, "exponents": list(spec.exponents), "genus": cover_genus(spec),
            "support": list(spectrum_support(spectrum)),
            "class_canonical": row["canonical"], "isolated": row["isolated"]}


# ---------------------------------------------------------------------------
# output formatting


def _is_int_list(value) -> bool:
    return type(value) is list and {*map(type, value)} <= {int}


def _cell(value) -> str:
    if _is_int_list(value):
        # A literal "[]" is one shared string, as from json.dumps([]); a fresh
        # one per empty cell costs 1.3 MB at p = 41.
        return "[" + ",".join(map(str, value)) + "]" if value else "[]"
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


# Line breaks of json.dumps(indent=2) before a row, a row's field and an
# element of a field's list.
_ROW = "\n    "
_FIELD = _ROW + "  "
_ELEMENT = _FIELD + "  "
_NEXT_ELEMENT = "," + _ELEMENT
_CHUNK_ROWS = 128


def _int_list_json(ints: list, decimal=str) -> str:
    return "[" + _ELEMENT + _NEXT_ELEMENT.join(map(decimal, ints)) + _FIELD + "]" if ints else "[]"


def _field_json(value) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it at a row field's depth."""
    if _is_int_list(value):
        return _int_list_json(value)
    return json.dumps(value, indent=2).replace("\n", _FIELD)


def _column_json(values: list) -> list:
    """One field of each row in a chunk, with one type test for a column of
    ints, bools or int lists."""
    kinds = {*map(type, values)}
    if kinds == {int}:
        return list(map(str, values))
    if kinds == {bool}:
        return ["true" if value else "false" for value in values]
    if kinds == {list} and {*map(type, chain.from_iterable(values))} <= {int}:
        # One str() per distinct int: a dict lookup takes a third of its time.
        decimal = {n: str(n) for n in {*chain.from_iterable(values)}}.__getitem__
        return [_int_list_json(ints, decimal) for ints in values]
    return list(map(_field_json, values))


def _rows_json(rows: list) -> list:
    """Rows as ``json.dumps(indent=2)`` writes them inside ``classes``, a
    column at a time when every row is a dict with the string keys of the
    first, in its order."""
    keys = list(rows[0]) if type(rows[0]) is dict else []
    if {*map(type, keys)} != {str} or any(
            type(row) is not dict or list(row) != keys for row in rows):
        return [json.dumps(row, indent=2).replace("\n", _ROW) for row in rows]
    template = _row_template(rows[0], keys)
    columns = [_column_json([row[key] for row in rows]) for key in keys]
    return [template % fields for fields in zip(*columns)]


def _row_template(row: dict, slots) -> str:
    """``row`` as ``json.dumps(indent=2)`` writes it inside ``classes``,
    with ``%s`` for the value of each key in ``slots``."""
    return "{" + _FIELD + ("," + _FIELD).join(
        json.dumps(key).replace("%", "%%") + ": "
        + ("%s" if key in slots else _field_json(value).replace("%", "%%"))
        for key, value in row.items()) + _ROW + "}"


def _json_chunks(rows):
    """The JSON texts of ``rows``, ``_CHUNK_ROWS`` rows at a time."""
    if isinstance(rows, _Rows):
        yield from rows.json_chunks()
        return
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield _rows_json(chunk)


def _write_rows_json(doc: dict, sink) -> None:
    """Write ``json.dumps(doc, indent=2)`` for a document with ``classes``
    rows, ``_CHUNK_ROWS`` rows (about 60 KB) per write: one write per row, or
    chunks of a few hundred KB, fragment the heap and raise peak RSS."""
    marker = '\n  "classes": ['
    head, _, tail = json.dumps({**doc, "classes": []}, indent=2).partition(marker + "]")
    sink.write(head + marker)
    separator = _ROW
    for chunk in _json_chunks(doc["classes"]):
        sink.write(separator)
        sink.write(("," + _ROW).join(chunk))
        separator = "," + _ROW
    sink.write(("]" if separator == _ROW else "\n  ]") + tail)


def _table(doc: dict) -> list[list[str]]:
    """The header row, then one row of cells per class (or for the document
    itself when it has no ``classes``)."""
    rows = [doc] if doc.get("classes") is None else doc["classes"]
    headers = list(next(iter(rows), {}))
    return [headers, *([_cell(row.get(h)) for h in headers] for row in rows)]


def write(doc: dict, fmt: str, sink) -> None:
    """Write ``doc`` to the text stream ``sink`` in ``fmt``.  JSON rows are
    built as they are written; csv and table build every cell first."""
    if fmt == "json":
        # The row writer is exact: json.dumps escapes every newline inside a string.
        if isinstance(doc.get("classes"), (list, _Rows)):
            _write_rows_json(doc, sink)
        else:
            json.dump(doc, sink, indent=2)
        sink.write("\n")
    elif fmt == "csv":
        csv.writer(sink, lineterminator="\n").writerows(_table(doc))
    else:
        table = _table(doc)
        widths = [max(map(len, column)) for column in zip(*table)]
        sink.writelines("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n"
                        for row in table)


def render(doc: dict, fmt: str) -> str:
    """``doc`` as ``write`` writes it."""
    sink = io.StringIO()
    write(doc, fmt, sink)
    return sink.getvalue()


class _Parser(argparse.ArgumentParser):
    """A parser that reads ``--set -1,8,2`` as ``--set=-1,8,2`` for each of
    its ``long_options``, the flags that take a value, named in full or by a
    unique prefix: argparse takes a value that starts with a dash, and is not
    a plain negative number, for an option."""

    long_options = ()

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        end = args.index("--") if "--" in args else len(args)
        for i in reversed(range(end - 1)):
            names = [name for name in self.long_options if name.startswith(args[i])]
            if (args[i] in names or len(names) == 1) and re.match(r"-[0-9]", args[i + 1]):
                args[i:i + 2] = [f"{args[i]}={args[i + 1]}"]
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extremalav",
        description="Classify polarized lattice classes with an automorphism "
                    "of maximal prime order and realize them explicitly.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run, **options):
        """A subcommand: its help, its options, then ``--format``; ``run``
        maps the parsed arguments to the output document."""
        cmd = sub.add_parser(name, help=help_text)
        cmd.long_options = (*options, "--format")
        for flag, kwargs in options.items():
            cmd.add_argument(flag, **kwargs)
        cmd.add_argument("--format", choices=("json", "csv", "table"), default="json")
        cmd.set_defaults(run=run)
        return cmd

    p_arg = {"type": int, "required": True, "help": "odd prime p = 2g+1"}
    set_arg = {"required": True, "help": "comma-separated ascending residues"}
    bound_arg = {"type": int, "default": DEFAULT_BOUND, "help": "coefficient box half-width"}
    cap_arg = {"type": int, "default": DEFAULT_ENUMERATION_CAP,
               "help": "refuse enumerations beyond this many CM types"}

    classify = add("classify", "classify all orbit classes for a prime",
                   lambda a: run_classify(a.p, a.with_lattice, a.bound, a.cap),
                   **{"--p": p_arg, "--bound": bound_arg, "--cap": cap_arg})
    classify.add_argument("--with-lattice", action="store_true",
                          help="attach a polarized lattice witness to every class")
    add("orbits", "list orbit classes with stabilizers", lambda a: run_orbits(a.p, a.cap),
        **{"--p": p_arg, "--cap": cap_arg})
    add("stabilizer", "stabilizer of one CM type",
        lambda a: run_stabilizer(a.p, _parse_ints(a.set)), **{"--p": p_arg, "--set": set_arg})
    add("dim", "stratum dimension from an eigenvalue profile",
        lambda a: run_dim(a.q, _parse_ints(a.mults)),
        **{"--q": {"type": int, "required": True, "help": "prime order of the action"},
           "--mults": {"required": True, "help": "comma-separated multiplicities n_0..n_(q-1)"}})
    add("polarize", "search the coefficient box for a principal positive form",
        lambda a: run_polarize(a.p, _parse_ints(a.set), a.bound),
        **{"--p": p_arg, "--set": set_arg, "--bound": bound_arg})
    add("period", "period matrix and automorphism checks for one CM type",
        lambda a: run_period(a.p, _parse_ints(a.set), a.bound),
        **{"--p": p_arg, "--set": set_arg, "--bound": bound_arg})
    add("spectrum", "character spectrum of a cyclic cover of the line",
        lambda a: run_spectrum(a.p, _parse_ints(a.exponents)),
        **{"--p": p_arg, "--exponents": {"required": True,
                                         "help": "comma-separated branch exponents"}})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.run(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    write(doc, args.format, sys.stdout)
    return 0


def entry_point():
    raise SystemExit(main())
