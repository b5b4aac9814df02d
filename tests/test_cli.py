"""End-to-end command line behavior: envelopes, formats, exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import extremalav.cli as cli
from extremalav import __version__
from extremalav.cli import main
from extremalav.cmtypes import CmType, enumerate_cm_types
from extremalav.errors import PolarizationNotFound
from extremalav.fp import PrimeContext, is_prime
from extremalav.lattice import build_polarization
from extremalav.orbits import ClassTable, OrbitClass, orbit_classes
from extremalav.strata import classification_row


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_classify_json_envelope(capsys):
    code, out, err = run(capsys, "classify", "--p", "11")
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["version"] == __version__
    assert (doc["p"], doc["g"], doc["orbit_count"]) == (11, 5, 4)
    assert [row["canonical"] for row in doc["classes"]] == [
        [1, 2, 3, 4, 5],
        [1, 2, 3, 4, 6],
        [1, 2, 3, 5, 7],
        [1, 3, 4, 5, 9],
    ]
    last = doc["classes"][-1]
    assert last["orbit_size"] == 2
    assert last["stabilizer"] == [1, 3, 4, 5, 9]
    assert last["isolated"] is False
    assert last["containing_strata"] == [
        {"q": 5, "theta": 3, "multiplicities": [1, 1, 1, 1, 1], "dim": 3}
    ]


def test_classify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--p", "13")
    _, second, _ = run(capsys, "classify", "--p", "13")
    assert first == second


def test_classify_with_lattice(capsys):
    code, out, _ = run(capsys, "classify", "--p", "7", "--with-lattice", "--bound", "1")
    assert code == 0
    doc = json.loads(out)
    for row in doc["classes"]:
        witness = row["lattice"]
        assert witness["pfaffian"] in (1, -1)
        assert all(witness["checks"].values())
    assert doc["classes"][0]["lattice"]["c"] == [1, -1, 1]


def test_orbits_envelope(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["orbit_count"] == 2
    assert doc["classes"] == [
        {"canonical": [1, 2, 3], "orbit_size": 6, "stabilizer": [1], "stabilizer_order": 1},
        {"canonical": [1, 2, 4], "orbit_size": 2, "stabilizer": [1, 2, 4], "stabilizer_order": 3},
    ]


def test_stabilizer_document(capsys):
    code, out, _ = run(capsys, "stabilizer", "--p", "11", "--set", "1,3,4,5,9")
    assert code == 0
    assert json.loads(out) == {
        "p": 11,
        "set": [1, 3, 4, 5, 9],
        "stabilizer": [1, 3, 4, 5, 9],
        "order": 5,
        "generator": 3,
    }


def test_stabilizer_rejects_bool_residues():
    # True passes as the residue 1, and its JSON would read "set": [true, 2, 4].
    with pytest.raises(ValueError, match="residue out of range"):
        cli.run_stabilizer(7, (True, 2, 4))


@pytest.mark.parametrize(
    "run, args",
    [
        (cli.run_classify, (7,)),
        (cli.run_orbits, (7,)),
        (cli.run_stabilizer, (7, (1, 2, 4))),
        (cli.run_dim, (5, (1, 1, 1, 1, 1))),
        (cli.run_polarize, (7, (1, 2, 4), 1)),
        (cli.run_period, (7, (1, 2, 4))),
        (cli.run_spectrum, (7, (1, 2, 4))),
    ],
    ids=["classify", "orbits", "stabilizer", "dim", "polarize", "period", "spectrum"],
)
def test_numpy_integer_arguments_render_the_same_bytes(run, args):
    """Each document echoes the integers it read, not the numpy arguments,
    which ``json`` cannot serialize."""
    def as_numpy(x):
        return tuple(map(np.int64, x)) if isinstance(x, tuple) else np.int64(x)

    assert cli.render(run(*map(as_numpy, args)), "json") == cli.render(run(*args), "json")


def test_dim_document(capsys):
    code, out, _ = run(capsys, "dim", "--q", "5", "--mults", "1,1,1,1,1")
    assert code == 0
    assert json.loads(out) == {
        "q": 5,
        "multiplicities": [1, 1, 1, 1, 1],
        "g": 5,
        "r": 2,
        "dim": 3,
    }


def test_polarize_document(capsys):
    code, out, _ = run(capsys, "polarize", "--p", "7", "--set", "1,2,4", "--bound", "1")
    assert code == 0
    assert json.loads(out) == {"p": 7, "set": [1, 2, 4], "c": [0, 1, -1], "pfaffian": -1}


def test_period_document(capsys):
    code, out, _ = run(capsys, "period", "--p", "3", "--set", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == [1]
    assert doc["tau_re"] == [[-0.4999999999999998]]
    assert doc["tau_im"] == [[0.8660254037844387]]
    assert all(doc["checks"].values())


def test_spectrum_document(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "11", "--exponents", "2,8")
    assert code == 0
    assert json.loads(out) == {
        "p": 11,
        "exponents": [2, 8, 1],
        "genus": 5,
        "support": [4, 5, 8, 9, 10],
        "class_canonical": [1, 2, 3, 4, 6],
        "isolated": True,
    }


def test_spectrum_document_without_class(capsys):
    code, out, _ = run(capsys, "spectrum", "--p", "5", "--exponents", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["support"] == [2, 3, 4]
    assert doc["class_canonical"] is None
    assert doc["isolated"] is None


# ---------------------------------------------------------------------------
# formats


def test_csv_format(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "7", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "canonical,orbit_size,stabilizer,stabilizer_order"
    assert lines[1] == '"[1,2,3]",6,[1],1'
    assert lines[2] == '"[1,2,4]",2,"[1,2,4]",3'


def test_table_format(capsys):
    code, out, _ = run(capsys, "orbits", "--p", "7", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["canonical", "orbit_size", "stabilizer", "stabilizer_order"]
    assert len(lines) == 3


# Documents for the JSON writer: class tables streamed past one decoded chunk
# (p >= 29), the --with-lattice lists and documents without rows, written as
# one json.dumps, and synthetic documents that the program never builds,
# which pin render to json.dumps for any document.
RENDER_DOCUMENTS = [
    *(pytest.param(lambda p=p: cli.run_classify(p), id=str(p))
      for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    *(pytest.param(lambda p=p: cli.run_orbits(p), id=f"orbits-{p}") for p in [7, 13, 31]),
    *(pytest.param(lambda p=p: cli.run_classify(p, with_lattice=True), id=f"lattice-{p}")
      for p in [7, 11, 13]),
    pytest.param(lambda: cli.run_period(7, (1, 2, 4), 1), id="period"),
    pytest.param(lambda: cli.run_polarize(7, (1, 2, 4), 1), id="polarize"),
    pytest.param(lambda: cli.run_stabilizer(11, (1, 3, 4, 5, 9)), id="stabilizer"),
    pytest.param(lambda: cli.run_dim(5, (1, 1, 1, 1, 1)), id="dim"),
    pytest.param(lambda: cli.run_spectrum(5, (1, 1, 1)), id="spectrum-without-class"),
    pytest.param(lambda: {"p": 5, "classes": []}, id="no-rows"),
    pytest.param(lambda: {"classes": [{"name": 'a "b"\nc', "set": [1]}], "p": 5},
                 id="escaped-string"),
    pytest.param(lambda: {"classes": [{"mixed": [1, True, 1.5], "flags": [True, False]}]},
                 id="mixed-list"),
    pytest.param(lambda: {"classes": [{"a": 1, "b": [2, 3]}, {"b": None, "c": {"d": [4]}},
                                      {}, [5], 6]},
                 id="differing-rows"),
    pytest.param(lambda: {"classes": [{"n": 1, "m": True, "l": [1]},
                                      {"n": True, "m": 0, "l": [True]},
                                      {"n": 2, "m": 3, "l": [1, 2]}]},
                 id="ints-and-bools-in-a-column"),
    pytest.param(lambda: {"classes": [{"a%s": 1, "%": [2], "b%%d": "%s"},
                                      {"a%s": 3, "%": [], "b%%d": "%d"}]},
                 id="percent-in-keys"),
    pytest.param(lambda: {"classes": [{"a": 1, "b": [2]}, {"b": [3], "a": 4}, {"a": 5, "b": []}]},
                 id="same-keys-other-order"),
    pytest.param(lambda: {"classes": [*({"a": i, "b": [i, -i]} for i in range(128)),
                                      {"c": True, "a": 1}, {"c": False, "a": [2]}]},
                 id="keys-change-after-a-chunk"),
    pytest.param(lambda: {"classes": [{"n": -1, "l": [-(2**64) - 1, 2**64 + 1]},
                                      {"n": 2**70, "l": [-2**63, 0]}]},
                 id="big-and-negative-ints"),
    pytest.param(lambda: {"classes": [{"l": [], "m": []}, {"l": [], "m": [1]}], "e": []},
                 id="empty-lists"),
    pytest.param(lambda: {"classes": [{1: 2, None: [3]}, {1: 4, None: []}]},
                 id="non-string-keys"),
]


@pytest.mark.parametrize("make", RENDER_DOCUMENTS)
def test_json_render_equals_json_dumps(make):
    """``classes`` may be a view that builds its rows as it is iterated, which
    ``json.dumps`` cannot write: a second document has them as a list."""
    listed = make()
    if "classes" in listed:
        listed["classes"] = list(listed["classes"])
    assert cli.render(make(), "json") == json.dumps(listed, indent=2) + "\n"


@pytest.mark.parametrize("run", [cli.run_classify, cli.run_orbits], ids=["classify", "orbits"])
def test_streamed_rows_render_again(run):
    """The rows of a classify or orbits document are built on each pass."""
    doc = run(13)
    first = cli.render(doc, "json")
    assert len(json.loads(first)["classes"]) == doc["orbit_count"] == len(doc["classes"])
    assert cli.render(doc, "json") == first


ORACLE_PRIMES = [p for p in range(3, 32) if is_prime(p)]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_class_rows_render_as_plain_rows(p, fmt):
    """classify and orbits render as the same document with a plain list of
    ``classification_row`` / ``to_json`` rows does: ``json.dumps`` for JSON,
    the list path for csv and table."""
    classes = orbit_classes(PrimeContext(p))
    for run, make_row in ((cli.run_classify, classification_row),
                          (cli.run_orbits, OrbitClass.to_json)):
        plain = {**run(p), "classes": [make_row(cls) for cls in classes]}
        expected = json.dumps(plain, indent=2) + "\n" if fmt == "json" else cli.render(plain, fmt)
        assert cli.render(run(p), fmt) == expected


def test_classify_json_memory_at_p41():
    """The sweep and the JSON rows at p = 41 hold the survivor words and
    one chunk of rows, not an object per class: with an ``OrbitClass`` held
    for each of the 26216 classes the peak was 17.9 MiB."""

    class HashingSink:
        def __init__(self):
            self.digest = hashlib.sha256()

        def write(self, text):
            self.digest.update(text.encode())

    sink = HashingSink()
    tracemalloc.start()
    try:
        cli.write(cli.run_classify(41), "json", sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == (
        "2b9b189167166da0719036c1d62e220b820402fded79357239ea529e3389545b"
    )
    assert peak < 6 * 2**20


def test_classify_p37_digest(capsys):
    """The classify output at p = 37, pinned byte for byte (3235761 bytes)."""
    code, out, _ = run(capsys, "classify", "--p", "37")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6d55c32fa8ff025153a70039d31e755656a3472d6966417c36162825aecf33b1"
    )


def test_classify_writes_its_output_in_pieces(monkeypatch):
    """``main`` writes classify's JSON to stdout a chunk of rows at a time,
    not as one rendered string."""
    sizes = []

    class Sink(io.StringIO):
        def write(self, text):
            sizes.append(len(text.encode()))
            return super().write(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["classify", "--p", "37"]) == 0
    assert max(sizes) <= 256 * 1024
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == (
        "6d55c32fa8ff025153a70039d31e755656a3472d6966417c36162825aecf33b1"
    )


def test_classify_p13_with_lattice_digest(capsys):
    """The lattice witnesses at p = 13, tau included, pinned byte for byte
    (21277 bytes): a deliberate change of tau must be a recorded edit here."""
    code, out, _ = run(capsys, "classify", "--p", "13", "--with-lattice")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "384044a0814a301f8cd06920967dec089fb1f87e9756a101fa866cf244bc8adb"
    )


@pytest.mark.parametrize("argv, size, digest", [
    (("--p", "41"), 12266609,
     "2b9b189167166da0719036c1d62e220b820402fded79357239ea529e3389545b"),
    (("--p", "31", "--format", "csv"), 74018,
     "bb67224a1f2c65f997cbaf26a5a1fc6ebf628234753107b9914aeb047e223335"),
    (("--p", "31", "--format", "table"), 162686,
     "d26f540ed5524010cbeda7ac874fcf87608469e58f43a1c3b59f7216295a0844"),
    (("--p", "13", "--with-lattice", "--format", "csv"), 10520,
     "f953ae737b1f5731c4b557cb475ba3dad47f1956c0d08900515642508f587baa"),
], ids=["p41-json", "p31-csv", "p31-table", "p13-lattice-csv"])
def test_classify_output_digest(capsys, argv, size, digest):
    """Larger classify outputs, pinned byte for byte in each format."""
    code, out, _ = run(capsys, "classify", *argv)
    assert code == 0
    assert len(out.encode()) == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_period_queries_digest(capsys):
    """``period`` on all 96 CM types at p = 11 and 13, pinned byte for byte
    over stdout, stderr and exit code.  Every one passes all five checks: a
    change of tau or a failure must be a recorded edit here."""
    digest = hashlib.sha256()
    failures = 0
    for p in (11, 13):
        for cm in enumerate_cm_types(PrimeContext(p)):
            members = ",".join(map(str, cm.members))
            code, out, err = run(capsys, "period", "--p", str(p), "--set", members)
            digest.update(f"{code}\n{out}\n{err}\n".encode())
            failures += code != 0
    assert failures == 0
    assert digest.hexdigest() == (
        "9f7adaef810491045c60e0afe2521adfced8677f12ed46daf9b9b7ac6518f764"
    )


def test_single_document_formats_agree(capsys):
    _, as_json, _ = run(capsys, "dim", "--q", "3", "--mults", "2,2,2")
    _, as_csv, _ = run(capsys, "dim", "--q", "3", "--mults", "2,2,2", "--format", "csv")
    doc = json.loads(as_json)
    header, row = as_csv.splitlines()
    assert header.split(",") == list(doc.keys())
    assert row.split(",")[-1] == str(doc["dim"]) == "7"


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--p", "12"),
        ("classify", "--p", "-7"),
        ("stabilizer", "--p", "11", "--set", "1,2,3"),
        ("stabilizer", "--p", "11", "--set", "1,2,x"),
        ("dim", "--q", "6", "--mults", "1,1,1,1,1,1"),
        ("dim", "--q", "3", "--mults", "0,1,2,3"),
        ("polarize", "--p", "7", "--set", "1,2,3", "--bound", "0"),
        ("spectrum", "--p", "7", "--exponents", "3,4"),
        ("spectrum", "--p", "7", "--exponents", "0,1,6"),
        ("dim", "--q", "2", "--mults", "1,1"),
        ("stabilizer", "--p", "11", "--set", "1,2,3,4,5,5"),
        ("polarize", "--p", "7", "--set", "1,1,2,4", "--bound", "1"),
        ("period", "--p", "7", "--set", "1,2,3,3"),
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("stabilizer", "--p", "7", "--set", "-1,8,2"), "residue out of range 1..6: 8"),
        (("spectrum", "--p", "7", "--exponents", "-1,2"), "residue out of range 1..6: -1"),
        (("dim", "--q", "3", "--mults", "-1,2,2"),
         "inconsistent spectrum: need 3 multiplicities >= 0"),
        (("stabilizer", "--p", "7", "--se", "-1,8,2"), "residue out of range 1..6: 8"),
        (("spectrum", "--p", "7", "--exp", "-1,2"), "residue out of range 1..6: -1"),
        (("dim", "--q", "3", "--mul", "-1,2,2"),
         "inconsistent spectrum: need 3 multiplicities >= 0"),
    ],
    ids=["set", "exponents", "mults", "se", "exp", "mul"],
)
def test_negative_first_list_value_is_read_as_the_value(capsys, argv, err):
    """``--set -1,8,2`` behaves as ``--set=-1,8,2``, also with the flag
    abbreviated, although argparse alone takes a value that starts with a
    dash for an option."""
    results = []
    for spelling in (argv, (*argv[:-2], f"{argv[-2]}={argv[-1]}")):
        try:
            results.append(run(capsys, *spelling))
        except SystemExit as exc:
            results.append((exc.code, *capsys.readouterr()))
    assert results[0] == results[1] == (2, "", f"error: {err}\n")


def test_cap_exceeded_exits_3(capsys):
    code, _, err = run(capsys, "classify", "--p", "53")
    assert code == 3
    assert "enumeration too large" in err
    code, _, err = run(capsys, "orbits", "--p", "11", "--cap", "16")
    assert code == 3
    assert err == "error: enumeration too large: 2**5 CM types exceeds cap 16\n"
    # exactly at the cap is allowed
    code, _, _ = run(capsys, "orbits", "--p", "11", "--cap", "32")
    assert code == 0


def test_word_width_exits_3_at_once(capsys):
    """Beyond p = 65 the orbit sweep's 64-bit word is the limit, whatever the
    cap; the refusal comes before any allocation."""
    start = time.perf_counter()
    code, out, err = run(capsys, "orbits", "--p", "67", "--cap", "10000000000")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert err == ("error: enumeration too large: p = 67 needs 66 bits, "
                   "over the 64-bit indicator word of the orbit sweep\n")


def test_polarization_not_found_exits_4(capsys, monkeypatch):
    def exhausted(ctx, cm, bound=5):
        raise PolarizationNotFound(f"no polarization in box [-{bound}, {bound}]")

    monkeypatch.setattr(cli, "find_polarization", exhausted)
    code, out, err = run(capsys, "polarize", "--p", "7", "--set", "1,2,3")
    assert code == 4
    assert out == ""
    assert "no polarization" in err


def test_degenerate_witness_exits_5(capsys, monkeypatch):
    """Riemann relation failures inside the period pipeline map to exit 5."""

    def degenerate(ctx, cm, bound=5):
        return build_polarization(cm, (1, 1, 1))

    monkeypatch.setattr(cli, "find_polarization", degenerate)
    code, out, err = run(capsys, "period", "--p", "7", "--set", "1,2,3")
    assert code == 5
    assert out == ""
    assert "Riemann relations violated" in err


@pytest.mark.parametrize("command", ["classify", "orbits"])
def test_internal_mismatch_exits_5(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "burnside_count", lambda ctx: 99)
    code, _, err = run(capsys, command, "--p", "7")
    assert code == 5
    assert "Burnside count" in err


@pytest.mark.parametrize("command", ["classify", "orbits"])
def test_census_mismatch_exits_5(capsys, monkeypatch, command):
    """A sweep whose histogram of stabilizer orders differs from the census,
    with the right total, names the order and both counts."""
    real = cli.orbit_classes

    def moved(ctx, cap):
        table = real(ctx, cap)
        orders = table.orders.copy()
        orders[0] = 3  # one of the 5 classes of order 1 at p = 13 moved to order 3
        return ClassTable(ctx, table.words, orders)

    monkeypatch.setattr(cli, "orbit_classes", moved)
    code, out, err = run(capsys, command, "--p", "13")
    assert code == 5
    assert out == ""
    assert err == ("error: census count 5 != enumerated count 4 "
                   "of classes with stabilizer order 1\n")


def test_failed_check_names_measured_error(capsys, monkeypatch):
    """A period point moved by 1e-6 fails fixes_tau and spectrum, and the
    message gives the error measured for each; classify stops before any
    output."""
    real = cli.period_matrix

    def moved(polarization):
        data = real(polarization)
        return dataclasses.replace(data, tau=data.tau + 1e-6)

    monkeypatch.setattr(cli, "period_matrix", moved)
    for argv in (("period", "--p", "11", "--set", "2,4,6,8,10"),
                 ("classify", "--p", "11", "--with-lattice")):
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert out == ""
        assert re.fullmatch(r"error: automorphism checks failed for set \[[\d, ]+\]: "
                            r"fixes_tau error \d\.?\d*e-\d+ >= 1e-08, "
                            r"spectrum error \d\.?\d*e-\d+ >= 1e-08\n", err)


def test_classify_p17_with_lattice_passes_every_check(capsys):
    """Every class at p = 17 gets a witness that passes all five checks."""
    code, out, err = run(capsys, "classify", "--p", "17", "--with-lattice")
    assert (code, err) == (0, "")
    rows = json.loads(out)["classes"]
    assert len(rows) == 16
    assert all(all(row["lattice"]["checks"].values()) for row in rows)


def test_classify_p19_with_lattice_passes_every_check(capsys):
    """Every class at p = 19 gets a witness that passes all five checks."""
    code, out, err = run(capsys, "classify", "--p", "19", "--with-lattice")
    assert (code, err) == (0, "")
    rows = json.loads(out)["classes"]
    assert len(rows) == 30
    assert all(all(row["lattice"]["checks"].values()) for row in rows)


def test_riemann_violation_names_measured_eigenvalue(capsys, monkeypatch):
    """A form whose sign vector is negated picks the wrong block convention:
    tau is then the inverse of a period point, and Im tau is negative definite."""
    def negated(ctx, cm, bound=5):
        pol = build_polarization(cm, (-5, 2, 2, -3, 2, 5))
        return dataclasses.replace(pol, alpha_imag=tuple(-v for v in pol.alpha_imag))

    monkeypatch.setattr(cli, "find_polarization", negated)
    code, out, err = run(capsys, "period", "--p", "13", "--set", "1,3,5,7,9,11")
    assert code == 5
    assert out == ""
    assert err.startswith("error: Riemann relations violated for c = [-5, 2, 2, -3, 2, 5] "
                          "on set [1, 3, 5, 7, 9, 11]: ")
    assert re.search(r": min eigenvalue of Im tau -\d\.?\d*(e-\d+)? <= 1e-09\n$", err)


# ---------------------------------------------------------------------------
# process-level behavior


def test_help_digest(capsys, monkeypatch):
    """``--help`` of the top level and of each subcommand, pinned byte for
    byte at 80 columns (3327 characters)."""
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for command in ("", "classify", "orbits", "stabilizer", "dim", "polarize", "period",
                    "spectrum"):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--help"])
        assert exc.value.code == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "985000505bc3ab47bbf31ec45f2772497701c9a2cf9e118b654b1762a7ca1a65"
    )


def test_readme_examples(capsys):
    """Every ``$ extremalav ...`` example in the README that shows output
    prints it: csv and table exactly, JSON (shown compacted) as equal data."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [
        (command, shown)
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
        for command, shown in re.findall(r"^\$ extremalav (.*)\n((?:(?!\$ ).+\n)*)", block, re.M)
        if shown
    ]
    assert len(examples) == 7
    for command, shown in examples:
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, ""), command
        if "--format" in command:
            assert out == shown, command
        else:
            assert json.loads(out) == json.loads(shown), command


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"extremalav {__version__}\n"


def test_entry_point_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["extremalav", "orbits", "--p", "7"])
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 0


def test_module_execution():
    # The child imports the package from the same path as this test process.
    proc = subprocess.run(
        [sys.executable, "-m", "extremalav", "stabilizer", "--p", "7", "--set", "1,2,4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 3


def test_closed_pipe_exits_141_quietly():
    """A reader that stops after one byte, as ``| head -c1`` does, ends the
    run with the documented code 141 and nothing on standard error.  The
    3.2 MB of ``classify --p 37`` overfill the pipe, so the child is still
    writing when the reader closes it."""
    with subprocess.Popen(
        [sys.executable, "-m", "extremalav", "classify", "--p", "37"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141
    assert err == b""


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
