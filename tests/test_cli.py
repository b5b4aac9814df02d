"""End-to-end command line behavior: envelopes, formats, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import extremalav.cli as cli
from extremalav import __version__
from extremalav.cli import main
from extremalav.cmtypes import CmType
from extremalav.errors import PolarizationNotFound
from extremalav.fp import PrimeContext
from extremalav.lattice import build_polarization


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


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_json_render_equals_json_dumps(p):
    doc = cli.run_classify(p)
    assert cli.render(doc, "json") == json.dumps(doc, indent=2) + "\n"


def test_classify_p37_digest(capsys):
    """The classify output at p = 37, pinned byte for byte (3235761 bytes)."""
    code, out, _ = run(capsys, "classify", "--p", "37")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6d55c32fa8ff025153a70039d31e755656a3472d6966417c36162825aecf33b1"
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
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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
        return build_polarization(ctx, cm, (1, 1, 1))

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


def test_failed_check_names_measured_error(capsys):
    code, out, err = run(capsys, "period", "--p", "11", "--set", "2,4,6,8,10")
    assert code == 5
    assert out == ""
    assert re.search(r"fixes_tau error \d\.?\d*e-\d+ >= 1e-08", err)


# ---------------------------------------------------------------------------
# process-level behavior


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


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
