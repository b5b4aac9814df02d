"""The names other code relies on: the package exports and the benchmark's
traced entry points; and rules that every source module keeps."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import extremalav
from extremalav import CmType, OrbitClass, PrimeContext

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in extremalav.__all__ if not hasattr(extremalav, name)]
    assert missing == []


def test_integer_inputs_are_tested_only_in_fp():
    """``fp.is_int`` is the one integer test: a module that checks for
    ``Integral`` or for bool itself would read integers its own way."""
    rule = re.compile(r"\bIntegral\b|isinstance\(.*\bbool\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted((ROOT / "src" / "extremalav").glob("*.py")) if path.name != "fp.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if rule.search(line)]
    assert found == []


def test_every_import_is_used():
    """Each name a module imports is read in it, unless its line carries
    ``# noqa: F401``; ``__init__`` imports to export.  Names are read off the
    syntax tree, so the test needs no linter."""
    found = []
    for path in sorted((ROOT / "src" / "extremalav").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{alias.lineno}: {name}"
                  for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                  for alias in node.names
                  for name in [alias.asname or alias.name.partition(".")[0]]
                  if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert found == []


def test_the_prime_is_passed_once():
    """An exported callable takes a ``PrimeContext`` only when none of its
    other parameters carries the prime, as a CM type and an orbit class do.
    ``find_polarization`` keeps its ``ctx``: the benchmark's tracer binds it."""
    found = []
    for name in extremalav.__all__:
        obj = getattr(extremalav, name)
        if not callable(obj) or name == "find_polarization" or (
                isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        annotations = {p.annotation for p in inspect.signature(obj).parameters.values()}
        if PrimeContext in annotations and annotations & {CmType, OrbitClass}:
            found.append(name)
    assert found == []


def test_readme_library_examples():
    """The README's ``python`` blocks run in order in one namespace, as a
    reader would paste them."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)


def test_traced_bench_child_runs(tmp_path):
    """One tiny traced benchmark job: the tracer wraps functions by name and
    binds ``find_polarization``'s ``ctx`` and ``bound``, so renaming any of
    them fails here rather than in a benchmark run, and the period query
    reaches the wrapped ``symplectic_basis``."""
    job = {
        "calls": [
            ["classify", 7, None],
            ["classify_lattice", 7, None],
            ["period", 7, [1, 2, 3]],
            ["stabilizer", 7, [1, 2, 4]],
            ["spectrum", 7, [1, 2, 4]],
        ],
        "trace": 1,
        "spans_path": str(tmp_path / "spans.json"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [call["code"] for call in result["calls"]] == [0] * len(job["calls"])
    assert (tmp_path / "spans.json").exists()
    assert result["layers"]["lattice.symplectic_s"] > 0
