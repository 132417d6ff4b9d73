"""The names ``qcw`` exports: the README's contract and the oracles' inputs.

A name is kept only as a public contract or because a reference oracle or an
acceptance criterion needs it, so the exported set is pinned here and cannot
grow back unnoticed.
"""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qcw
from qcw import SpreadLaw, sample_spread

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # parameters, configs and errors
    "ModelParams", "SimConfig", "SpreadLaw", "ValidationError", "PricePositivityError",
    # the scalar API: the price operator, its eigenvalues, the amplitude pair
    "PriceOperator2", "PriceLevels", "eigenprices", "eigenprices_batch",
    "StateVector", "propagate", "randomize_phase", "probabilities", "imbalance",
    # simulation and its reductions
    "PathSeries", "simulate_path", "simulate_ensemble", "q_of_i", "imbalance_summary",
    # the spread law
    "Histogram", "bessel_i0_scaled", "spread_pdf", "spread_log_pdf",
    "spread_cdf", "sample_spread", "ks_distance",
    # ingest and calibration
    "IngestResult", "FitResult", "read_quotes_csv", "read_ohlc_csv", "spreads_from_quotes",
    "spreads_from_ohlc", "fit_spread_params",
}


def test_exports_are_the_pinned_public_names():
    exported = {n for n in qcw.__all__ if not isinstance(getattr(qcw, n), types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_readme_and_oracle_imports_are_exported():
    sources = [
        ROOT / "README.md",
        Path(__file__).with_name("oracles.py"),
    ]
    for source in sources:
        imports = re.findall(r"from qcw import (?:\(([^)]*)\)|([^\n]*))", source.read_text())
        names = {n for group in imports for n in re.split(r"[\s,]+", "".join(group)) if n}
        assert names, source
        assert names <= PUBLIC_NAMES, (source, names - PUBLIC_NAMES)


def run_readme_block(after, cwd):
    """Run the first python block of the README after the text ``after``."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(re.escape(after) + r".*?```python\n(.*?)```", readme, re.S).group(1)
    return subprocess.run(
        [sys.executable, "-c", block],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True,
    )


def test_readme_api_sketch_runs(tmp_path):
    # Checking its imports alone would pass a sketch that calls deleted API.
    done = run_readme_block("## Python API sketch", tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_array_ingest_sketch_runs(tmp_path):
    # The block reads quotes.csv and bars.csv from the working directory.
    spreads = sample_spread(SpreadLaw(0.1, 0.05), np.random.default_rng(3), 500).tolist()
    quotes = "".join(f"{k},100.0,{100.0 + d!r}\n" for k, d in enumerate(spreads))
    (tmp_path / "quotes.csv").write_text("timestamp,bid,ask\n" + quotes)
    # high >= low, and close > 0 for the relative mode
    bars = "".join(f"{k},100.0,{100.0 + d!r},100.0,{100.0 + d / 2!r}\n"
                   for k, d in enumerate(spreads))
    (tmp_path / "bars.csv").write_text("timestamp,open,high,low,close\n" + bars)
    done = run_readme_block("The same ingest is available on arrays", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[0] == str(len(spreads))


# Run in a fresh interpreter: prints the scipy modules loaded at the end.
SIMULATE = """
import sys
from qcw.cli import main
configs = sys.argv[1]
for command, name in [("simulate", "simulate_balanced"), ("imbalance", "imbalance_balanced"),
                      ("imbalance", "imbalance_crash")]:
    assert main([command, "--config", f"{configs}/{name}.json", "--out", name]) == 0
"""
FIT = """
import numpy as np
from qcw import SpreadLaw, sample_spread
from qcw.cli import main
spreads = sample_spread(SpreadLaw(0.1, 0.05), np.random.default_rng(3), 500)
rows = "".join(f"{k},{100.0!r},{100.0 + d!r}\\n" for k, d in enumerate(spreads.tolist()))
open("quotes.csv", "w").write("timestamp,bid,ask\\n" + rows)
open("fit.json", "w").write('{"input": "quotes.csv", "format": "quotes", "out_dir": "fit"}')
assert main(["fit", "--config", "fit.json"]) == 0
"""


def scipy_modules_after(code, cwd):
    report = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    done = subprocess.run(
        [sys.executable, "-c", code + report, str(ROOT / "configs")],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import qcw, qcw.cli", SIMULATE], ids=["import", "simulate"])
def test_import_and_simulation_load_no_scipy(code, tmp_path):
    # scipy.special and scipy.optimize cost about 0.55 s and 43 MB at import,
    # and nothing but the spread law and its fit calls them.
    assert scipy_modules_after(code, tmp_path) == set()


def test_import_qcw_does_not_load_the_command_line(tmp_path):
    # qcw.float_text builds the tables of the path.csv writer at import, and
    # qcw.cli imports it; only the commands and the fit inputs need them.
    code = "import sys, qcw; print('qcw.cli' in sys.modules, 'qcw.float_text' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == ["False", "False"]


def test_fit_loads_scipy_special_but_not_optimize(tmp_path):
    loaded = scipy_modules_after(FIT, tmp_path)
    assert "scipy.special" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]}


# Dead code: an import a module never uses, and a top-level name that nothing
# in src/, tests/ or perfbench/ refers to (by name, attribute or string, as
# monkeypatch and perfbench's wrap points do). The one exception:
# perfbench's layer tracer wraps ``propagate`` at ``qcw.market_sim``, which
# imports it only for that, until the tracer wraps the code that runs.
UNUSED_IMPORTS_KEPT = {("market_sim.py", "propagate")}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def references(tree):
    """Names a module loads, attributes it reads and strings it holds, ``__all__`` aside."""
    exported = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for n in ast.walk(node.value)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in exported:
                names.add(node.value)
    return names


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_src_has_no_unused_imports_or_unreferenced_names():
    modules = {path: parse(path) for path in sorted((ROOT / "src" / "qcw").glob("*.py"))}
    referenced = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            referenced |= references(parse(path))
    dead = []
    for path, tree in modules.items():
        if path.name != "__init__.py":
            loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            dead += [
                f"{path.name}: unused import {name}"
                for name in imported_names(tree)
                if name not in loaded and (path.name, name) not in UNUSED_IMPORTS_KEPT
            ]
        dead += [
            f"{path.name}: {name} is referenced nowhere"
            for name in defined_names(tree)
            if name not in referenced and not (name.startswith("__") and name.endswith("__"))
        ]
    assert dead == []


# A parameter its function never reads. The one exception: numpy's
# ``ISeedSequence`` fixes the signature of ``generate_state``.
UNREAD_PARAMETERS_KEPT = {("market_sim.py", "generate_state", "n_words"),
                          ("market_sim.py", "generate_state", "dtype")}


def test_src_functions_read_every_parameter():
    unread = []
    for path in sorted((ROOT / "src" / "qcw").glob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.name}:{node.lineno}: {name} never reads {param}"
                for param in params
                if param not in read and (path.name, name, param) not in UNREAD_PARAMETERS_KEPT
            ]
    assert unread == []
