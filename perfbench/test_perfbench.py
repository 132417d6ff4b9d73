"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import layers
import run

CONFIGS = run.CONFIGS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        leaf()

    def top():
        clock.now += 0.5
        middle()
        clock.now += 0.25
        leaf()

    leaf, middle, top = (tracer.wrap(name, fn) for name, fn in
                         (("leaf", leaf), ("middle", middle), ("top", top)))
    top()

    assert (tracer.stats("leaf").calls, tracer.stats("leaf").busy_s) == (3, 6.0)
    assert tracer.stats("leaf").self_s == 6.0
    assert (tracer.stats("middle").busy_s, tracer.stats("middle").self_s) == (5.0, 1.0)
    assert (tracer.stats("top").busy_s, tracer.stats("top").self_s) == (7.75, 0.75)


def test_an_exception_still_closes_its_span():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise ValueError

    failing = tracer.wrap("failing", failing)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("outer", outer)()
    assert (tracer.stats("failing").calls, tracer.stats("failing").busy_s) == (1, 1.0)
    assert (tracer.stats("outer").busy_s, tracer.stats("outer").self_s) == (2.0, 1.0)


def test_missing_wrap_points_read_zero_and_wrappers_are_restored():
    import qcw.market_sim

    original = qcw.market_sim.propagate
    points = (
        ("qcw.market_sim", "propagate", "wave_dynamics.propagate"),
        ("qcw.market_sim", "no_such_function", "gone.layer"),
        ("qcw.no_such_module", "draw_elements", "gone.module"),
    )
    tracer = layers.Tracer()
    with tracer.installed(points):
        assert qcw.market_sim.propagate is not original
    assert qcw.market_sim.propagate is original
    assert tracer.stats("gone.layer").calls == 0
    assert tracer.stats("gone.module").busy_s == 0.0


def test_every_listed_per_layer_metric_has_a_value():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = {"rows": 0, "fit_nit": 0, "fit_rel_err": 0.0, "bytes_written": 0,
              "seconds": 1.0}
    values = run.layer_values(layers.Tracer(), traced, 1.0)
    assert {m["name"] for m in spec["per_layer"]} <= values.keys()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = inputs.generate(workload, 5, tmp_path / "a", CONFIGS)
    inputs.generate(workload, 5, tmp_path / "b", CONFIGS)
    inputs.generate(workload, 6, tmp_path / "c", CONFIGS)
    assert run._digest(tmp_path / "a") == run._digest(tmp_path / "b")
    assert run._digest(tmp_path / "a") != run._digest(tmp_path / "c")
    for op in first["ops"]:
        generated = json.loads((tmp_path / "a" / op["config"]).read_text())
        shipped_name = ("simulate_balanced.json" if op["command"] == "simulate" else
                        {"fit_ohlc.json": "fit_quotes.json"}.get(op["config"], op["config"]))
        shipped = json.loads((CONFIGS / shipped_name).read_text())
        changed = {k for k in generated if generated[k] != shipped.get(k)}
        assert changed <= {"seed", "n_steps", "n_paths", "input", "format", "ohlc_mode"}


def _small_path_workload(tmp_path: Path, n_steps: int = 5000) -> Path:
    inputs_dir = tmp_path / "inputs"
    inputs_dir.mkdir()
    cfg = dict(json.loads((CONFIGS / "simulate_balanced.json").read_text()), n_steps=n_steps)
    (inputs_dir / "simulate.json").write_text(json.dumps(cfg))
    manifest = {"ops": [{"command": "simulate", "config": "simulate.json", "check": "path",
                         "n_steps": n_steps, "items": n_steps}]}
    (inputs_dir / "manifest.json").write_text(json.dumps(manifest))
    return inputs_dir


def _swap_bid_ask(path_csv: Path, row: int) -> None:
    lines = path_csv.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[1], fields[2] = fields[2], fields[1]
    lines[data[row]] = ",".join(fields)
    path_csv.write_text("\n".join(lines) + "\n")


class CorruptingChecks:
    """The real checks, run on a path.csv with one row's bid and ask swapped."""

    fit_rel_err = staticmethod(checks.fit_rel_err)
    bid_fraction = staticmethod(checks.bid_fraction)
    check_bid_fraction = staticmethod(checks.check_bid_fraction)

    @staticmethod
    def check_path(out_dir, n_steps):
        _swap_bid_ask(out_dir / "path.csv", row=n_steps // 2)
        return checks.check_path(out_dir, n_steps)


def test_corrupted_path_output_is_counted_as_failed(tmp_path):
    import qcw.cli

    inputs_dir = _small_path_workload(tmp_path)
    good = run.Workload(qcw, checks, inputs_dir, tmp_path / "out").run_round()
    assert (good["attempted"], good["failed"]) == (1, 0)

    bad = run.Workload(qcw, CorruptingChecks, inputs_dir, tmp_path / "out").run_round()
    assert (bad["attempted"], bad["failed"]) == (1, 1)


def test_path_check_reports_row_count_and_order(tmp_path):
    import qcw.cli

    inputs_dir = _small_path_workload(tmp_path)
    run.Workload(qcw, checks, inputs_dir, tmp_path / "out").run_round()
    out = tmp_path / "out"
    assert checks.check_path(out, 5000) == []
    assert "rows" in checks.check_path(out, 5001)[0]
    _swap_bid_ask(out / "path.csv", row=0)
    assert "s_bid <= s_trade <= s_ask" in checks.check_path(out, 5000)[0]


def test_ensemble_check_rejects_bad_masses_and_moments(tmp_path):
    (tmp_path / "qi.csv").write_text(
        "# meta\nbin_left,bin_right,mass\n-1.0,0.0,0.5\n0.0,1.0,0.4\n")
    (tmp_path / "moments.json").write_text(json.dumps(
        {"n": 10, "skewness": 0.5, "negative_fraction": 0.5}))
    failures = checks.check_ensemble(tmp_path, "balanced", 10)
    assert len(failures) == 2
    assert len(checks.check_ensemble(tmp_path, "crash", 11)) == 3


def test_bid_fraction_is_checked_pooled():
    assert checks.check_bid_fraction([(0.47, 10_000), (0.53, 10_000)]) == []
    assert checks.check_bid_fraction([(0.47, 10_000), (0.49, 10_000)]) != []
    assert checks.check_bid_fraction([(0.47, 90_000), (0.53, 10_000)]) != []


def test_times_are_rescaled_by_the_reference_loop_around_them():
    nominal = run.REF_NOMINAL_S
    assert run.normalized_s(3.0, nominal, nominal) == pytest.approx(3.0)
    assert run.normalized_s(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert run.normalized_s(3.0, nominal, 3 * nominal) == pytest.approx(1.5)


def test_fit_check():
    fit = {"xi1_hat": 0.101, "kappa1_hat": 0.0505, "converged": True,
           "ingestion": {"rows": 100, "kept": 100}}
    tol = (0.05, 0.05)
    assert checks.fit_rel_err(fit, (0.1, 0.05)) == pytest.approx(0.01)
    assert checks.check_fit(fit, (0.1, 0.05), tol, 100, ks=0.001) == []
    bad = dict(fit, converged=False, ingestion={"rows": 100, "kept": 99})
    assert len(checks.check_fit(bad, (0.1, 0.05), tol, 100, ks=0.5)) == 3
    assert len(checks.check_fit(fit, (0.2, 0.05), tol, 100, ks=0.001)) == 1
    assert checks.check_fit(fit, (0.1, 0.055), (0.05, 0.15), 100, ks=0.001) == []
    assert len(checks.check_fit(fit, (0.1, 0.055), tol, 100, ks=0.001)) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
