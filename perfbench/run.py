"""Benchmark of the qcw command line on three workloads.

    python3 perfbench/run.py --workload {path,ensemble,calibrate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (it needs ``src/qcw`` and
``configs/``). The benchmark

1. generates the workload's inputs from the seed in a fresh interpreter,
   several times, and reports the median of those set-up times as
   ``setup_s``; every repetition must produce byte-identical files;
2. repeats rounds of the workload for ``--seconds``: each round calls
   ``qcw.cli.main`` on every generated config (and ``ks_distance`` on each
   fit), then checks every output. ``norm_wall_s`` is the median round time;
3. with ``--trace 1``, runs one more round with every layer wrapped (see
   ``layers.py``) and reports the per-layer numbers instead of the
   end-to-end ones.

The process stays on one CPU. Every timed step (a set-up, an operation)
sits between two timings of a fixed piece of reference work, and its time
is rescaled to a nominal machine speed by them (see ``reference_s`` and
``normalized_s``). ``setup_s`` and
``norm_wall_s`` are such rescaled times; the raw ones are printed beside
them.

The last line of standard output is the result as one JSON object; the
lines before it restate the numbers for a reader. Metric names and units are
those of ``BENCHMARK.json``. ``perfbench/README.md`` describes every metric.
Scratch files go to ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORKLOADS = ("path", "ensemble", "calibrate")
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
REF_PY_LOOPS, REF_NP_LOOPS = 500_000, 3_000
# Nominal machine speed: about the reference work's time on the README's
# baseline machine. Rescaled times are in seconds of such a machine.
REF_NOMINAL_S = 0.075


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_s() -> float:
    """Time of a fixed piece of work: how fast the machine runs right now.

    On a shared host the speed of a vCPU changes, by up to 1.8x on the 2-vCPU
    VM of the README's baseline, in states that last from seconds to many
    minutes, so whole runs and whole sets of runs fall in one state. A time
    divided by this work's time, measured beside it on the same CPU, moves
    with the program and much less with the state. The work mixes the
    program's two kinds, pure-Python arithmetic and numpy calls on small
    arrays: the first alone tracked the fits and single paths best, the
    second alone the ensembles (README.md, *Noise*). The work is part of the
    benchmark, so no change to the program changes it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REF_PY_LOOPS):
        total += i * i
    rng = np.random.default_rng(0)
    x = np.zeros(16)
    for _ in range(REF_NP_LOOPS):
        x = np.exp(0.5 * rng.standard_normal(16)) + 0.1 * np.abs(x)
        x.sum()
        np.argmax(x)
    return time.perf_counter() - start


def normalized_s(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the nominal machine speed, from the reference work's
    times just before and just after them."""
    return seconds * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def pin_to_current_cpu() -> None:
    """Keep this process, and the set-up interpreters it starts, on the CPU it
    runs on now, so that the reference work and the work it rescales always
    run on the same CPU: each vCPU of a shared host changes speed on its own.
    """
    with contextlib.suppress(AttributeError, OSError, IndexError, ValueError):
        # Field 39 of /proc/self/stat is the CPU the process last ran on.
        stat = Path("/proc/self/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})


def time_setup(workload: str, seed: int, work: Path):
    """Median time of interpreter start + ``import qcw`` + input generation.

    Returns (median normalized seconds, median raw seconds, directory of the
    last generated inputs, whether every repetition wrote identical bytes).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, norm_times, digests, out = [], [], [], None
    ref = reference_s()
    for rep in range(SETUP_REPS):
        if out is not None:
            shutil.rmtree(out)
        out = work / f"inputs{rep}"
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out), "--configs", str(CONFIGS)],
            cwd=ROOT, env=env, check=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        ref_after = reference_s()
        norm_times.append(normalized_s(times[-1], ref, ref_after))
        ref = ref_after
        digests.append(_digest(out))
    return (statistics.median(norm_times), statistics.median(times), out,
            len(set(digests)) == 1)


class Workload:
    """The operations of one generated workload, run and checked in order."""

    def __init__(self, qcw, checks, inputs_dir: Path, out_dir: Path):
        self.qcw = qcw
        self.checks = checks
        self.inputs_dir = inputs_dir
        self.out_dir = out_dir
        self.ops = json.loads((inputs_dir / "manifest.json").read_text())["ops"]
        self.spreads = {op["spreads"]: np.load(inputs_dir / op["spreads"])
                        for op in self.ops if "spreads" in op}

    def _run_op(self, op: dict, record: dict) -> list:
        """Time one CLI call (and, after a fit, its KS distance) and check it.

        The times go to ``record["op_seconds"]``, keyed by the config name
        (``+ks`` for the KS distance); the check's failures are returned.
        """
        qcw = self.qcw
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [op["command"], "--config", str(self.inputs_dir / op["config"]),
                "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = qcw.cli.main(argv)
            record["op_seconds"][op["config"]] = time.perf_counter() - start
        if code != 0:
            return [f"qcw {op['command']} exited with {code}"]
        record["bytes_written"] += sum(p.stat().st_size for p in self.out_dir.iterdir())
        if op["check"] == "path":
            record["bid_fractions"].append((self.checks.bid_fraction(self.out_dir),
                                            op["n_steps"]))
            return self.checks.check_path(self.out_dir, op["n_steps"])
        if op["check"] in ("balanced", "crash"):
            return self.checks.check_ensemble(self.out_dir, op["check"], op["samples"])

        fit = json.loads((self.out_dir / "fit.json").read_text())
        start = time.perf_counter()
        law = qcw.SpreadLaw(fit["xi1_hat"], fit["kappa1_hat"])
        ks = qcw.ks_distance(self.spreads[op["spreads"]], law)
        record["op_seconds"][op["config"] + "+ks"] = time.perf_counter() - start
        record["fit_nit"] += fit["iterations"]
        record["rows"] += fit["ingestion"]["rows"]
        record["fit_rel_err"] = max(record["fit_rel_err"],
                                    self.checks.fit_rel_err(fit, op["truth"]))
        return self.checks.check_fit(fit, op["truth"], op["tolerance"], op["rows"], ks)

    def run_round(self) -> dict:
        record = {"seconds": 0.0, "norm_seconds": 0.0, "op_seconds": {}, "ref_seconds": [],
                  "attempted": len(self.ops), "failed": 0,
                  "bytes_written": 0, "fit_nit": 0, "rows": 0, "fit_rel_err": 0.0,
                  "bid_fractions": [], "items": sum(op["items"] for op in self.ops)}
        failures = {}
        ref = reference_s()
        for op in self.ops:
            timed_before = sum(record["op_seconds"].values())
            try:
                failures[op["config"]] = self._run_op(op, record)
            except Exception:  # a crash of the program or its check is a failed operation
                traceback.print_exc(file=sys.stderr)
                failures[op["config"]] = [f"qcw {op['command']} or its check raised"]
            op_s = sum(record["op_seconds"].values()) - timed_before
            ref_after = reference_s()
            record["norm_seconds"] += normalized_s(op_s, ref, ref_after)
            record["ref_seconds"].append(ref_after)
            ref = ref_after
        if record["bid_fractions"]:
            # A biased pooled fraction is a failure of every path that went into it.
            pooled = self.checks.check_bid_fraction(record["bid_fractions"])
            for op in self.ops:
                if op["check"] == "path":
                    failures[op["config"]] += pooled
        for config, failed in failures.items():
            if failed:
                record["failed"] += 1
                print(f"FAILED {config}: {'; '.join(failed)}", file=sys.stderr)
        record["seconds"] = sum(record["op_seconds"].values())
        return record

    def measure(self, seconds: float) -> list:
        """Rounds for about ``seconds``: the last one ends within half a round of it."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            rounds.append(self.run_round())
            now = time.perf_counter()
            if now + (now - start) / 2 >= deadline:
                return rounds


def layer_values(tracer, traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer metric values by name; ``<span>.calls|busy_s|self_s`` generically."""
    values = {
        "calibration.read.rows": traced["rows"],
        "calibration.fit.nit": traced["fit_nit"],
        "calibration.loglik_evals": tracer.stats("spread_stats.spread_log_pdf").calls,
        "calibration.fit_rel_err": traced["fit_rel_err"],
        "cli.self_s": tracer.stats("cli.main").self_s,
        "cli.bytes_written": traced["bytes_written"],
        "trace_overhead_s": traced["seconds"] - untraced_wall_s,
    }
    for span in {span for _, _, span in layers.WRAP_POINTS}:
        stats = tracer.stats(span)
        for field in ("calls", "busy_s", "self_s"):
            values.setdefault(f"{span}.{field}", getattr(stats, field))
    return values


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcw benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "qcw" / "__init__.py", CONFIGS, ROOT / "BENCHMARK.json")
               if not p.exists()]
    if missing:
        print(f"perfbench: not a qcw source checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import qcw
    import qcw.cli

    pin_to_current_cpu()
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        setup_s, raw_setup_s, inputs_dir, deterministic = time_setup(
            args.workload, args.seed, work)
        if not deterministic:
            print("FAILED: one seed gave different inputs", file=sys.stderr)
        bench = Workload(qcw, checks, inputs_dir, work / "out")
        rounds = bench.measure(args.seconds)
        wall_s = statistics.median(r["seconds"] for r in rounds)
        ref_s = statistics.median(t for r in rounds for t in r["ref_seconds"])
        norm_wall_s = statistics.median(r["norm_seconds"] for r in rounds)
        if args.trace:
            tracer = layers.Tracer()
            with tracer.installed():
                traced = bench.run_round()
            rounds.append(traced)
            values = layer_values(tracer, traced, wall_s)
            listed = spec["per_layer"]
        else:
            values = {
                "norm_wall_s": norm_wall_s,
                "norm_items_per_s": rounds[0]["items"] / norm_wall_s,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    item_name = "rows" if args.workload == "calibrate" else "steps"
    print("env " + json.dumps(environment(), sort_keys=True))
    round_times = ", ".join(f"{r['seconds']:.3f}" for r in rounds)
    fit_note = (f", fit_rel_err={rounds[-1]['fit_rel_err']:.4g}"
                if args.workload == "calibrate" else "")
    print(f"{args.workload} seed={args.seed}: rounds of {round_times} s, "
          f"failed_frac={failed / attempted:.4g} ({failed}/{attempted}){fit_note}")
    print(f"  raw: wall_s = {wall_s:.6g} s (median round), {item_name}_per_s = "
          f"{rounds[0]['items'] / wall_s:.6g}, setup_s = {raw_setup_s:.6g} s; "
          f"reference work {ref_s:.6g} s (nominal {REF_NOMINAL_S} s)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        label = f"norm_{item_name}_per_s" if name == "norm_items_per_s" else name
        print(f"  {label} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": deterministic and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
