"""Per-layer tracing of the qcw benchmark, from outside the program.

Each public function of a layer is replaced, for the duration of a traced
round, at the name where its caller looks it up (``qcw.market_sim.propagate``
is what ``simulate_path`` calls). A wrapped call adds to aggregated counters
of its span name instead of recording one span per call, because the
per-step layers run hundreds of thousands of times in one round: the call
count, the busy time (the call's duration) and the self time (the duration
minus the time spent in wrapped calls nested inside it).

A wrap point whose module or name no longer exists is skipped, so a layer
that a later change removes reads 0 calls instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module where the caller looks the name up, name, span it counts towards)
WRAP_POINTS = (
    ("qcw.market_sim", "draw_elements", "stochastic_model.draw_elements"),
    ("qcw.market_sim", "step_operator", "stochastic_model.step_operator"),
    ("qcw.market_sim", "eigenprices", "operator_core.eigenprices"),
    ("qcw.market_sim", "propagate", "wave_dynamics.propagate"),
    ("qcw.market_sim", "randomize_phase", "wave_dynamics.randomize_phase"),
    ("qcw.market_sim", "imbalance", "wave_dynamics.imbalance"),
    ("qcw.market_sim", "select_trade", "market_sim.select_trade"),
    ("qcw.market_sim", "simulate_path", "market_sim.simulate_path"),
    ("qcw.cli", "simulate_path", "market_sim.simulate_path"),
    ("qcw.cli", "simulate_ensemble", "market_sim.simulate_ensemble"),
    ("qcw.cli", "q_of_i", "market_sim.reduce"),
    ("qcw.cli", "imbalance_summary", "market_sim.reduce"),
    ("qcw.cli", "read_quotes_csv", "calibration.read"),
    ("qcw.cli", "read_ohlc_csv", "calibration.read"),
    ("qcw.cli", "spreads_from_quotes", "calibration.extract"),
    ("qcw.cli", "spreads_from_ohlc", "calibration.extract"),
    ("qcw.cli", "fit_spread_params", "calibration.fit_spread_params"),
    ("qcw.calibration", "spread_log_pdf", "spread_stats.spread_log_pdf"),
    ("qcw.spread_stats", "bessel_i0_scaled", "spread_stats.bessel_i0_scaled"),
    ("qcw.spread_stats", "spread_pdf", "spread_stats.spread_pdf"),
    ("qcw.cli", "spread_pdf", "spread_stats.spread_pdf"),
    # The benchmark's own calls go through these two names.
    ("qcw", "ks_distance", "spread_stats.ks_distance"),
    ("qcw.cli", "main", "cli.main"),
)


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregates call count, busy time and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        # One entry per active wrapped call: the time spent in its children.
        self._children: list[list[float]] = []

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        active = self._children
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            active.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active.pop()
                stats.calls += 1
                stats.busy_s += elapsed
                stats.self_s += elapsed - child[0]
                if active:
                    active[-1][0] += elapsed

        return traced

    @contextmanager
    def installed(self, wrap_points=WRAP_POINTS):
        """Wrap every existing wrap point; restore the originals on exit."""
        undo = []
        try:
            for module_name, attr, span in wrap_points:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self.wrap(span, original))
                undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
