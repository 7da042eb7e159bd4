"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces, for the duration of a ``with`` block, the
module attributes and ``Engine`` methods through which the layers call
each other with wrappers that time each call.  Each wrapper goes on the
attribute the caller looks up at call time (``sim`` looks up
``synthesize_gains`` and ``eval_stacked`` in its own namespace, and
``safety.sequential_filter`` in ``safety``'s), so no source changes.

A full run makes millions of spans, so spans are aggregated per name as
they close: count, total time and self time (total minus the time of
the spans that ran inside it).  A stack holds the child time of each
open span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}     # name -> [count, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records one ``name`` span; ``after``
        sees ``(args, result)`` once the span has closed."""
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, out)
            return out

        return traced

    @contextmanager
    def install(self, sim, safety):
        """Trace every layer boundary inside ``sim.run`` while active."""

        def filter_done(args, results):
            if any(np.any(r.delta_u != 0) for r in results):
                self.count("safety.filter_modified_calls")

        def qp_done(args, result):
            self.count("safety.qp_rows", len(args[1]))
            self.count("safety.qp_active_rows", len(result.active_set))
            if np.any(result.delta_u != 0):
                self.count("safety.qp_modified_calls")

        targets = [
            (sim, "synthesize_gains", "gains.synth", None),
            (sim, "eval_stacked", "attacks.eval", None),
            (safety, "sequential_filter", "safety.filter", filter_done),
            (safety, "build_constraint", "safety.constraint", None),
            (safety, "solve_agent_qp", "safety.qp", qp_done),
            (sim.Engine, "__init__", "sim.engine_init", None),
            (sim.Engine, "_rk4", "sim.rk4", None),
            (sim.Engine, "_pipeline", "sim.pipeline", None),
            (sim.Engine, "_unpack", "sim.unpack", None),
            (sim.Engine, "observe", "sim.observe", None),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, after in targets:
                setattr(owner, attr, self.span(name, getattr(owner, attr), after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of one traced job (counts and seconds)."""
        calls = {name: agg[0] for name, agg in self.spans.items()}
        total = {name: agg[1] for name, agg in self.spans.items()}
        own = {name: agg[2] for name, agg in self.spans.items()}
        count = self.counters
        return {
            "scenario.load_s": total.get("scenario.load", 0.0),
            "gains.synth_calls": calls.get("gains.synth", 0),
            "gains.synth_s": total.get("gains.synth", 0.0),
            "sim.engine_init_self_s": own.get("sim.engine_init", 0.0),
            "attacks.eval_calls": calls.get("attacks.eval", 0),
            "attacks.eval_s": total.get("attacks.eval", 0.0),
            "sim.pipeline_calls": calls.get("sim.pipeline", 0),
            "sim.pipeline_self_s": own.get("sim.pipeline", 0.0),
            "sim.rk4_steps": calls.get("sim.rk4", 0),
            "sim.rk4_self_s": own.get("sim.rk4", 0.0),
            "sim.unpack_calls": calls.get("sim.unpack", 0),
            "sim.unpack_s": total.get("sim.unpack", 0.0),
            "sim.observe_calls": calls.get("sim.observe", 0),
            "sim.observe_self_s": own.get("sim.observe", 0.0),
            "sim.run_self_s": own.get("sim.run", 0.0),
            "safety.filter_calls": calls.get("safety.filter", 0),
            "safety.filter_modified_calls": count.get("safety.filter_modified_calls", 0),
            "safety.filter_self_s": own.get("safety.filter", 0.0),
            "safety.constraint_calls": calls.get("safety.constraint", 0),
            "safety.constraint_s": total.get("safety.constraint", 0.0),
            "safety.qp_calls": calls.get("safety.qp", 0),
            "safety.qp_rows": count.get("safety.qp_rows", 0),
            "safety.qp_modified_calls": count.get("safety.qp_modified_calls", 0),
            "safety.qp_active_rows": count.get("safety.qp_active_rows", 0),
            "safety.qp_s": total.get("safety.qp", 0.0),
            "cli.trace_rows": count.get("cli.trace_rows", 0),
            "cli.csv_bytes": count.get("cli.csv_bytes", 0),
            "cli.write_trace_s": total.get("cli.write_trace", 0.0),
            "cli.write_summary_s": total.get("cli.write_summary", 0.0),
        }
