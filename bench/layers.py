"""Per-layer metrics derived from the spans one traced command wrote.

A span's self time is its duration minus the durations of its direct
children; children of one span never overlap, because the traced command
is single-threaded.  An inclusive time (`.s`) sums only the outermost span
of a name, so a layer that re-enters itself is not counted twice.
"""

from __future__ import annotations

ORACLES = (
    "oracle_heat_mode_decay",
    "oracle_pure_transport",
    "oracle_mass_balance",
    "oracle_transpose_duality",
    "oracle_fd_gradient",
    "oracle_brute_force_optimum",
)

# (metric name, unit); `.s` is inclusive seconds, except forward.StepContext.s,
# which is self time: its trace_curve, decay_factor and RateField children
# are reported on their own rows.
PER_LAYER = (
    [(f"scenario_io.{fn}.{q}", u) for fn in ("read_field_csv", "write_field_csv")
     for q, u in (("s", "s"), ("calls", "count"), ("rows", "count"), ("bytes", "bytes"))]
    + [
        ("cli.write_manifest.s", "s"),
        ("cli.write_manifest.bytes_hashed", "bytes"),
        ("cli.import.s", "s"),
        ("scenario_io.parse_scenario.s", "s"),
        ("model.validate_scenario.s", "s"),
        ("forward.StepContext.s", "s"),
        ("forward.StepContext.calls", "count"),
        ("characteristics.trace_curve.s", "s"),
        ("characteristics.trace_curve.calls", "count"),
        ("characteristics.decay_factor.s", "s"),
        ("characteristics.decay_factor.calls", "count"),
        ("rates.RateField.s", "s"),
        ("rates.RateField.calls", "count"),
    ]
    + [(f"{fn}.{q}", u) for fn in ("forward.solve_state", "adjoint.solve_adjoint")
       for q, u in (("s", "s"), ("calls", "count"), ("cell_steps", "count"),
                    ("us_per_cell_step", "us"))]
    + [
        ("forward.solve_state.call_us_p50", "us"),
        ("forward.solve_state.call_us_p99", "us"),
        ("optimizer.optimize.iterations", "count"),
        ("optimizer.per_iteration_s", "s"),
        ("optimizer.fixed_point_update.s", "s"),
        ("optimizer.evaluate_cost.s", "s"),
        ("rates.RateField.calls_per_iteration", "count/iter"),
        ("optimizer.contraction_diagnostics.s", "s"),
    ]
    + [(f"oracles.{name}.s", "s") for name in ORACLES]
    + [
        ("oracles.brute_force_search.s", "s"),
        ("oracles.brute_force_search.state_solves", "count"),
        ("adjoint.solve_sensitivity.s", "s"),
        ("adjoint.solve_sensitivity.calls", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanTree:
    """Index over the spans of one traced command."""

    def __init__(self, doc: dict):
        self.names = doc["names"]
        self.spans = doc["spans"]
        self.attrs = {idx: a for idx, a in doc["attrs"]}
        self.child_time = [0.0] * len(self.spans)
        self.by_name: dict[str, list[int]] = {}
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                self.child_time[parent] += end - start
            self.by_name.setdefault(self.names[name_id], []).append(idx)

    def name(self, idx: int) -> str:
        return self.names[self.spans[idx][0]]

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.name(parent)
            parent = self.spans[parent][3]

    def of(self, name: str, under: str | None = None, not_under=()) -> list[int]:
        """Spans of `name`, optionally only those inside `under` and
        outside every name in `not_under`."""
        out = []
        for idx in self.by_name.get(name, ()):
            if under is None and not not_under:
                out.append(idx)
                continue
            anc = set(self.ancestors(idx))
            if (under is None or under in anc) and not anc.intersection(not_under):
                out.append(idx)
        return out

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def inclusive(self, name: str) -> float:
        return sum(self.duration(i) for i in self.by_name.get(name, ())
                   if name not in set(self.ancestors(i)))

    def self_time(self, name: str) -> float:
        return sum(self.duration(i) - self.child_time[i] for i in self.by_name.get(name, ()))

    def count(self, name: str, key: str) -> int:
        return sum(self.attrs.get(i, {}).get(key, 0) for i in self.by_name.get(name, ()))

    def summary(self) -> dict:
        """calls, inclusive and self seconds for every traced name."""
        return {n: {"calls": self.calls(n), "s": self.inclusive(n), "self_s": self.self_time(n)}
                for n in sorted(self.by_name)}


def layer_metrics(doc: dict) -> dict:
    """Every PER_LAYER metric for one traced command."""
    t = SpanTree(doc)
    m: dict[str, float] = {}
    for fn in ("scenario_io.read_field_csv", "scenario_io.write_field_csv"):
        m[f"{fn}.s"] = t.inclusive(fn)
        m[f"{fn}.calls"] = t.calls(fn)
        m[f"{fn}.rows"] = t.count(fn, "rows")
        m[f"{fn}.bytes"] = t.count(fn, "bytes")
    m["cli.write_manifest.s"] = t.inclusive("cli.write_manifest")
    m["cli.write_manifest.bytes_hashed"] = t.count("cli.write_manifest", "bytes_hashed")
    for fn in ("cli.import", "scenario_io.parse_scenario", "model.validate_scenario"):
        m[f"{fn}.s"] = t.inclusive(fn)
    m["forward.StepContext.s"] = t.self_time("forward.StepContext")
    m["forward.StepContext.calls"] = t.calls("forward.StepContext")
    for fn in ("characteristics.trace_curve", "characteristics.decay_factor", "rates.RateField"):
        m[f"{fn}.s"] = t.inclusive(fn)
        m[f"{fn}.calls"] = t.calls(fn)
    for fn in ("forward.solve_state", "adjoint.solve_adjoint"):
        s, cells = t.inclusive(fn), t.count(fn, "cell_steps")
        m[f"{fn}.s"] = s
        m[f"{fn}.calls"] = t.calls(fn)
        m[f"{fn}.cell_steps"] = cells
        m[f"{fn}.us_per_cell_step"] = 1e6 * s / cells if cells else 0.0
    call_us = [1e6 * t.duration(i) for i in t.by_name.get("forward.solve_state", ())]
    m["forward.solve_state.call_us_p50"] = percentile(call_us, 50)
    m["forward.solve_state.call_us_p99"] = percentile(call_us, 99)

    iterations = t.count("optimizer.optimize", "iterations")
    outside_loop = ("forward.StepContext", "optimizer.contraction_diagnostics")
    loop_s = (t.inclusive("optimizer.optimize")
              - sum(t.duration(i) for n in outside_loop
                    for i in t.of(n, under="optimizer.optimize")))
    loop_rate_calls = len(t.of("rates.RateField", under="optimizer.optimize",
                               not_under=outside_loop))
    m["optimizer.optimize.iterations"] = iterations
    m["optimizer.per_iteration_s"] = loop_s / iterations if iterations else 0.0
    m["optimizer.fixed_point_update.s"] = t.inclusive("optimizer.fixed_point_update")
    m["optimizer.evaluate_cost.s"] = t.inclusive("optimizer.evaluate_cost")
    m["rates.RateField.calls_per_iteration"] = (
        loop_rate_calls / iterations if iterations else 0.0)
    m["optimizer.contraction_diagnostics.s"] = t.inclusive("optimizer.contraction_diagnostics")

    for name in ORACLES:
        m[f"oracles.{name}.s"] = t.inclusive(f"oracles.{name}")
    m["oracles.brute_force_search.s"] = t.inclusive("oracles.brute_force_search")
    m["oracles.brute_force_search.state_solves"] = len(
        t.of("forward.solve_state", under="oracles.brute_force_search"))
    m["adjoint.solve_sensitivity.s"] = t.inclusive("adjoint.solve_sensitivity")
    m["adjoint.solve_sensitivity.calls"] = t.calls("adjoint.solve_sensitivity")
    m["trace.spans"] = len(t.spans)
    # the tracer's own cost: installing the wrappers, computing counts, and
    # every span at the per-call cost the tracer measured in the same process
    cost = doc["cost"]
    m["trace.overhead_s"] = cost["install_s"] + cost["counter_s"] + len(t.spans) * cost["span_s"]
    return m
