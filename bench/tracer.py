"""Run one `sizepop` command with every layer boundary traced.

Usage: python3 bench/tracer.py SPANS_JSON RUN_ID SIZEPOP_ARG...

Imports `sizepop.cli` (timed as the span `cli.import`) and then every other
module of the package, so that a module the command would load lazily is
wrapped too.  It wraps every public function of the package at every
module binding it is imported under (so `sizepop.optimizer.solve_state`
and `sizepop.oracles.solve_state` both record `forward.solve_state`), plus
two class entry points: the `StepContext` constructor and `RateField`
evaluation.  Spans are named
`<defining module>.<function>` and kept in memory as
[name id, start, end, parent span]; counts measured at the same boundary
(rows, bytes, cell steps, iterations) are attached to the span that did the
work.  Everything is written to SPANS_JSON when the command ends, whether
it succeeded or not, and the process exits with the command's exit code.

The spans file also holds the tracer's own cost in this process: the time
to install the wrappers, the time spent computing counts, and the cost of
one traced call, measured on a no-op after the command has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
import types

_clock = time.perf_counter


def _cell_steps(a: dict, r) -> dict:
    grid = a["vsc"].grid
    return {"cell_steps": grid.Ns * grid.Nt * grid.Nx}


# Counts recorded at a boundary: name -> fn(arguments by name, result) -> dict.
# They are computed after the span has ended, so they cost no span time.
COUNTERS = {
    "scenario_io.write_field_csv": lambda a, r: {
        "rows": int(a["field"].values.size), "bytes": os.path.getsize(a["path"])},
    "scenario_io.read_field_csv": lambda a, r: {
        "rows": int(r.values.size), "bytes": os.path.getsize(a["path"])},
    "cli.write_manifest": lambda a, r: {
        "bytes_hashed": sum(os.path.getsize(p) for p in a["artifacts"])},
    "forward.solve_state": _cell_steps,
    "adjoint.solve_adjoint": _cell_steps,
    "optimizer.optimize": lambda a, r: {"iterations": int(r.iterations)},
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.cost = {"install_s": 0.0, "counter_s": 0.0, "span_s": 0.0}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that was timed outside any wrapper."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), start, end, parent])

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, attrs, cost = self.spans, self._stack, self.attrs, self.cost

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if counter is not None:
                # a counter that no longer fits the program must not break it
                try:
                    attrs[idx] = counter(signature.bind(*args, **kwargs).arguments, result)
                except Exception as err:
                    attrs[idx] = {"counter_error": f"{type(err).__name__}: {err}"}
                cost["counter_s"] += _clock() - rec[2]
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's layer boundaries at every binding."""
        start = _clock()
        import sizepop
        for info in pkgutil.iter_modules(sizepop.__path__, "sizepop."):
            importlib.import_module(info.name)
        modules = [m for n, m in sys.modules.items()
                   if n == "sizepop" or n.startswith("sizepop.")]
        wrapped: dict = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("sizepop."):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(obj, f"{home.rsplit('.', 1)[1]}.{obj.__name__}")
                setattr(module, attr, wrapped[obj])
        from sizepop.forward import StepContext
        from sizepop.rates import RateField
        StepContext.__init__ = self.wrap(StepContext.__init__, "forward.StepContext")
        RateField.__call__ = self.wrap(RateField.__call__, "rates.RateField")
        RateField.ds = self.wrap(RateField.ds, "rates.RateField")
        self.cost["install_s"] = _clock() - start

    def measure_span_cost(self) -> None:
        """Seconds a traced call adds to the call it wraps: a no-op called
        10,000 times plain and wrapped, best of five, by a tracer of its own."""
        calls, repeats = 10_000, 5

        def noop():
            return None

        traced = Tracer(self.run_id).wrap(noop, "noop")
        best = {}
        for fn in (noop, traced):
            times = []
            for _ in range(repeats):
                start = _clock()
                for _ in range(calls):
                    fn()
                times.append(_clock() - start)
            best[fn] = min(times)
        self.cost["span_s"] = max(0.0, best[traced] - best[noop]) / calls

    def dump(self, path: str, exit_code) -> None:
        doc = {
            "run_id": self.run_id,
            "exit_code": exit_code,
            "names": self.names,
            "spans": self.spans,
            "attrs": [[idx, a] for idx, a in sorted(self.attrs.items())],
            "cost": self.cost,
        }
        # one dumps call runs wholly in the C encoder; json.dump would not
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))


def main(argv: list[str]) -> int:
    spans_path, run_id, command = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    start = _clock()
    import sizepop.cli
    tracer.record("cli.import", start, _clock())
    tracer.install()
    code = None
    try:
        code = sizepop.cli.main(command)
    finally:
        tracer.measure_span_cost()
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
