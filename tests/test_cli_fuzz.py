"""Property test of the input and exit-code contract: a scenario file with
any one key set to any JSON value either runs or is refused with a defined
exit code, and never shows the user a traceback."""

from __future__ import annotations

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sizepop.cli import main

# A small scenario (4 x 5 x 3) that reaches every kind of rate entry: a
# constant, three presets and a table.  Growth is fast enough for the
# characteristic of the first size cell to enter through s = 0 in each step.
BASE = {
    "grid": {"Ns": 4, "Nt": 5, "Nx": 3, "s_f": 1.0, "T": 1.0, "L": 1.0},
    "rates": {
        "gamma": {"preset": "linear-in-s", "a": 1.0, "b": 0.3},
        "mu": {"preset": "separable-product", "a": 0.1, "bs": 0.5},
        "r": 0.5,
        "f": 0.05,
        "C": {"preset": "cosine-mode-in-x", "a": 0.2, "b": 0.05, "mode": 1},
        "p0": {"table": [[1.0, 0.9, 0.8], [0.9, 0.8, 0.7], [0.8, 0.7, 0.6], [0.7, 0.6, 0.5]]},
    },
    "diffusion_k": 0.01,
    "bounds": {"phi_l": 0.0, "phi_m": 1.0},
    "cost": {"rho": 5.0, "c": 1.0, "sign_variant": "minus"},
    "tolerances": {"fixed_point_tol": 1e-9, "max_iters": 100, "relax_omega": 1.0, "seed": 0},
}


def _paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


PATHS = sorted(_paths(BASE))

# Numbers stay within +-100, apart from a few extremes, so that a mutated
# grid count cannot ask for a grid too large for a test machine's memory.
EXTREMES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, -0.0, 10**30]
SCALARS = (st.none() | st.booleans() | st.integers(-100, 100)
           | st.floats(-100.0, 100.0) | st.sampled_from(EXTREMES) | st.text(max_size=6))
JSON = st.recursive(SCALARS,
                    lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                    max_leaves=8)


# derandomize: the suite replays the same 60 examples on every run, so a
# tier-1 result never depends on which examples one run happened to draw
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(PATHS), value=JSON)
def test_any_one_key_gives_a_defined_exit(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(BASE))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", str(scenario), "--beta", "0.4",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 3), err
    assert "Traceback" not in err
