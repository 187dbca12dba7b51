"""Domain model: grids, fields, scenario validation."""

from __future__ import annotations

import hashlib
import json
import os
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from sizepop import rates as rate_lib
from sizepop import scenario_io
from sizepop.adjoint import solve_adjoint
from sizepop.forward import solve_state
from sizepop.model import (
    ControlBounds,
    Field,
    Grid3,
    ScenarioValidationError,
    ValidatedScenario,
    _grid_eval_full,
    validate_scenario,
)
from sizepop.optimizer import diagnose_contraction, optimize
from sizepop.presets import smooth_default
from sizepop.scenario_io import (
    FieldCsvWrite,
    ScenarioFileError,
    format_g17,
    parse_scenario,
    read_field_csv,
    scenario_from_dict,
    write_field_csv,
)
from conftest import (
    count_forks,
    full_field,
    scenario_of,
    tabulated_scenario,
)

SMOOTH_FILE = Path(__file__).resolve().parents[1] / "scenarios" / "smooth.json"
STX = ("size", "time", "space")


def _scenario(grid=Grid3(Ns=4, Nt=4, Nx=4, s_f=1.0, T=1.0, L=1.0), k=0.01, bounds=(0.0, 1.0),
              **rates):
    rates = dict(gamma=1.0, mu=0.1, r=0.5, f=0.0, C=0.0, p0=1.0) | rates
    return scenario_of(grid, rates, k=k, bounds=bounds)


def test_constant_rate_scenario_accepted():
    vsc = validate_scenario(_scenario())
    assert vsc.growth_case.tag == "a"
    assert vsc.gamma0_t.shape == (5,)
    assert _grid_eval_full(vsc.rates.mu, vsc.grid).shape == (4, 5, 4)


def test_female_ratio_one_rejected():
    sc = _scenario(r=1.0)
    with pytest.raises(ScenarioValidationError, match="A5"):
        validate_scenario(sc)


def test_bounds_order_rejected():
    sc = _scenario(bounds=(0.5, 0.2))
    with pytest.raises(ScenarioValidationError, match="phi_l > phi_m"):
        validate_scenario(sc)


def test_violations_reported_together():
    sc = _scenario(r=1.0, mu=-0.1, k=-1.0)
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(sc)
    text = str(exc.value)
    assert "A5" in text and "mu < 0" in text and "k > 0" in text


def test_mixed_growth_sign_rejected():
    gamma = rate_lib.from_callable(
        lambda s, t: np.maximum(0.5 - t, 0.0) + 0.0 * s, ("size", "time"))
    sc = _scenario(gamma=gamma)
    with pytest.raises(ScenarioValidationError, match="not uniform"):
        validate_scenario(sc)


def test_negative_initial_density_rejected():
    p0 = rate_lib.from_callable(lambda s, x: np.cos(np.pi * x) + 0.0 * s, ("size", "space"))
    sc = _scenario(p0=p0)
    with pytest.raises(ScenarioValidationError, match="p0 < 0"):
        validate_scenario(sc)


def test_grid_invariants():
    with pytest.raises(ScenarioValidationError, match="Nx >= 2"):
        validate_scenario(_scenario(grid=Grid3(Ns=4, Nt=4, Nx=1, s_f=1.0, T=1.0, L=1.0)))
    with pytest.raises(ScenarioValidationError, match="s_f > 0"):
        validate_scenario(_scenario(grid=Grid3(Ns=4, Nt=4, Nx=4, s_f=0.0, T=1.0, L=1.0)))
    with pytest.raises(ScenarioValidationError, match="L finite"):
        validate_scenario(_scenario(grid=Grid3(Ns=4, Nt=4, Nx=4, s_f=1.0, T=1.0, L=np.inf)))


def test_grid_samples():
    grid = Grid3(Ns=4, Nt=5, Nx=3, s_f=2.0, T=1.0, L=3.0)
    assert grid.ds == 0.5
    np.testing.assert_allclose(grid.s_centers, [0.25, 0.75, 1.25, 1.75])
    np.testing.assert_allclose(grid.t_points, np.arange(6) * 0.2)
    np.testing.assert_allclose(grid.x_points, [0.0, 1.5, 3.0])


def test_field_shape_checked():
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=1.0, L=1.0)
    with pytest.raises(ValueError, match="shape"):
        Field(grid, ("size", "space"), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="order"):
        Field(grid, ("space", "size"), np.zeros((5, 3)))


def test_field_values_frozen():
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=1.0, L=1.0)
    fld = full_field(grid, ("size",), 1.0)
    with pytest.raises(ValueError):
        fld.values[0] = 2.0


ALL_AXES = [
    ("size",), ("time",), ("space",),
    ("size", "space"), ("time", "space"), ("size", "time", "space"),
]


@pytest.mark.parametrize("axes", ALL_AXES)
def test_field_csv_round_trip_bit_exact(tmp_path, axes, rng):
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=0.7, L=1.3)
    shape = tuple(grid.axis_len(a) for a in axes)
    values = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, size=shape))
    fld = Field(grid, axes, values)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path, grid)
    assert back.axes == axes
    assert np.array_equal(back.values, fld.values)  # bit-exact


def reference_field_csv(field: Field) -> str:
    """Row-at-a-time writer: the independent reference for the file bytes."""
    column = {"size": 0, "time": 1, "space": 2}
    coords = [field.grid.axis_coords(a) for a in field.axes]
    flat = field.values.reshape(-1)
    lines = ["s,t,x,value"]
    for flat_i, multi in enumerate(np.ndindex(*(len(c) for c in coords))):
        cols = ["", "", ""]
        for i, (a, m) in enumerate(zip(field.axes, multi)):
            cols[column[a]] = f"{coords[i][m]:.17g}"
        lines.append(f"{cols[0]},{cols[1]},{cols[2]},{flat[flat_i]:.17g}")
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                  np.finfo(float).max, 0.1, -1.0 / 3.0, 1e22]


def _special_field(grid: Grid3, axes, rng) -> Field:
    """Random values spanning about 600 decades, special values mixed in."""
    shape = tuple(grid.axis_len(a) for a in axes)
    size = int(np.prod(shape))
    values = rng.standard_normal(size) * np.exp(rng.uniform(-700, 700, size=size))
    n_special = min(len(SPECIAL_VALUES), values.size)
    values[rng.permutation(values.size)[:n_special]] = SPECIAL_VALUES[:n_special]
    return Field(grid, axes, values.reshape(shape))


@pytest.mark.parametrize("axes", ALL_AXES)
def test_field_csv_matches_reference_writer(tmp_path, axes, rng):
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=0.7, L=1.3)
    fld = _special_field(grid, axes, rng)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    assert path.read_text() == reference_field_csv(fld)
    back = read_field_csv(path, grid)
    assert np.array_equal(back.values.view(np.uint64), fld.values.view(np.uint64))


def _printf(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def test_format_g17_matches_printf_at_the_edges():
    tiny = np.finfo(float).tiny
    values = [0.0, np.nan, np.inf, 5e-324, tiny, tiny / 2 ** 20, np.finfo(float).max,
              # ties at the 17th digit, and the float 1e17 written out
              1e15 + 0.25, 1e15 + 0.5, 1e15 + 0.75, 1e15 + 1.5, 99999999999999999.0]
    # every power of ten from 1e-4 to 1e17, each with its two neighbours
    for x in [float(f"1e{k}") for k in range(-4, 18)]:
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    values = np.array(values)
    values = np.concatenate([values, -values])
    assert format_g17(values).tolist() == _printf(values)


def test_format_g17_matches_printf_on_random_bit_patterns():
    rng = np.random.default_rng(23)
    n = 1 << 19
    # binary exponents -14 ... 56 cover 1e-4 <= |v| < 1e17 and a little more
    in_range = (rng.integers(0, 1 << 52, n, dtype=np.uint64)
                | rng.integers(1023 - 14, 1023 + 57, n, dtype=np.uint64) << np.uint64(52)
                | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    # fewer over all bits: the reference, Python's %.17g, takes 1 us on most
    any_bits = rng.integers(0, 2 ** 64, 1 << 16, dtype=np.uint64)
    values = np.concatenate([in_range, any_bits]).view(np.float64)
    bad = np.flatnonzero(format_g17(values) != np.array(_printf(values), "S24"))
    assert not bad.size, [(v, b"%.17g" % v, format_g17([v])[0]) for v in values[bad[:3]]]


def test_field_csv_formatted_in_blocks_matches_reference_writer(tmp_path, monkeypatch):
    # 7 slices of 5 values, 2 slices to a block
    grid = Grid3(Ns=3, Nt=6, Nx=5, s_f=1.0, T=0.7, L=1.3)
    rng = np.random.default_rng(6)
    values = rng.uniform(-1.0, 1.0, (7, 5)) * 10.0 ** rng.uniform(-5.0, 18.0, (7, 5))
    values[3, 1:4] = [0.0, np.nan, 0.5]
    fld = Field(grid, ("time", "space"), values)
    monkeypatch.setattr(scenario_io, "_BLOCK_VALUES", 12)
    path = tmp_path / "field.csv"
    write_field_csv(fld, path)
    assert path.read_text() == reference_field_csv(fld)


def test_one_process_write_holds_one_block_of_texts(tmp_path, monkeypatch):
    # 2**17 values in blocks of 2**15: the texts of all of them at once
    # would take about twice the file's size
    grid = Grid3(Ns=64, Nt=63, Nx=32, s_f=1.0, T=1.0, L=1.0)
    fld = Field(grid, STX, np.random.default_rng(5).random((64, 64, 32)))
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("write_field_csv forked"))
    path = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        digest = write_field_csv(fld, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert path.read_text() == reference_field_csv(fld)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("can_fork", [True, False])
def test_field_csv_written_in_a_child_matches_reference_writer(tmp_path, monkeypatch, can_fork):
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=0.7, L=1.3)
    fld = _special_field(grid, STX, np.random.default_rng(4))
    forks = count_forks(monkeypatch)
    if not can_fork:
        monkeypatch.delattr(os, "fork")  # the write runs in the calling process
    path = tmp_path / "field.csv"
    with FieldCsvWrite(fld, path) as write:
        digest = write.digest()
    assert len(forks) == can_fork  # the writer child
    assert path.read_text() == reference_field_csv(fld)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_writer_child_that_dies_fails_the_write(tmp_path, monkeypatch):
    grid = Grid3(Ns=3, Nt=4, Nx=5, s_f=1.0, T=0.7, L=1.3)
    monkeypatch.setattr(scenario_io, "_write_outcome", lambda field, path: os._exit(1))
    with FieldCsvWrite(full_field(grid, STX, 0.5), tmp_path / "field.csv") as write:
        with pytest.raises(RuntimeError, match="the CSV writer stopped early"):
            write.digest()


class TestFieldCsvRejections:
    GRID = Grid3(Ns=2, Nt=1, Nx=3, s_f=1.0, T=1.0, L=1.0)

    def _file(self, tmp_path, edit=None):
        """A valid ("size", "space") field file; edit(lines) may alter its lines first."""
        fld = Field(self.GRID, ("size", "space"), np.arange(6.0).reshape(2, 3))
        path = tmp_path / "field.csv"
        write_field_csv(fld, path)
        lines = path.read_text().splitlines()
        if edit is not None:
            edit(lines)
            path.write_text("\n".join(lines) + "\n")
        return path

    def _rejects(self, path, match):
        with pytest.raises(ScenarioFileError, match=match):
            read_field_csv(path, self.GRID)

    def test_valid_file_reads(self, tmp_path):
        fld = read_field_csv(self._file(tmp_path), self.GRID)
        assert fld.axes == ("size", "space")
        assert np.array_equal(fld.values, np.arange(6.0).reshape(2, 3))

    def test_three_column_row(self, tmp_path):
        def edit(lines):
            lines[3] = lines[3].rsplit(",", 1)[0]
        self._rejects(self._file(tmp_path, edit), r"malformed row \(need 4 columns\)")

    def test_five_column_row(self, tmp_path):
        def edit(lines):
            lines[2] += ",7"
        self._rejects(self._file(tmp_path, edit), r"malformed row \(need 4 columns\)")

    def test_short_and_long_rows_that_balance_the_comma_count(self, tmp_path):
        def edit(lines):
            lines[2] += ",7"
            lines[5] = lines[5].rsplit(",", 1)[0]
        self._rejects(self._file(tmp_path, edit), "column")

    def test_blank_line_between_rows(self, tmp_path):
        def edit(lines):
            lines.insert(3, "")
        self._rejects(self._file(tmp_path, edit), r"malformed row \(need 4 columns\)")

    def test_header_only(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("s,t,x,value\n")
        self._rejects(path, "no data rows")

    def test_wrong_header(self, tmp_path):
        def edit(lines):
            lines[0] = "s,t,x,v"
        self._rejects(self._file(tmp_path, edit), "expected header 's,t,x,value'")

    def test_row_count_mismatch(self, tmp_path):
        self._rejects(self._file(tmp_path, lambda lines: lines.pop()),
                      r"5 rows but grid implies 6 for axes \('size', 'space'\)")

    def test_coordinate_mismatch_names_first_bad_row(self, tmp_path):
        def edit(lines):
            lines[5] = "0.75,,0.625,4"  # file line 6: x should be 0.5
            lines[6] = "0.5,,1,5"       # file line 7: s should be 0.75
        self._rejects(self._file(tmp_path, edit),
                      r"row 6: coordinate 0\.625 does not match grid value 0\.5$")

    def test_hash_in_value_is_an_error_not_a_comment(self, tmp_path):
        def edit(lines):
            lines[1] += "#1"
        self._rejects(self._file(tmp_path, edit), "#")

    def test_no_axis(self, tmp_path):
        def edit(lines):
            lines[1] = ",,,1"
        self._rejects(self._file(tmp_path, edit), "field varies over no axis")


def test_smooth_preset_is_the_smooth_scenario_file():
    # the benchmark runs the file and the test suite runs the preset
    path = Path(__file__).resolve().parents[1] / "scenarios" / "smooth.json"
    from_file = validate_scenario(parse_scenario(path))
    preset = smooth_default(20, 20, 10)
    assert from_file.grid == preset.grid
    assert from_file.k == preset.k
    assert from_file.cost == preset.cost
    assert from_file.tolerances == preset.tolerances
    assert from_file.growth_case == preset.growth_case
    for f in fields(ValidatedScenario):
        if isinstance(getattr(preset, f.name), np.ndarray):
            np.testing.assert_array_equal(getattr(from_file, f.name), getattr(preset, f.name),
                                          err_msg=f.name)
    a, b = from_file.step_context, preset.step_context
    np.testing.assert_array_equal(a.E, b.E)
    np.testing.assert_array_equal(a.Fsrc, b.Fsrc)
    np.testing.assert_array_equal(a.stencil_cols, b.stencil_cols)
    np.testing.assert_array_equal(a.stencil_weights, b.stencil_weights)


def _smooth_doc(**edits) -> dict:
    """The smooth scenario file as a dict, with `rates.<key>` or
    `bounds.<key>` entries replaced."""
    doc = json.loads(SMOOTH_FILE.read_text())
    for dotted, value in edits.items():
        section, key = dotted.split(".")
        doc[section][key] = value
    return doc


def _bad_r_table() -> list:
    """A female-ratio table of the smooth grid with one entry above 1 and
    a later one in C order below 0."""
    table = np.full((20, 21, 10), 0.5)
    table[3, 7, 4] = 1.5
    table[5, 2, 1] = -0.2
    return table.tolist()


@pytest.mark.parametrize("edits,messages", [
    ({"rates.r": 1.0}, ["A5 violated: r >= 1 at (i=0,j=0,k=0)"]),
    ({"rates.mu": -0.1}, ["nonnegativity violated: mu < 0 at (i=0,j=0,k=0)"]),
    ({"rates.f": -1}, ["nonnegativity violated: f < 0 at (i=0,j=0,k=0)"]),
    ({"bounds.phi_l": 2.0}, ["bounds violated: phi_l > phi_m at (i=0,j=0,k=0)"]),
    ({"rates.mu": {"preset": "separable-product", "a": -0.1, "bs": 0.5}},
     ["nonnegativity violated: mu < 0 at (i=0,j=0,k=0)"]),
    ({"rates.r": {"preset": "separable-product", "a": 0.5, "bt": 2.0}},
     ["A5 violated: r >= 1 at (i=0,j=10,k=0)"]),
    ({"rates.mu": {"preset": "separable-product", "a": 0.1, "bt": 0.5, "bx": -2.0}},
     ["nonnegativity violated: mu < 0 at (i=0,j=0,k=5)"]),
    ({"rates.r": {"preset": "linear-in-s", "a": 0.5, "b": -1.0}},
     ["A5 violated: r <= 0 at (i=10,j=0,k=0)"]),
    ({"rates.r": {"preset": "linear-in-t", "a": 0.5, "b": 1.0}},
     ["A5 violated: r >= 1 at (i=0,j=10,k=0)"]),
    ({"rates.f": {"preset": "cosine-mode-in-x", "a": 0.0, "b": 1.0, "mode": 1}},
     ["nonnegativity violated: f < 0 at (i=0,j=0,k=5)"]),
    ({"bounds.phi_l": {"preset": "separable-product", "a": 0.1, "bx": -2.0}},
     ["bounds violated: phi_l < 0 at (i=0,j=0,k=5)"]),
    ({"bounds.phi_m": {"preset": "separable-product", "a": 1.0, "bs": -1.5}},
     ["bounds violated: phi_l > phi_m at (i=13,j=0,k=0)"]),
    ({"rates.r": 0.0, "rates.mu": -1, "bounds.phi_l": -0.5,
      "rates.f": {"preset": "linear-in-s", "a": 0.1, "b": -1}},
     ["nonnegativity violated: mu < 0 at (i=0,j=0,k=0)",
      "nonnegativity violated: f < 0 at (i=2,j=0,k=0)",
      "A5 violated: r <= 0 at (i=0,j=0,k=0)",
      "bounds violated: phi_l < 0 at (i=0,j=0,k=0)"]),
    ({"rates.r": {"table": _bad_r_table()}},
     ["A5 violated: r <= 0 at (i=5,j=2,k=1)", "A5 violated: r >= 1 at (i=3,j=7,k=4)"]),
])
def test_violation_names_the_first_bad_cell_of_the_full_grid(edits, messages):
    # a rate is sampled only along the axes it varies over; the message
    # names the first bad cell of the whole (Ns, Nt+1, Nx) grid in C order
    with pytest.raises(ScenarioValidationError) as exc:
        validate_scenario(scenario_from_dict(_smooth_doc(**edits)))
    assert exc.value.violations == messages


def _sampled_on_every_axis(rate):
    """The same rate as a callable of (s, t, x): sampled on all three axes,
    evaluated on full broadcast arrays."""
    return rate_lib.from_callable(lambda s, t, x: rate(s=s, t=t, x=x), STX)


@pytest.mark.parametrize("make", [
    lambda: validate_scenario(scenario_from_dict(_smooth_doc())),
    lambda: smooth_default(12, 9, 6, seed=4),
])
def test_compact_samples_change_no_output_bit(make):
    # sampling a rate once along the axes it does not vary over and
    # broadcasting changes no arithmetic: every array a solver reads and
    # every output is bit-identical to sampling it on the full grid
    compact = make()
    sc = compact.scenario
    full = validate_scenario(replace(
        sc,
        rates=replace(sc.rates, **{n: _sampled_on_every_axis(getattr(sc.rates, n))
                                   for n in ("mu", "r", "f")}),
        bounds=ControlBounds(_sampled_on_every_axis(sc.bounds.phi_l),
                             _sampled_on_every_axis(sc.bounds.phi_m))))
    assert 0 in compact.r_grid.strides and 0 not in full.r_grid.strides
    assert 0 in compact.step_context.E.strides and 0 not in full.step_context.E.strides
    pairs = [(getattr(compact, n), getattr(full, n))
             for n in ("r_grid", "phi_l_grid", "phi_m_grid")]
    pairs += [(getattr(compact.step_context, n), getattr(full.step_context, n))
              for n in ("E", "Fsrc", "stencil_weights")]
    beta = compact.phi_l_grid + 0.35 * (compact.phi_m_grid - compact.phi_l_grid)
    outputs = []
    for vsc in (compact, full):
        state = solve_state(vsc, beta)
        adj = solve_adjoint(vsc, beta)
        rep = optimize(vsc.with_tolerances(max_iters=6))
        diag = diagnose_contraction(vsc, rep.beta_opt)
        outputs.append([state.p.values, state.newborn_density.values, adj.phi.values,
                        adj.phi_at_zero.values, rep.beta_opt.values, rep.J_history,
                        np.array(list(diag.to_dict().values()), dtype=float)])
    pairs += zip(*outputs)
    for a, b in pairs:
        assert a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_tabulated_rates_keep_the_full_grid():
    # the no-gain limit: rates tabulated on (size, time, space) vary over
    # every axis, so their samples and the reaction arrays stay full grids
    # (test_step_build checks the reaction arrays against a per-cell build)
    vsc = tabulated_scenario()
    grid = vsc.grid
    coords = np.meshgrid(*(grid.axis_coords(a) for a in STX), indexing="ij")
    sc = vsc.scenario
    for arr, rate in ((vsc.r_grid, sc.rates.r), (vsc.phi_l_grid, sc.bounds.phi_l),
                      (vsc.phi_m_grid, sc.bounds.phi_m)):
        assert arr.shape == coords[0].shape and 0 not in arr.strides
        assert np.array_equal(arr, rate(s=coords[0], t=coords[1], x=coords[2]))
    ctx = vsc.step_context
    for arr in (ctx.E, ctx.Fsrc):
        assert arr.shape == (grid.Nt, grid.Ns, grid.Nx) and 0 not in arr.strides
