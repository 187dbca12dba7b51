"""Command-line front end.

Subcommands: simulate, adjoint, optimize, gradcheck, oracle.  Each run that
produces files writes them through one path, which ends with a manifest
recording the resolved options, the duration since `main` started (on the
monotonic clock), the seed, the sizepop, Python and numpy versions (the
last bits of a solve depend on the numpy and BLAS build), the grid and
growth case of a run on one scenario, and a SHA-256 checksum of every
artifact, computed from the bytes as they are written.
Field CSVs are written by the command's own process, which forks the
formatting workers for a large field (see scenario_io), except for
optimize's beta_opt.csv: once the sweep has returned, one forked child
writes it, forking the workers itself, while this process computes the
contraction diagnostics; report.json and the manifest follow once the
child has sent the CSV's digest.
Exit codes: 0 success, 1 usage or configuration error (including a file
that cannot be read or written, and a finite control outside the box
[phi_l, phi_m]), 2 oracle or check failure, 3 numerical failure (including
a non-finite control), 4 internal error.  A failure prints its message to
stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import solve_adjoint
from .characteristics import RootBracketError
from .forward import solve_state, total_population
from .model import (
    Field,
    NumericalError,
    ScenarioValidationError,
    ValidatedScenario,
    control_array,
    validate_scenario,
)
from .optimizer import diagnose_contraction, optimize
from .rates import RateSpecError
from .scenario_io import (
    FieldCsvWrite,
    ScenarioFileError,
    parse_scenario,
    read_field_csv,
    write_field_csv,
)

# the oracles in report order, for --help; only the oracle and gradcheck
# commands import the oracles module (tests hold this to its ORACLE_NAMES)
ORACLE_NAMES = ("heat_mode_decay", "pure_transport", "mass_balance", "transpose_duality",
                "fd_gradient", "brute_force_optimum")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _write_text(path: Path, text: str) -> str:
    """Write a text artifact; returns the SHA-256 hex digest of its bytes."""
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_manifest(args: argparse.Namespace, artifacts: dict[Path, str],
                   vsc: ValidatedScenario | None = None, seed: int | None = None) -> None:
    """Write manifest.json into `args.out`; `artifacts` maps each file
    written to its SHA-256, and `vsc`, the run's one scenario if it has one,
    adds its grid and growth case and gives the seed."""
    out = Path(args.out)
    options = {k: v for k, v in vars(args).items()
               if k not in ("fn", "command", "started") and isinstance(v, (str, int, float, bool))}
    manifest = {
        "subcommand": args.command,
        "scenario": options.get("scenario"),
        "options": options,
        "out_dir": str(out),
        "seed": seed if vsc is None else vsc.tolerances.seed,
        "duration_s": time.monotonic() - args.started,
        "versions": {"sizepop": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        "artifacts": {p.name: digest for p, digest in artifacts.items()},
    }
    if vsc is not None:
        manifest["grid"] = dataclasses.asdict(vsc.grid)
        manifest["growth_case"] = vsc.growth_case.tag
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _output_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_artifact(path: Path, value: Field | FieldCsvWrite | str) -> str:
    """Write one output, a field as CSV and a string as text, or wait for
    a field CSV already being written there; returns its SHA-256."""
    if isinstance(value, str):
        return _write_text(path, value)
    if isinstance(value, FieldCsvWrite):
        return value.digest()
    return write_field_csv(value, path)


def _write_outputs(args: argparse.Namespace, outputs: dict[str, Field | FieldCsvWrite | str],
                   vsc: ValidatedScenario | None = None, seed: int | None = None) -> Path:
    """Write each output into `args.out`, in order, and then the manifest
    with the digest of each; returns the output directory."""
    out = _output_dir(args)
    artifacts = {out / name: _write_artifact(out / name, value) for name, value in outputs.items()}
    write_manifest(args, artifacts, vsc, seed)
    return out


def _load_validated(path: str) -> ValidatedScenario:
    return validate_scenario(parse_scenario(path))


def _resolve_beta(spec: str, vsc: ValidatedScenario):
    """A control given on the command line: a constant or a field CSV path.

    A non-finite value is a numerical failure, and a finite value outside
    the box [phi_l, phi_m] a usage error; either names its first cell.
    """
    try:
        beta = float(spec)
    except ValueError:
        beta = read_field_csv(spec, vsc.grid)
    values = control_array(vsc.grid, beta)
    non_finite = ~np.isfinite(values)
    if non_finite.any():
        i, j, k = (int(v) for v in np.argwhere(non_finite)[0])
        raise NumericalError(f"--beta: control {float(values[i, j, k])!r} at "
                             f"(i={i}, j={j}, k={k}) is not finite")
    outside = (values < vsc.phi_l_grid) | (values > vsc.phi_m_grid)
    if outside.any():
        i, j, k = (int(v) for v in np.argwhere(outside)[0])
        value = float(values[i, j, k])
        if value < vsc.phi_l_grid[i, j, k]:
            side, name, bound = "below", "phi_l", vsc.phi_l_grid[i, j, k]
        else:
            side, name, bound = "above", "phi_m", vsc.phi_m_grid[i, j, k]
        raise ValueError(f"--beta: control {value!r} at (i={i}, j={j}, k={k}) is {side} "
                         f"bounds.{name} = {float(bound)!r}")
    return beta


def _cmd_simulate(args) -> int:
    vsc = _load_validated(args.scenario)
    state = solve_state(vsc, _resolve_beta(args.beta, vsc))
    out = _write_outputs(args, {
        "p.csv": state.p, "newborns.csv": state.newborn_density,
        "population.csv": Field(vsc.grid, ("time",), total_population(state.p))}, vsc)
    print(f"simulate: wrote p.csv, newborns.csv, population.csv to {out}")
    return EXIT_OK


def _cmd_adjoint(args) -> int:
    vsc = _load_validated(args.scenario)
    adj = solve_adjoint(vsc, solve_state(vsc, _resolve_beta(args.beta, vsc)))
    out = _write_outputs(args, {"phi.csv": adj.phi, "phi0.csv": adj.phi_at_zero}, vsc)
    print(f"adjoint: wrote phi.csv, phi0.csv to {out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    vsc = _load_validated(args.scenario)
    overrides = {"max_iters": args.max_iters, "fixed_point_tol": args.tol,
                 "relax_omega": args.relax, "seed": args.seed}
    vsc = vsc.with_tolerances(**{k: v for k, v in overrides.items() if v is not None})
    report = optimize(vsc, compute_diagnostics=False)
    # written meanwhile, the CSV keeps busy the CPU the diagnostics leave idle
    with FieldCsvWrite(report.beta_opt, _output_dir(args) / "beta_opt.csv") as beta_csv:
        report = dataclasses.replace(report,
                                     contraction=diagnose_contraction(vsc, report.beta_opt))
        out = _write_outputs(args, {"beta_opt.csv": beta_csv,
                                    "report.json": json.dumps(report.to_dict(), indent=2) + "\n"},
                             vsc)
    print(f"optimize: {report.status} after {report.iterations} iterations, "
          f"J = {report.J_history[-1]:.9g}; wrote beta_opt.csv, report.json to {out}")
    return EXIT_OK if report.status != "diverged" else EXIT_NUMERICAL


def _cmd_gradcheck(args) -> int:
    from .oracles import gradient_check

    if args.scenario:
        vsc = _load_validated(args.scenario)
    else:
        from .presets import smooth_default
        vsc = smooth_default(12, 12, 6)
    if args.seed is not None:
        vsc = vsc.with_tolerances(seed=args.seed)
    rows = gradient_check(vsc, n_directions=args.directions, seed=vsc.tolerances.seed)
    print(f"{'dir':>4} {'analytic':>24} {'central diff':>24} {'rel err':>12}  result")
    for r in rows:
        print(f"{r['direction']:>4} {r['analytic']:>24.16e} {r['fd']:>24.16e} "
              f"{r['rel_err']:>12.3e}  {'pass' if r['passed'] else 'FAIL'}")
    all_ok = all(r["passed"] for r in rows)
    print(f"gradcheck: {'all pass' if all_ok else 'FAILURES'} "
          f"({len(rows)} directions, tolerance 1e-6)")
    if args.out:
        _write_outputs(args, {"gradcheck.json": json.dumps(rows, indent=2) + "\n"}, vsc)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_oracle(args) -> int:
    from .oracles import run_oracles

    names = args.only.split(",") if args.only else None
    report = run_oracles(names=names, seed=args.seed or 0)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        _write_outputs(args, {"oracle_report.json": text + "\n"}, seed=args.seed or 0)
    return EXIT_OK if report["all_passed"] else EXIT_CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors mapped to EXIT_USAGE instead of 2, which
    this CLI reserves for a failed oracle or check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sizepop",
        description="Size-structured population solver with diffusion and "
                    "adjoint-based optimal fertility control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="solve the state equation forward in time")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--beta", required=True, help="control: a constant or a field CSV path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("adjoint", help="solve the adjoint system backward in time")
    p.add_argument("--scenario", required=True)
    p.add_argument("--beta", required=True, help="control: a constant or a field CSV path")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_adjoint)

    p = sub.add_parser("optimize", help="projected fixed-point sweep to the optimal control")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--relax", type=float, default=None, help="relaxation weight in (0,1]")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("gradcheck", help="adjoint gradient vs central differences")
    p.add_argument("--scenario", default=None)
    p.add_argument("--directions", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("oracle", help="run the built-in verification oracles")
    p.add_argument("--only", default=None,
                   help=f"comma-separated subset of {', '.join(ORACLE_NAMES)}")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(started=time.monotonic()))
    try:
        # a non-finite value fails the solvers' finite checks (exit 3), so
        # numpy's own warnings about it would only add lines to stderr
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ScenarioFileError, ScenarioValidationError, RateSpecError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, RootBracketError, ArithmeticError) as err:
        # ArithmeticError: a Python float overflowed or divided by zero
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as err:  # the CLI boundary: no traceback reaches the user
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
