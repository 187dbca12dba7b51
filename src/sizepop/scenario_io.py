"""Scenario files and field serialization.

Scenario files are strict JSON: unknown keys anywhere are rejected so a
misspelled rate cannot silently fall back to a default.  Rates are numbers
(constants), {"preset": name, ...} entries from the analytic catalog, or
{"table": nested-list} arrays sampled on the grid.

Fields serialize to CSV with the fixed header ``s,t,x,value``; rows iterate
size-major, then time, then space over the axes the field actually has, and
the columns of inactive axes stay empty.  Values print with 17 significant
digits, which round-trips float64 bit-exactly, as the bytes of ``%.17g``:
format_g17 computes them in numpy for 1e-4 <= |v| < 1e17, a block of about
_BLOCK_VALUES values at a time, and leaves the other values to Python's
``%.17g``, which gives the same bytes.  The writer streams the file one
slice of the leading axis at a time; the reader checks the header and
column counts on the raw bytes, parses the used columns in one
``np.loadtxt`` pass and compares each coordinate column with the grid.

The writer formats, hashes and writes the slices in order in the calling
process: ``write_field_csv`` returns the file's SHA-256, and the run
manifest records that digest without reading the file back.
``FieldCsvWrite`` runs the same ``write_field_csv`` in one forked child,
which sends the digest back, so the calling process can compute while the
file is written.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import rates as rate_lib
from .model import (
    ControlBounds,
    CostParams,
    Field,
    Grid3,
    Scenario,
    ScenarioValidationError,
    Tolerances,
    VitalRates,
)
from .rates import RateField, RateSpecError


class ScenarioFileError(ValueError):
    """Malformed scenario file; message carries the offending key or location."""


RATE_AXES = {
    "gamma": ("size", "time"),
    "mu": ("size", "time", "space"),
    "r": ("size", "time", "space"),
    "f": ("size", "time", "space"),
    "C": ("time", "space"),
    "p0": ("size", "space"),
    "phi_l": ("size", "time", "space"),
    "phi_m": ("size", "time", "space"),
}

_GRID_KEYS = {"Ns", "Nt", "Nx", "s_f", "T", "L"}
_COST_KEYS = {"rho", "c", "sign_variant"}
_TOL_KEYS = {"fixed_point_tol", "max_iters", "relax_omega", "seed"}


def _require_keys(d: dict, required: set, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ScenarioFileError(f"{where}: expected an object, got {type(d).__name__}")
    missing = required - set(d)
    if missing:
        raise ScenarioFileError(f"{where}: {sorted(missing)[0]} required")
    unknown = set(d) - allowed
    if unknown:
        raise ScenarioFileError(f"{where}: unknown key {sorted(unknown)[0]!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, key: str) -> float:
    """A numeric entry; strings, booleans, null, lists and objects are errors."""
    if not _is_number(value):
        raise ScenarioFileError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ScenarioFileError(f"{key}: {value} is out of the float range") from None


def _integer(value, key: str) -> int:
    """An integer entry; a fractional, non-finite or non-numeric value is an
    error rather than truncated.  Integral floats such as 20.0 are accepted."""
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise ScenarioFileError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def parse_rate(name: str, spec, grid: Grid3) -> RateField:
    """Build one rate from its file entry; errors name the offending key."""
    axes = RATE_AXES[name]
    if _is_number(spec):
        return rate_lib.constant(_number(spec, f"rates.{name}"), axes)
    if not isinstance(spec, dict):
        raise ScenarioFileError(f"rates.{name}: expected number or object, got {type(spec).__name__}")
    if "preset" in spec:
        params = {k: _number(v, f"rates.{name}.{k}") for k, v in spec.items() if k != "preset"}
        try:
            return rate_lib.from_preset(spec["preset"], axes, params, x_length=grid.L)
        except RateSpecError as err:
            raise ScenarioFileError(f"rates.{name}: {err}") from err
    if "table" in spec:
        extra = set(spec) - {"table"}
        if extra:
            raise ScenarioFileError(f"rates.{name}: unknown key {sorted(extra)[0]!r}")
        try:
            values = np.asarray(spec["table"], dtype=float)
        except (TypeError, ValueError) as err:
            raise ScenarioFileError(f"rates.{name}: table is not an array of numbers: {err}") \
                from err
        coords = [grid.axis_coords(a) for a in axes]
        expected = tuple(len(c) for c in coords)
        if values.shape != expected:
            raise ScenarioFileError(
                f"rates.{name}: table shape {values.shape} does not match grid {expected}"
            )
        return rate_lib.from_table(values, axes, coords)
    raise ScenarioFileError(f"rates.{name}: need a number, a 'preset' entry or a 'table' entry")


def scenario_from_dict(doc: dict, where: str = "scenario") -> Scenario:
    _require_keys(doc, {"grid", "rates", "diffusion_k", "bounds"},
                  {"grid", "rates", "diffusion_k", "bounds", "cost", "tolerances"}, where)
    gd = doc["grid"]
    _require_keys(gd, _GRID_KEYS, _GRID_KEYS, "grid")
    grid = Grid3(Ns=_integer(gd["Ns"], "grid.Ns"), Nt=_integer(gd["Nt"], "grid.Nt"),
                 Nx=_integer(gd["Nx"], "grid.Nx"), s_f=_number(gd["s_f"], "grid.s_f"),
                 T=_number(gd["T"], "grid.T"), L=_number(gd["L"], "grid.L"))
    # tables are checked against the grid's samples, so the grid comes first
    violations = grid.validate()
    if violations:
        raise ScenarioValidationError(violations)

    rd = doc["rates"]
    rate_names = {"gamma", "mu", "r", "f", "C", "p0"}
    _require_keys(rd, rate_names, rate_names, "rates")
    rates = VitalRates(**{name: parse_rate(name, rd[name], grid) for name in rate_names})

    bd = doc["bounds"]
    _require_keys(bd, {"phi_l", "phi_m"}, {"phi_l", "phi_m"}, "bounds")
    bounds = ControlBounds(phi_l=parse_rate("phi_l", bd["phi_l"], grid),
                           phi_m=parse_rate("phi_m", bd["phi_m"], grid))

    cost = CostParams()
    if "cost" in doc:
        cd = doc["cost"]
        _require_keys(cd, set(), _COST_KEYS, "cost")
        cost = CostParams(rho=_number(cd.get("rho", cost.rho), "cost.rho"),
                          c=_number(cd.get("c", cost.c), "cost.c"),
                          sign_variant=cd.get("sign_variant", cost.sign_variant))

    tol = Tolerances()
    if "tolerances" in doc:
        td = doc["tolerances"]
        _require_keys(td, set(), _TOL_KEYS, "tolerances")
        tol = Tolerances(fixed_point_tol=_number(td.get("fixed_point_tol", tol.fixed_point_tol),
                                                 "tolerances.fixed_point_tol"),
                         max_iters=_integer(td.get("max_iters", tol.max_iters),
                                            "tolerances.max_iters"),
                         relax_omega=_number(td.get("relax_omega", tol.relax_omega),
                                             "tolerances.relax_omega"),
                         seed=_integer(td.get("seed", tol.seed), "tolerances.seed"))

    return Scenario(grid=grid, rates=rates, k=_number(doc["diffusion_k"], "diffusion_k"),
                    bounds=bounds, cost=cost, tolerances=tol)


def parse_scenario(path) -> Scenario:
    """Load a scenario file; parse errors report line and column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioFileError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioFileError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ScenarioFileError(f"{path}: top level must be an object")
    return scenario_from_dict(doc, where=str(path))


_AXES = ("size", "time", "space")
_AXIS_COLUMN = {"size": 0, "time": 1, "space": 2}
_HEADER = "s,t,x,value"


# Values formatted at once: the texts of one block are all a writer holds.
# Formatting 820k values at once took optimize's peak RSS at 160x160x64
# from 84 to 146 MB.
_BLOCK_VALUES = 1 << 15

# format_g17 writes the 17 digits as five native uint32 words of four ASCII
# bytes: "000" and the leading digit, then four 4-digit chunks.
_CHUNK_DIGITS = (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")).T.copy()
_CHUNK_TEXT = _CHUNK_DIGITS.view(np.uint32).ravel()
_LEAD_TEXT = np.where(np.arange(4) < 3, ord("0"), _CHUNK_DIGITS[:10]).astype(np.uint8)
_LEAD_TEXT = _LEAD_TEXT.view(np.uint32).ravel()
_POW10 = np.array([float(10 ** k) for k in range(21)])  # exact float64s


def _chunk_zeros() -> np.ndarray:
    """The trailing zeros of each 4-digit chunk 0 ... 9999, 4 for 0."""
    zeros = np.zeros(10_000, np.int64)
    for k in range(1, 5):
        zeros[::10 ** k] += 1
    return zeros


def _keep_masks() -> np.ndarray:
    """Row 17 * g + z keeps, as three uint64 masks of a 24-byte text, the
    length of the text of group g (see format_g17) whose 17 digits end in
    z zeros: the sign, the integer part, and the point and the fraction
    when the fraction has a nonzero digit."""
    g, z = np.divmod(np.arange(42 * 17), 17)
    e = g // 2 - 4
    fraction = np.maximum(16 - e - z, 0)
    length = g % 2 + np.maximum(e + 1, 1) + (fraction > 0) * (fraction + 1)
    return np.where(np.arange(24) < length[:, None], 255, 0).astype(np.uint8).view(np.uint64)


_CHUNK_ZEROS = _chunk_zeros()
_KEEP = _keep_masks()


def _split(a):
    """Veltkamp's split a == hi + lo, each half with at most 26 significant bits."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits17(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10**(16 - e) rounded half to even, exactly, as int64.

    Dekker's two-product gives p + err == a * 10**k exactly.  Where the
    result has 17 digits, p >= 2**53 is an even integer, so rounding
    p + err is rounding err.
    """
    k = 16 - e.astype(np.intp)
    p = a * np.take(_POW10, k)
    ah, al = _split(a)
    bh, bl = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    # err = ((ah*bh - p) + ah*bl + al*bh) + al*bl, in place
    err = ah * bh
    err -= p
    ah *= bl
    err += ah
    bh *= al
    err += bh
    al *= bl
    err += al
    n = p.astype(np.int64)
    n += np.rint(err, out=err).astype(np.int64)
    return n


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, e) with n the 17-digit integer of a = n * 10**(e - 16), correctly
    rounded, for 1e-4 <= a < 1e17: the decimal exponent e from log10 is
    fixed up until n has 17 digits."""
    e = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int8)
    n = _digits17(a, e)
    while True:
        fix = np.flatnonzero((n - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16)
        if not fix.size:
            return n, e
        e[fix] += np.where(n[fix] < 10 ** 16, -1, 1).astype(np.int8)
        n[fix] = _digits17(a[fix], e[fix])


def _digit_text(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows "000" and the 17 digits of each n, as uint8, and the count
    of n's trailing zeros."""
    high = n // 10 ** 8
    c34 = n - high * 10 ** 8
    lead = high // 10 ** 8
    c12 = high - lead * 10 ** 8
    c1, c3 = c12 // 10 ** 4, c34 // 10 ** 4
    c2, c4 = c12 - c1 * 10 ** 4, c34 - c3 * 10 ** 4
    words = np.empty((n.size, 5), np.uint32)
    # the indices are in range: mode "wrap" only spares take a buffered copy
    np.take(_LEAD_TEXT, lead, out=words[:, 0], mode="wrap")
    for j, c in enumerate((c1, c2, c3, c4), 1):
        np.take(_CHUNK_TEXT, c, out=words[:, j], mode="wrap")
    zeros = _CHUNK_ZEROS[c4]
    for k, c in enumerate((c3, c2, c1), 1):
        at = np.flatnonzero(zeros == 4 * k)  # the chunks after c are zero
        if not at.size:
            break
        zeros[at] += _CHUNK_ZEROS[c[at]]
    return words.view(np.uint8), zeros


def format_g17(values) -> np.ndarray:
    """``b"%.17g" % v`` for each float v, byte for byte, as an ``S24`` array
    (its ``tolist()`` strips the NUL padding).

    For 1e-4 <= |v| < 1e17, where ``%.17g`` prints no exponent, the text is
    built from the exactly rounded 17 digits (see _significand).  The values
    are sorted into 42 groups by exponent and sign, so each group's text is a
    few column copies from the digit rows; the fraction's trailing zeros,
    and the point before an empty fraction, are then cut to NUL.  Zeros,
    nan, infinities and the other magnitudes go through Python's ``%.17g``
    one at a time.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e17)))
    a[slow] = 1.0  # a stand-in, overwritten by Python's text at the end
    n, e = _significand(a)
    # group g = 2 * (e + 4) + (v < 0) for e in -4..16
    key = (2 * (e + 4) + (x < 0)).view(np.uint8)
    order = np.argsort(key, kind="stable")
    key = key[order]
    digits, zeros = _digit_text(n[order])
    text = np.empty((x.size, 24), np.uint8)
    ends = np.searchsorted(key, np.arange(43))
    for g in np.flatnonzero(ends[1:] > ends[:-1]):
        rows = slice(ends[g], ends[g + 1])
        sign, ge = g % 2, g // 2 - 4
        point = sign + max(ge + 1, 1)
        text[rows, 0] = ord("-")  # the digits overwrite it on a positive row
        # "0." and the leading zeros of the fraction are in the digit rows
        text[rows, sign:point] = digits[rows, 3 - (ge < 0):4 + max(ge, -1)]
        text[rows, point] = ord(".")
        text[rows, point + 1:point + 17 - ge] = digits[rows, 4 + ge:20]
    text.view(np.uint64)[:] &= np.take(_KEEP, 17 * key.astype(np.intp) + zeros, axis=0)
    out = np.empty(x.size, "S24")
    out[order] = text.view("S24").ravel()
    out[slow] = [b"%.17g" % v for v in x[slow].tolist()]
    return out


def _format_slices(lead: int, coords: list[bytes], tails: list[bytes],
                   values: np.ndarray) -> Iterator[bytes]:
    """The rows of each slice of the leading axis in order, each through one
    ``%`` template, formatting the values of about _BLOCK_VALUES of them at
    a time."""
    per_block = max(1, _BLOCK_VALUES // len(tails))
    for b in range(0, len(values), per_block):
        texts = format_g17(values[b:b + per_block]).reshape(-1, len(tails))
        for i, row in enumerate(texts, b):
            prefix = b"," * lead + coords[i]
            yield (prefix + prefix.join(tails)) % tuple(row.tolist())


def _fork_child(body) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``body(out)``, `out` the write end of a new
    pipe; returns the child's pid and the pipe's read end.

    The child ends with ``os._exit``, status 0 only if `body` returned, so
    it flushes no inherited stdio buffer and prints no traceback.
    """
    r, wfd = os.pipe()
    reader = open(r, "rb")
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                reader.close()
                with open(wfd, "wb") as out:
                    body(out)
                status = 0
            finally:
                os._exit(status)
    except BaseException:
        reader.close()
        raise
    finally:
        os.close(wfd)
    return pid, reader


def write_field_csv(field: Field, path) -> str:
    """Serialize a field and return the SHA-256 hex digest of its bytes.

    See the module docstring for the format.  Each axis's coordinates are
    formatted once, and each slice of the leading axis through one ``%``
    template whose values format_g17 has turned into text; the calling
    process formats, hashes and writes the slices in order.
    """
    columns = [format_g17(field.grid.axis_coords(a)).tolist() if a in field.axes else [b""]
               for a in _AXES]
    lead = _AXIS_COLUMN[field.axes[0]]
    # the rows of one slice, each after its leading coordinate: ",<cols>,%s\n"
    tails = [b"".join(b"," + c for c in combo) + b",%s\n"
             for combo in itertools.product(*columns[lead + 1:])]
    values = field.values.reshape(len(columns[lead]), len(tails))
    header = (_HEADER + "\n").encode()
    digest = hashlib.sha256(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for chunk in _format_slices(lead, columns[lead], tails, values):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def _write_outcome(field: Field, path) -> str | Exception:
    """write_field_csv's digest, or the exception it raised."""
    try:
        return write_field_csv(field, path)
    except Exception as err:  # handed to the caller of FieldCsvWrite.digest
        return err


class FieldCsvWrite:
    """``write_field_csv(field, path)`` in a forked child, so that the
    caller can compute while the file is written.

    The child runs write_field_csv unchanged and sends back the pickled
    digest or exception; ``digest()`` waits for it, reaps the child and
    returns the digest or raises the exception.  Used as a context manager,
    it also reaps a child whose digest was never asked for, after the write
    ends.  The child only formats, hashes and writes, so it takes no lock
    that a BLAS thread of the caller may have held at the fork.  Without
    ``os.fork`` the write runs in the constructor.
    """

    def __init__(self, field: Field, path):
        self._path = path
        self._pid = None
        if hasattr(os, "fork"):
            self._pid, self._reader = _fork_child(
                lambda out: out.write(pickle.dumps(_write_outcome(field, path))))
        else:
            self._outcome = _write_outcome(field, path)

    def _reap(self) -> bytes:
        """What the child sent, after it has exited."""
        try:
            return self._reader.read()
        finally:
            self._reader.close()
            os.waitpid(self._pid, 0)
            self._pid = None

    def digest(self) -> str:
        """The file's SHA-256 hex digest, once the write has ended."""
        if self._pid is not None:
            sent = self._reap()
            self._outcome = (pickle.loads(sent) if sent else
                             RuntimeError(f"{self._path}: the CSV writer stopped early"))
        if isinstance(self._outcome, Exception):
            raise self._outcome
        return self._outcome

    def __enter__(self) -> FieldCsvWrite:
        return self

    def __exit__(self, *exc) -> None:
        if self._pid is not None:
            self._reap()


def _field_layout(path, data: bytes) -> tuple[tuple[str, ...], int, int]:
    """Check a field file's header and columns: (axes, data rows, body offset).

    Surrounding whitespace is ignored.  Every row must have 4 columns; the
    first row's non-empty coordinate columns name the field's axes.
    """
    start, end = 0, len(data)
    while start < end and data[start:start + 1].isspace():
        start += 1
    while end > start and data[end - 1:end].isspace():
        end -= 1
    header_end = data.find(b"\n", start, end)
    if data[start:end if header_end < 0 else header_end].strip() != _HEADER.encode():
        raise ScenarioFileError(f"{path}: expected header 's,t,x,value'")
    if header_end < 0:
        raise ScenarioFileError(f"{path}: no data rows")
    body = header_end + 1
    n_rows = data.count(b"\n", body, end) + 1
    first_end = data.find(b"\n", body, end)
    first = data[body:end if first_end < 0 else first_end].split(b",")
    # a row with too many commas and one with too few can balance the count;
    # the short one then fails in loadtxt, which needs column 3 in every row
    if len(first) != 4 or data.count(b",", body, end) != 3 * n_rows:
        raise ScenarioFileError(f"{path}: malformed row (need 4 columns)")
    axes = tuple(a for a in _AXES if first[_AXIS_COLUMN[a]] != b"")
    if not axes:
        raise ScenarioFileError(f"{path}: field varies over no axis")
    return axes, n_rows, body


def read_field_csv(path, grid: Grid3) -> Field:
    """Read a field written by write_field_csv back onto its grid.

    Coordinates are checked against the grid sample points; values
    round-trip bit-exactly.
    """
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ScenarioFileError(f"cannot read {path}: {err}") from err
    with fh:
        axes, n_rows, body = _field_layout(path, fh.read())
        shape = tuple(grid.axis_len(a) for a in axes)
        if n_rows != int(np.prod(shape)):
            raise ScenarioFileError(
                f"{path}: {n_rows} rows but grid implies {int(np.prod(shape))} for axes {axes}"
            )
        fh.seek(body)
        try:
            # comments=None: a '#' in a value is a parse error, not a comment
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                               usecols=[_AXIS_COLUMN[a] for a in axes] + [3])
        except ValueError as err:
            raise ScenarioFileError(f"{path}: {err}") from err
    # verify the coordinate columns follow the grid ordering; report the
    # first offending row, and in it the first offending axis
    mismatches = []
    for i, a in enumerate(axes):
        expected = grid.axis_coords(a).reshape([-1 if b == a else 1 for b in axes])
        bad = np.flatnonzero(table[:, i].reshape(shape) != expected)
        if bad.size:
            mismatches.append((bad[0], i))
    if mismatches:
        pos, i = min(mismatches)
        want = grid.axis_coords(axes[i])[np.unravel_index(pos, shape)[i]]
        raise ScenarioFileError(
            f"{path}: row {pos + 2}: coordinate {float(table[pos, i])} does not match "
            f"grid value {want}"
        )
    return Field(grid, axes, table[:, -1].reshape(shape))
