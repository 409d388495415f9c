"""File formats: CSV payloads with JSON sidecars.

Every CSV goes through one writer and one reader. Every line has one
shape: an optional text label (a step counter written by ``str(t)``, the
same bytes as ``'%d' % t``, or a result row's leading fields), then the
row's floats as ``%.17e`` cells (full double precision, so round trips are
exact), joined by commas and ended by ``\\r\\n``. The writer formats whole
blocks of float cells in numpy and writes the same bytes as ``'%.17e' % x``
per cell. Zeros and magnitudes in [1e-99, 1e100) take the fast path: a
double-double power of ten scales them exactly when the power is a double
(10**0 to 10**22) and to within 1e-13 of a unit otherwise. Every
other cell is printed by ``%`` itself: nan, infinities, subnormals,
three-digit exponents, and inexactly scaled cells within 1e-9 of a rounding
tie or of 1e17. A saved artifact is a pair ``<base>.csv`` plus
``<base>.json`` describing it, each suffix appended to the base name or
replacing a ``.csv`` or ``.json`` suffix it ends in. The reader rejects a
ragged row, a non-numeric cell or a non-finite value with a ``ValueError``
naming the file, the 1-based line and the column; the loaders reject a
payload or sidecar list that disagrees with the sidecar's counts, and a
sidecar value they read that is missing, of the wrong JSON type or not
finite, naming both files. A sidecar or manifest that is not valid JSON,
or holds no JSON object, is rejected naming the file.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .filters import FeatureLayout, FilterBank
from .lds import Trajectory, _count

__all__ = [
    "save_filter_bank",
    "load_filter_bank",
    "save_trajectory",
    "load_trajectory",
    "save_predictor",
    "load_predictor",
    "save_result_rows",
    "load_training_set",
    "TrainingSet",
]

FLOAT_FMT = "%.17e"
SIGN_CONVENTION = "first-significant-coordinate-positive"

PathLike = Union[str, Path]


_CHUNK_CELLS = 1 << 16  # cells formatted at a time, so the buffers stay a few MiB
_WIDTH = 25  # bytes of the longest cell text, '-4.94065645841246544e-324'
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant for splitting a double in halves
_E_LIMIT = 101  # the scaling table covers exponents -101..101: [-99, 99] and one more


def _write_csv(path: Path, header: Sequence[str], *blocks: tuple) -> None:
    """The one CSV writer.

    Writes the ``header`` line unless it is empty, then each ``(labels, rows)``
    block: one line per row of the 2-D array ``rows``. ``labels`` is ``None`` or one string
    per row, written as-is and followed by a comma when the row has cells;
    each value of ``rows`` is a ``FLOAT_FMT`` cell, and cells are joined by
    commas. A cell's bytes are exactly those of ``FLOAT_FMT % value``, the
    fast path's or, for the cells it is not sure of, ``%``'s own (see the
    module doc); ``_format_rows`` makes them in row chunks of at most
    ``_CHUNK_CELLS`` cells, a label counting as one.
    """
    with path.open("wb") as fh:
        if header:
            fh.write((",".join(header) + "\r\n").encode())
        for labels, rows in blocks:
            step = max(1, _CHUNK_CELLS // max(1, rows.shape[1] + (labels is not None)))
            for start in range(0, len(rows), step):
                chunk = slice(start, start + step)
                fh.write(_format_rows(rows[chunk], None if labels is None else labels[chunk]))


def _format_rows(rows: np.ndarray, labels: Optional[Sequence[str]] = None) -> np.ndarray:
    """The bytes of ``rows`` as CSV lines, each led by its label (see ``_write_csv``).

    Every cell, a label included, gets a slot of NUL bytes, as wide as the
    widest cell, then its separator; the cell's text fills the slot's front
    and the NULs are dropped.
    """
    rows = np.asarray(rows, dtype=float)
    lead = int(labels is not None)
    if not lead + rows.shape[1]:  # neither label nor cells: an empty line per row
        return np.frombuffer(b"\r\n" * len(rows), np.uint8)
    texts = _text_cells(labels, 0) if lead else np.empty((len(rows), 0), np.uint8)
    out = np.zeros((len(rows), lead + rows.shape[1], max(texts.shape[1], _WIDTH) + 2), np.uint8)
    out[:, 0, : texts.shape[1]] = texts  # no bytes when there are no labels
    out[:, lead:, :_WIDTH] = _float_cells(rows.ravel()).reshape(*rows.shape, _WIDTH)
    out[:, :, -2] = ord(",")
    out[:, -1, -2:] = np.frombuffer(b"\r\n", np.uint8)
    return out[out != 0]


def _text_cells(texts: Sequence[str], width: int) -> np.ndarray:
    """``texts`` as NUL-padded rows of at least ``width`` bytes."""
    cells = np.array([text.encode() for text in texts], dtype=bytes)  # NUL-padded
    width = max(width, cells.itemsize)
    return cells.astype(f"S{width}").view(np.uint8).reshape(len(cells), width)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``FLOAT_FMT % v`` for each double of ``x``, as NUL-padded rows of ``_WIDTH`` bytes.

    Zeros and the magnitudes in [1e-99, 1e100) whose digits ``_decimal_digits``
    is sure of are printed from their digits; any other value (nan, an
    infinity, a subnormal, a three-digit exponent, a near tie) by ``%`` itself.
    """
    ax = np.abs(x)
    zero = ax == 0
    fast = (ax >= 1e-99) & (ax < 1e100)
    n, e, sure = _decimal_digits(np.where(fast, ax, 1.0))
    n[zero], e[zero] = 0, 0
    cells = np.zeros((x.size, _WIDTH), np.uint8)
    cells[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    digits = _digits(n, 18)
    cells[:, 1] = digits[:, 0]
    cells[:, 2] = ord(".")
    cells[:, 3:20] = digits[:, 1:]
    cells[:, 20] = ord("e")
    cells[:, 21] = np.where(e < 0, ord("-"), ord("+"))
    cells[:, 22:24] = _digits(np.abs(e), 2)
    rest = np.flatnonzero(~(fast & sure | zero))
    cells[rest] = _text_cells([FLOAT_FMT % v for v in x[rest].tolist()], _WIDTH)
    return cells


def _decimal_digits(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, e, sure)`` for positive doubles ``ax`` in [1e-99, 1e100): the integer
    ``n`` in [1e17, 1e18) nearest ``ax * 10**(17 - e)`` (ties to even) and the
    exponent ``e``, so ``ax`` prints as the digits of ``n`` times ``10**(e - 17)``.

    ``sure`` is false where that may be wrong. When ``10**(17 - e)`` is a
    double the scaled value is exact; otherwise it is within 1e-13 of the true
    one, so only a remainder within 1e-9 of one half, or a scaled value within
    1e-9 of 1e17, is unsure. An exponent outside [-99, 99] is unsure too.
    """
    e = np.floor(np.log10(ax)).astype(np.int64)
    whole, frac, exact = _scaled(ax, e)
    moved = (whole < 10**17) | (whole >= 10**18)  # log10 was one off
    if moved.any():
        e[moved] += np.where(whole[moved] < 10**17, -1, 1)
        whole[moved], frac[moved], exact[moved] = _scaled(ax[moved], e[moved])
    n = whole + ((frac > 0.5) | (frac == 0.5) & (whole & 1 == 1))
    carry = n == 10**18
    n[carry], e[carry] = 10**17, e[carry] + 1
    unsure = (np.abs(frac - 0.5) < 1e-9) | (whole == 10**17) & (frac < 1e-9)
    sure = ((whole >= 10**17) & (whole < 10**18) & (np.abs(e) <= 99)
            & (exact | ~unsure))
    return n, e, sure


def _scaled(ax: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ax * 10**(17 - e)`` as an integer part, a remainder in [0, 1), and where it is exact.

    The power is the double-double ``hi + lo``; Dekker's two-product gives
    ``ax * hi`` exactly as a double plus its rounding error.
    """
    hi, hi_hi, hi_lo, lo = (table[_E_LIMIT - e] for table in _powers_of_ten())
    product = ax * hi
    split = ax * _SPLIT
    ax_hi = split - (split - ax)
    ax_lo = ax - ax_hi
    error = ((ax_hi * hi_hi - product) + ax_hi * hi_lo + ax_lo * hi_hi) + ax_lo * hi_lo
    rest = error + ax * lo
    floor = np.floor(rest)
    return product.astype(np.int64) + floor.astype(np.int64), rest - floor, lo == 0


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """``(hi, hi_hi, hi_lo, lo)`` for ``10**p``, p from ``17 - _E_LIMIT`` to ``17 + _E_LIMIT``.

    ``hi`` is ``10**p`` rounded to a double and ``lo`` the rest, rounded, both
    from exact integer quotients; ``hi_hi + hi_lo`` is ``hi`` split in halves.
    """
    pairs = []
    for p in range(17 - _E_LIMIT, 18 + _E_LIMIT):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den  # an integer quotient is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(pairs).T
    split = hi * _SPLIT
    hi_hi = split - (split - hi)
    return hi, hi_hi, hi - hi_hi, lo


@functools.cache
def _four_digits() -> np.ndarray:
    """The four ASCII digits of each of 0..9999, as one 4-byte item each."""
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    four = np.empty((100, 100, 2), np.uint16)
    four[:, :, 0], four[:, :, 1] = two[:, None], two
    return four.view(np.uint32).ravel()


def _digits(n: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` ASCII decimal digits of each integer ``n`` below ``10**count``."""
    quads = np.empty((n.size, -(-count // 4)), np.int64)
    for i in range(quads.shape[1] - 1, 0, -1):
        quotient = n // 10000
        np.subtract(n, 10000 * quotient, out=quads[:, i])
        n = quotient
    quads[:, 0] = n
    return _four_digits()[quads].view(np.uint8)[:, -count:]


def _numbered(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A ``_write_csv`` block: the rows of ``values``, each labelled by its 1-based step."""
    return [str(t) for t in range(1, len(values) + 1)], values


def _bad_cell(path: Path, lines: list[str], first: int) -> str:
    """Where and why ``lines`` (file lines ``first`` on) are not a finite table."""
    rows = [(n, line.split(",")) for n, line in enumerate(lines, start=first) if line.strip()]
    width = len(rows[0][1])
    for number, cells in rows:
        where = f"{path}, line {number}, column"
        if len(cells) != width:
            return f"{where} {min(len(cells), width) + 1}: {len(cells)} cells, not {width}"
        for column, cell in enumerate(cells, start=1):
            try:
                if "_" in cell or not cell.isascii():  # np.loadtxt rejects these, float() not
                    raise ValueError(cell)
                if not np.isfinite(float(cell)):
                    return f"{where} {column}: {cell!r} is not finite"
            except ValueError:
                return f"{where} {column}: {cell!r} is not a number"
    return f"{path} is not a table of numbers"


def _read_matrix_csv(path: Path, skip_header: bool) -> np.ndarray:
    """The one CSV reader: a finite 2-D array, shaped (0, 0) when there are no rows.

    numpy's C reader splits the file; its lines are split here only to name a bad cell.
    """
    skip = int(skip_header)
    try:
        with warnings.catch_warnings():  # no rows is an answer, not a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, comments=None)
        if np.isfinite(data).all():
            return data if len(data) else np.empty((0, 0))
    except ValueError:
        pass
    lines = path.read_text().splitlines()[skip:]
    if not any(line.strip() for line in lines):
        return np.empty((0, 0))
    raise ValueError(_bad_cell(path, lines, 1 + skip))


def _with_suffix(base: PathLike, suffix: str) -> Path:
    """``base`` with ``suffix`` appended to its full name, or replacing a ``.csv``
    or ``.json`` suffix it ends in: ``ep.1`` gives ``ep.1.csv``, ``ep.csv`` gives ``ep.json``."""
    base = Path(base)
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return base.with_name(base.name + suffix)


def _save_pair(base: PathLike, meta: dict, header: Sequence[str], *blocks) -> tuple[Path, Path]:
    """Write ``<base>.csv`` from ``header`` and ``blocks`` and ``<base>.json`` from ``meta``."""
    csv_path, json_path = _with_suffix(base, ".csv"), _with_suffix(base, ".json")
    _write_csv(csv_path, header, *blocks)
    json_path.write_text(json.dumps(meta, indent=2, allow_nan=False))
    return csv_path, json_path


def _read_json_object(path: Path) -> dict:
    """The JSON object in ``path``; ``ValueError`` naming it if malformed or not an object."""
    try:
        value = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return value


def _load_pair(base: PathLike, skip_header: bool) -> tuple[np.ndarray, dict, tuple[Path, Path]]:
    """The ``<base>.csv`` payload, the ``<base>.json`` sidecar and both paths."""
    paths = _with_suffix(base, ".csv"), _with_suffix(base, ".json")
    meta = _read_json_object(paths[1])
    return _read_matrix_csv(paths[0], skip_header), meta, paths


def _disagree(paths: tuple[Path, Path], found: str, claim: str) -> ValueError:
    return ValueError(f"{paths[0]} {found}; sidecar {paths[1]} says {claim}")


_INTEGER = ("an integer", lambda v: type(v) is int)
_NUMBERS = ("a list of finite numbers", lambda v: type(v) is list and all(
    type(x) in (int, float) and math.isfinite(x) for x in v))
# the JSON type of each sidecar value a loader reads, and the test for it
_KIND_OF = {
    "T": _INTEGER, "k": _INTEGER, "n": _INTEGER, "m": _INTEGER, "rows": _INTEGER,
    "sigmas": _NUMBERS, "lambdas": _NUMBERS,
    "sigma_extrapolated": ("a list of booleans",
                           lambda v: type(v) is list and all(type(x) is bool for x in v)),
    "method": ("a string", lambda v: type(v) is str),
    "layout": ("an object", lambda v: type(v) is dict),
}
# the least value of each sidecar count
_LEAST = {"T": 1, "k": 1, "n": 0, "m": 0, "rows": 0}


def _sidecar(meta: dict, paths: tuple[Path, Path], *keys: str, within: str = "") -> list:
    """The sidecar values at ``keys`` (of its ``within`` entry); a missing one, one not of
    its ``_KIND_OF`` type, or a count below its ``_LEAST``, names both files."""
    described = f"{paths[0]} is described by sidecar {paths[1]}"
    missing = [within + key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{described}, which lacks {', '.join(missing)}")
    for key in keys:
        kind, test = _KIND_OF[key]
        if not test(meta[key]):
            raise ValueError(f"{described}, whose {within + key} is {meta[key]!r}, not {kind}")
        if key in _LEAST:
            _count(f"{described}, whose {within + key}", meta[key], least=_LEAST[key])
    return [meta[key] for key in keys]


def save_filter_bank(bank: FilterBank, base: PathLike) -> tuple[Path, Path]:
    """Write filters as a T-by-k CSV of eigenvector entries plus a sidecar."""
    meta = {
        "T": bank.horizon,
        "k": bank.k,
        "sigmas": list(bank.sigmas),
        "sign_convention": SIGN_CONVENTION,
        "method": bank.method,
    }
    if bank.lambdas is not None:
        meta["lambdas"] = list(bank.lambdas)
    if bank.sigma_extrapolated is not None:
        meta["sigma_extrapolated"] = [bool(v) for v in bank.sigma_extrapolated]
    return _save_pair(base, meta, (), (None, bank.phis.T))  # T rows, k columns


def load_filter_bank(base: PathLike) -> FilterBank:
    """Read a bank; the payload must be T-by-k and each sidecar list k long."""
    data, meta, paths = _load_pair(base, skip_header=False)
    T, k, method = _sidecar(meta, paths, "T", "k", "method")
    if data.shape != (T, k):
        raise _disagree(paths, f"has shape {data.shape}", f"T={T}, k={k}")
    keys = ["sigmas"] + [key for key in ("lambdas", "sigma_extrapolated") if key in meta]
    lists = dict(zip(keys, _sidecar(meta, paths, *keys)))
    for key, values in lists.items():
        if len(values) != k:
            raise _disagree(paths, f"comes with {len(values)} {key}", f"k={k}")
    arrays = {key: np.array(values, dtype=bool if key == "sigma_extrapolated" else float)
              for key, values in lists.items()}
    return FilterBank(phis=data.T, method=method, **arrays)


def save_trajectory(
    trajectory: Trajectory, base: PathLike, metadata: Optional[dict] = None
) -> tuple[Path, Path]:
    """Write (t, x_1..x_n, y_1..y_m) rows plus dimension/scale metadata.

    JSON has no infinity: a bound beyond the double range is written as null.
    """
    n, m = trajectory.input_dim, trajectory.output_dim
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(m)]
    meta = {"n": n, "m": m, "T": trajectory.length}
    for key in ("r_x", "l_y"):
        bound = getattr(trajectory, key)
        meta[key] = bound if np.isfinite(bound) else None
    if metadata:
        meta.update(metadata)
    rows = _numbered(np.hstack((trajectory.inputs, trajectory.outputs)))
    return _save_pair(base, meta, header, rows)


def load_trajectory(base: PathLike) -> Trajectory:
    """Read a trajectory; its payload shape must match the sidecar's T, n, m."""
    data, meta, paths = _load_pair(base, skip_header=True)
    n, m, T = _sidecar(meta, paths, "n", "m", "T")
    rows, cols = data.shape
    if cols != 1 + n + m:
        raise _disagree(paths, f"has {cols} columns", f"n={n}, m={m}")
    if rows != T:
        raise _disagree(paths, f"has {rows} rows", f"T={T}")
    return Trajectory(inputs=data[:, 1 : 1 + n], outputs=data[:, 1 + n :])


def save_predictor(
    matrix: np.ndarray,
    layout: FeatureLayout,
    base: PathLike,
    source: str,
    config_echo: Optional[dict] = None,
) -> tuple[Path, Path]:
    """Write a prediction matrix, 2-D (output, feature), with its block layout and provenance."""
    if np.ndim(matrix) != 2:
        raise ValueError(f"matrix must be 2-D (output, feature), got shape {np.shape(matrix)}")
    meta = {
        "source": source,
        "rows": len(matrix),
        "layout": {"n": layout.n, "k": layout.k, "m": layout.m,
                   "include_y": layout.include_y, "width": layout.width},
    }
    if config_echo:
        meta["config"] = config_echo
    return _save_pair(base, meta, (), (None, matrix))


def load_predictor(base: PathLike) -> tuple[np.ndarray, FeatureLayout, dict]:
    """Read a predictor; the sidecar's n, k, m fix its width, include_y and payload shape."""
    matrix, meta, paths = _load_pair(base, skip_header=False)
    lay, claimed_rows = _sidecar(meta, paths, "layout", "rows")
    n, k, m = _sidecar(lay, paths, "n", "k", "m", within="layout.")
    layout = FeatureLayout(n=n, k=k, m=m)
    width, include_y = lay.get("width"), lay.get("include_y")
    if (width, include_y) != (layout.width, layout.include_y):
        raise _disagree(
            paths,
            f"is laid out by n={layout.n}, k={layout.k}, m={layout.m}: "
            f"width {layout.width}, include_y {layout.include_y}",
            f"width {width}, include_y {include_y}",
        )
    rows, cols = matrix.shape
    if cols != layout.width:
        raise _disagree(paths, f"has {cols} columns", f"layout width {layout.width}")
    if rows != claimed_rows:
        raise _disagree(paths, f"has {rows} rows", f"rows={claimed_rows}")
    return matrix, layout, meta


def save_result_rows(
    experiment: str, seed: int, losses: Mapping[str, np.ndarray], path: PathLike
) -> Path:
    """Write per-step results: for each learner in turn, its loss and running mean per step."""
    path = Path(path)
    blocks = []
    for learner, loss in losses.items():
        labels = [f"{experiment},{seed},{t},{learner}" for t in range(1, len(loss) + 1)]
        running_mean = np.cumsum(loss) / np.arange(1, len(loss) + 1)
        blocks.append((labels, np.column_stack((loss, running_mean))))
    _write_csv(path, ("experiment", "seed", "t", "learner", "loss", "cumulative_mse"), *blocks)
    return path


@dataclass(frozen=True)
class TrainingSet(Sequence[Trajectory]):
    """The trajectories of a training set, each read from its files when accessed.

    ``length``, ``input_dim`` and ``output_dim`` are the ``T``, ``n`` and ``m``
    that every sidecar gives. Indexing (by an integer) and iteration read a
    trajectory through ``load_trajectory``, which checks its payload against
    its sidecar; the set keeps none of them.
    """

    bases: tuple[Path, ...]
    length: int
    input_dim: int
    output_dim: int

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, index: int) -> Trajectory:
        return load_trajectory(self.bases[operator.index(index)])


def load_training_set(directory: PathLike) -> TrainingSet:
    """The trajectories listed in a directory's manifest.json, all of one shape.

    The manifest must be a JSON object whose ``trajectories`` is a non-empty
    list of plain base names. Every sidecar is read up front and must give
    ``T``, ``n`` and ``m``, equal across the set; a payload is read and checked
    only when its trajectory is accessed. A manifest that breaks this, a
    sidecar that lacks a key or gives it the wrong type, or sidecars that
    differ in ``T``, ``n`` or ``m`` raise ``ValueError`` naming the files.
    """
    manifest_path = Path(directory) / "manifest.json"
    manifest = _read_json_object(manifest_path)
    if "trajectories" not in manifest:
        raise ValueError(f"{manifest_path} lacks a trajectories list")
    names = manifest["trajectories"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError(f"{manifest_path} lists trajectories as {names!r}, not as a list of names")
    if not names:
        raise ValueError(f"{manifest_path} lists no trajectories")
    for name in names:
        if name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"{manifest_path} lists {name!r}, which is not a plain file name")
    bases = tuple(manifest_path.parent / name for name in names)
    shapes = []  # (n, m, T) of each sidecar
    for base in bases:
        paths = _with_suffix(base, ".csv"), _with_suffix(base, ".json")
        shapes.append(_sidecar(_read_json_object(paths[1]), paths, "n", "m", "T"))
    for base, shape in zip(bases, shapes):
        for value, first, what in zip(shape, shapes[0], ("inputs", "outputs", "steps")):
            if value != first:
                raise ValueError(
                    f"{_with_suffix(base, '.csv')} has {value} {what}, "
                    f"{_with_suffix(bases[0], '.csv')} has {first}"
                )
    n, m, T = shapes[0]
    return TrainingSet(bases, length=T, input_dim=n, output_dim=m)
