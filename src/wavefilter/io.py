"""File formats: CSV payloads with JSON sidecars.

Every CSV goes through one writer and one reader. Floats are written as
``%.17e`` (full double precision, so round trips are exact), step counters
as ``%d``, and every line ends in ``\\r\\n``. A saved artifact is a pair
``<base>.csv`` plus ``<base>.json`` describing it. The reader rejects a
ragged row, a non-numeric cell or a non-finite value with a ``ValueError``
naming the file, the 1-based line and the column; the loaders reject a
payload or sidecar list that disagrees with the sidecar's counts, and a
sidecar value they read that is missing, of the wrong JSON type or not
finite, naming both files. A sidecar or manifest that is not valid JSON,
or holds no JSON object, is rejected naming the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .filters import FeatureLayout, FilterBank
from .lds import Trajectory

__all__ = [
    "save_filter_bank",
    "load_filter_bank",
    "save_trajectory",
    "load_trajectory",
    "save_predictor",
    "load_predictor",
    "save_result_rows",
    "load_training_set",
]

FLOAT_FMT = "%.17e"
SIGN_CONVENTION = "first-significant-coordinate-positive"

PathLike = Union[str, Path]


def _write_csv(path: Path, header: Sequence[str], *blocks: tuple) -> None:
    """The one CSV writer.

    Writes the ``header`` line unless it is empty, then each ``(fmt, rows)``
    block: one line per row, in ``np.savetxt``'s ``fmt`` (a format per cell,
    or one for the whole line, which may hold literal text).
    """
    with path.open("w", newline="") as fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for fmt, rows in blocks:
            np.savetxt(fh, np.atleast_2d(rows), fmt=fmt, delimiter=",", newline="\r\n")


def _numbered(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A ``_write_csv`` block: a 1-based step counter, then the rows of ``values``."""
    steps = np.arange(1, len(values) + 1)
    return ["%d"] + [FLOAT_FMT] * values.shape[1], np.column_stack((steps, values))


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
    """The one CSV reader: a finite 2-D array, shaped (0, 0) when there are no rows."""
    lines = path.read_text().splitlines()[int(skip_header):]
    if not any(line.strip() for line in lines):
        return np.empty((0, 0))
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        raise ValueError(_bad_cell(path, lines, 1 + int(skip_header)))
    return data


def _save_pair(base: PathLike, meta: dict, header: Sequence[str], *blocks) -> tuple[Path, Path]:
    """Write ``<base>.csv`` from ``header`` and ``blocks`` and ``<base>.json`` from ``meta``."""
    base = Path(base)
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
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
    base = Path(base)
    paths = base.with_suffix(".csv"), base.with_suffix(".json")
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


def _sidecar(meta: dict, paths: tuple[Path, Path], *keys: str, within: str = "") -> list:
    """The sidecar values at ``keys`` (of its ``within`` entry); a missing one, or one
    not of its ``_KIND_OF`` type, names both files."""
    described = f"{paths[0]} is described by sidecar {paths[1]}"
    missing = [within + key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{described}, which lacks {', '.join(missing)}")
    for key in keys:
        kind, test = _KIND_OF[key]
        if not test(meta[key]):
            raise ValueError(f"{described}, whose {within + key} is {meta[key]!r}, not {kind}")
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
    return _save_pair(base, meta, (), (FLOAT_FMT, bank.phis.T))  # T rows, k columns


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
    """Write a prediction matrix with its block layout and provenance."""
    meta = {
        "source": source,
        "rows": int(np.atleast_2d(matrix).shape[0]),
        "layout": {"n": layout.n, "k": layout.k, "m": layout.m,
                   "include_y": layout.include_y, "width": layout.width},
    }
    if config_echo:
        meta["config"] = config_echo
    return _save_pair(base, meta, (), (FLOAT_FMT, matrix))


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
        fmt = f"{experiment},{seed},%d,{learner},{FLOAT_FMT},{FLOAT_FMT}"
        steps = np.arange(1, len(loss) + 1)
        blocks.append((fmt, np.column_stack((steps, loss, np.cumsum(loss) / steps))))
    _write_csv(path, ("experiment", "seed", "t", "learner", "loss", "cumulative_mse"), *blocks)
    return path


def load_training_set(directory: PathLike) -> list[Trajectory]:
    """Load the trajectories listed in a directory's manifest.json, all equally long.

    The manifest must be a JSON object whose ``trajectories`` is a non-empty
    list of base names. A manifest that breaks this, or trajectories that
    differ in length, raise ``ValueError`` naming the files.
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
    bases = [manifest_path.parent / name for name in names]
    trajectories = [load_trajectory(base) for base in bases]
    for base, trajectory in zip(bases, trajectories):
        if trajectory.length != trajectories[0].length:
            raise ValueError(
                f"{base.with_suffix('.csv')} has {trajectory.length} steps, "
                f"{bases[0].with_suffix('.csv')} has {trajectories[0].length}"
            )
    return trajectories
