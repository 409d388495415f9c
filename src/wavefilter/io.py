"""File formats: CSV payloads with JSON sidecars.

All floats are written in full double precision scientific notation so
round trips are exact. A saved artifact is a pair ``<base>.csv`` plus
``<base>.json`` describing it.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .filters import FeatureLayout, FilterBank
from .lds import Trajectory

__all__ = [
    "save_filter_bank",
    "load_filter_bank",
    "save_trajectory",
    "load_trajectory",
    "load_input_csv",
    "save_features",
    "save_predictor",
    "load_predictor",
    "save_result_rows",
    "load_training_set",
]

FLOAT_FMT = "%.17e"
SIGN_CONVENTION = "first-significant-coordinate-positive"

PathLike = Union[str, Path]


def _write_matrix_csv(path: Path, matrix: np.ndarray, header: Optional[list[str]] = None) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([FLOAT_FMT % v for v in row])


def _read_matrix_csv(path: Path, skip_header: bool) -> np.ndarray:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if skip_header:
        rows = rows[1:]
    return np.array([[float(v) for v in row] for row in rows])


def save_filter_bank(bank: FilterBank, base: PathLike) -> tuple[Path, Path]:
    """Write filters as a T-by-k CSV of eigenvector entries plus a sidecar."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    _write_matrix_csv(csv_path, bank.phis.T)  # T rows, k columns
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
    json_path.write_text(json.dumps(meta, indent=2))
    return csv_path, json_path


def load_filter_bank(base: PathLike) -> FilterBank:
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    phis = _read_matrix_csv(base.with_suffix(".csv"), skip_header=False).T
    sigmas = np.array(meta["sigmas"], dtype=float)
    lambdas = np.array(meta["lambdas"], dtype=float) if "lambdas" in meta else None
    extrap = (
        np.array(meta["sigma_extrapolated"], dtype=bool)
        if "sigma_extrapolated" in meta
        else None
    )
    return FilterBank(
        horizon=int(meta["T"]),
        k=int(meta["k"]),
        phis=phis,
        sigmas=sigmas,
        scaled_filters=sigmas[:, None] ** 0.25 * phis,
        method=meta["method"],
        lambdas=lambdas,
        sigma_extrapolated=extrap,
    )


def save_trajectory(
    trajectory: Trajectory, base: PathLike, metadata: Optional[dict] = None
) -> tuple[Path, Path]:
    """Write (t, x_1..x_n, y_1..y_m) rows plus dimension/scale metadata."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    n, m = trajectory.input_dim, trajectory.output_dim
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(m)]
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(trajectory.length):
            row = [str(t + 1)]
            row += [FLOAT_FMT % v for v in trajectory.inputs[t]]
            row += [FLOAT_FMT % v for v in trajectory.outputs[t]]
            writer.writerow(row)
    meta = {
        "n": n,
        "m": m,
        "T": trajectory.length,
        "r_x": trajectory.r_x,
        "l_y": trajectory.l_y,
    }
    if metadata:
        meta.update(metadata)
    json_path.write_text(json.dumps(meta, indent=2))
    return csv_path, json_path


def load_trajectory(base: PathLike) -> Trajectory:
    """Read a trajectory; its payload shape must match the sidecar's T, n, m."""
    base = Path(base)
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
    meta = json.loads(json_path.read_text())
    data = _read_matrix_csv(csv_path, skip_header=True)
    n, m, T = int(meta["n"]), int(meta["m"]), int(meta["T"])
    rows, cols = data.shape if data.ndim == 2 else (0, 0)
    if cols != 1 + n + m:
        raise ValueError(f"{csv_path} has {cols} columns; sidecar {json_path} says n={n}, m={m}")
    if rows != T:
        raise ValueError(f"{csv_path} has {rows} rows; sidecar {json_path} says T={T}")
    return Trajectory(inputs=data[:, 1 : 1 + n], outputs=data[:, 1 + n :])


def load_input_csv(path: PathLike) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Read an input sequence CSV with x_* (and optionally y_*) columns."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows)
    x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    y_cols = [i for i, name in enumerate(header) if name.startswith("y_")]
    if not x_cols:
        raise ValueError(f"no x_* columns found in {path}")
    xs = data[:, x_cols]
    ys = data[:, y_cols] if y_cols else None
    return xs, ys


def save_features(
    features: np.ndarray, layout: FeatureLayout, base: PathLike
) -> tuple[Path, Path]:
    """Write a feature matrix with a JSON header describing the blocks."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    _write_matrix_csv(csv_path, np.atleast_2d(features))
    meta = {
        "n": layout.n,
        "k": layout.k,
        "m": layout.m,
        "include_y": layout.include_y,
        "width": layout.width,
        "blocks": {
            "convolutions": [0, layout.n * layout.k],
            "x_prev": [layout.x_prev_block.start, layout.x_prev_block.stop],
            "x": [layout.x_block.start, layout.x_block.stop],
        },
    }
    if layout.include_y:
        meta["blocks"]["y_prev"] = [layout.y_block.start, layout.y_block.stop]
    json_path.write_text(json.dumps(meta, indent=2))
    return csv_path, json_path


def save_predictor(
    matrix: np.ndarray,
    layout: FeatureLayout,
    base: PathLike,
    source: str,
    config_echo: Optional[dict] = None,
) -> tuple[Path, Path]:
    """Write a prediction matrix with its block layout and provenance."""
    base = Path(base)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    _write_matrix_csv(csv_path, matrix)
    meta = {
        "source": source,
        "rows": int(np.atleast_2d(matrix).shape[0]),
        "layout": {
            "n": layout.n,
            "k": layout.k,
            "m": layout.m,
            "include_y": layout.include_y,
            "width": layout.width,
        },
    }
    if config_echo:
        meta["config"] = config_echo
    json_path.write_text(json.dumps(meta, indent=2))
    return csv_path, json_path


def load_predictor(base: PathLike) -> tuple[np.ndarray, FeatureLayout, dict]:
    base = Path(base)
    meta = json.loads(base.with_suffix(".json").read_text())
    matrix = _read_matrix_csv(base.with_suffix(".csv"), skip_header=False)
    lay = meta["layout"]
    layout = FeatureLayout(
        n=int(lay["n"]), k=int(lay["k"]), m=int(lay["m"]), include_y=bool(lay["include_y"])
    )
    return matrix, layout, meta


def save_result_rows(rows: Sequence[dict], path: PathLike) -> Path:
    """Write per-step benchmark results (one dict per row)."""
    path = Path(path)
    fields = ["experiment", "seed", "t", "learner", "loss", "cumulative_mse"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("loss", "cumulative_mse"):
                out[key] = FLOAT_FMT % out[key]
            writer.writerow(out)
    return path


def load_training_set(directory: PathLike) -> list[Trajectory]:
    """Load trajectories listed in a directory's manifest.json."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    out = []
    for name in manifest["trajectories"]:
        out.append(load_trajectory(directory / name))
    return out
