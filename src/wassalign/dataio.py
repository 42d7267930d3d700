"""File formats for the command-line surface.

CSV point clouds: one point per row, comma-separated; an optional header row
is auto-detected (any non-numeric first row).  If a header is present and its
last column is named "weight", that column supplies the weights.

Families are given as spec strings:
    rotations2d:<l>   equi-spaced 2-d rotation grid with l angles
    matrices:<path>   CSV of row-major flattened d x n map matrices, one per
                      row, with an optional trailing penalty column
    igw:<path>        CSV of row-major flattened n x d matrices A; each entry
                      maps x -> A^T x with penalty 8 ||A||_F^2

Costs: "sq-euclidean" | "power:<p>" | "inner:<scale>".
"""

from __future__ import annotations

import numpy as np

from wassalign.measures import (
    CostSpec,
    FamilyEntry,
    TransformFamily,
    igw_family,
    rotation_grid,
)

__all__ = [
    "read_points_csv",
    "write_matrix_csv",
    "parse_family",
    "parse_cost",
    "write_scatter_svg",
]


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_points_csv(path: str):
    """Load a point cloud; returns (points (n, d), weights or None)."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is no header
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = None
    first = [t.strip() for t in lines[0].split(",")]
    if not all(_is_number(t) for t in first):
        header = first
        lines = lines[1:]
        if not lines:
            raise ValueError(f"{path}: header but no data rows")
    rows = []
    for ln_no, ln in enumerate(lines, start=2 if header else 1):
        toks = [t.strip() for t in ln.split(",")]
        try:
            rows.append([float(t) for t in toks])
        except ValueError as exc:
            raise ValueError(f"{path}:{ln_no}: non-numeric value ({exc})") from None
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    data = np.array(rows)
    weights = None
    if header is not None and header[-1].lower() == "weight":
        weights = data[:, -1]
        data = data[:, :-1]
    if data.shape[1] == 0:
        raise ValueError(f"{path}: no coordinate columns")
    return data, weights


def write_matrix_csv(path: str, values: np.ndarray, header=None) -> None:
    head = ",".join(header or ())
    np.savetxt(path, np.atleast_2d(values), fmt="%.17g", delimiter=",", header=head, comments="")


def parse_family(spec: str, source_dim: int, target_dim: int) -> TransformFamily:
    """Build a transform family from a spec string.

    source_dim/target_dim come from the loaded measures and fix the matrix
    shapes for the flattened-CSV forms.
    """
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise ValueError(f"family spec {spec!r} needs the form kind:argument")
    if kind == "rotations2d":
        l = int(arg)
        if source_dim != 2 or target_dim != 2:
            raise ValueError("rotations2d requires 2-d source and target measures")
        return rotation_grid(l)
    if kind == "matrices":
        rows, _ = read_points_csv(arg)
        d, n = target_dim, source_dim
        entries = []
        for idx, row in enumerate(rows):
            if row.size == d * n + 1:
                penalty = float(row[-1])
                row = row[:-1]
            elif row.size == d * n:
                penalty = 0.0
            else:
                raise ValueError(
                    f"{arg}: row {idx} has {row.size} values, expected {d * n} "
                    f"(flattened {d}x{n}) or {d * n + 1} (with penalty)"
                )
            entries.append(
                FamilyEntry(f"map_{idx}", row.reshape(d, n), np.zeros(d), penalty)
            )
        return TransformFamily(tuple(entries))
    if kind == "igw":
        rows, _ = read_points_csv(arg)
        n, d = source_dim, target_dim
        mats = []
        for idx, row in enumerate(rows):
            if row.size != n * d:
                raise ValueError(
                    f"{arg}: row {idx} has {row.size} values, expected {n * d} "
                    f"(flattened {n}x{d})"
                )
            mats.append(row.reshape(n, d))
        return igw_family(mats)
    raise ValueError(f"unknown family kind {kind!r}")


def parse_cost(spec: str) -> CostSpec:
    if spec == "sq-euclidean":
        return CostSpec.squared_euclidean()
    kind, sep, arg = spec.partition(":")
    if kind == "power" and sep:
        return CostSpec.power(float(arg))
    if kind == "inner" and sep:
        return CostSpec.inner(float(arg))
    raise ValueError(f"unknown cost spec {spec!r}")


# ---------------------------------------------------------------------------
# SVG scatter
# ---------------------------------------------------------------------------

SVG_SIZE = 800
SVG_MARGIN = 0.05


def write_scatter_svg(path: str, hollow: np.ndarray, filled: np.ndarray) -> None:
    """Scatter plot: hollow circles for the target cloud, filled for the
    aligned pushforward.  Fixed 800x800 viewport, data fitted with 5% margin.
    """
    hollow = np.atleast_2d(hollow)
    filled = np.atleast_2d(filled)
    pts = np.vstack([p for p in (hollow, filled) if p.size])
    if pts.shape[1] == 1:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
        hollow = np.column_stack([hollow[:, 0], np.zeros(len(hollow))]) if hollow.size else hollow
        filled = np.column_stack([filled[:, 0], np.zeros(len(filled))]) if filled.size else filled
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo = lo - SVG_MARGIN * span
    hi = hi + SVG_MARGIN * span
    scale = SVG_SIZE / np.max(hi - lo)

    def to_px(p):
        x = (p[0] - lo[0]) * scale
        y = SVG_SIZE - (p[1] - lo[1]) * scale  # svg y grows downward
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    for p in hollow:
        x, y = to_px(p)
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" '
            f'stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for p in filled:
        x, y = to_px(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#d62728"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
