"""Command-line surface: align, ot, mixture-demo.

Exit codes: 0 success, 1 input error, 2 solver failure.  The commands
raise; `main` alone maps OSError and ValueError to an `error:` line and
exit code 1, and LpSolverError to a `solver failure:` line and exit code 2.
Diagnostics go to stderr; results land in the files named by --out and
friends, with a short summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from wassalign.alignment import align, identity_residuals
from wassalign.dataio import (
    parse_cost,
    parse_family,
    read_points_csv,
    write_matrix_csv,
    write_scatter_svg,
)
from wassalign.lp import LpSolverError
from wassalign.measures import (
    FamilyEntry,
    TransformFamily,
    new_measure,
    pairwise_cost,
    whiten,
)
from wassalign.normal import mixture_F, mixture_demo
from wassalign.ot import wasserstein

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def _load_measure(path: str):
    points, weights = read_points_csv(path)
    return new_measure(points, weights)


def _report_json(report, timings_ms) -> str:
    k = report.theta_star
    doc = {
        "value": report.value,
        "thetaStar": {"index": k, "label": report.theta_star_label},
        "iCurve": list(report.i_curve),
        "gapCurve": list(report.gap_curve),
        "psi": list(report.dual.psi[:, k]),
        "planNnz": report.plan.nnz,
        "timingsMs": timings_ms,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _apply_penalties(fam: TransformFamily, path: str) -> TransformFamily:
    rows, _ = read_points_csv(path)
    pens = rows.ravel()
    if pens.size != len(fam):
        raise ValueError(
            f"{path}: {pens.size} penalties for a family of {len(fam)} entries"
        )
    entries = tuple(
        FamilyEntry(e.label, e.matrix, e.offset, float(pen))
        for e, pen in zip(fam, pens)
    )
    return TransformFamily(entries)


def cmd_align(args) -> int:
    t_start = time.perf_counter()
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    if args.whiten:
        mu, nu = whiten(mu), whiten(nu)
    fam = parse_family(args.family, mu.dim, nu.dim)
    if args.penalty:
        fam = _apply_penalties(fam, args.penalty)
    cost = parse_cost(args.cost)
    t_loaded = time.perf_counter()

    report = align(mu, nu, fam, cost)
    worst_identity = identity_residuals(report, mu, nu, fam, cost).max()
    t_solved = time.perf_counter()

    timings = {
        "load": 1e3 * (t_loaded - t_start),
        "solve": 1e3 * (t_solved - t_loaded),
        "total": 1e3 * (time.perf_counter() - t_start),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_report_json(report, timings))
    if args.svg:
        pushed = fam[report.theta_star].apply(mu.points)
        write_scatter_svg(args.svg, nu.points, pushed)
    if args.curve:
        rows = np.column_stack(
            [np.arange(len(fam)), report.per_theta, report.gap_curve]
        )
        write_matrix_csv(args.curve, rows, header=["index", "objective", "gap"])
    print(
        f"value={report.value:.12g} thetaStar={report.theta_star} "
        f"({report.theta_star_label}) gap-identity-residual={worst_identity:.2e}"
    )
    return EXIT_OK


def cmd_ot(args) -> int:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    C = pairwise_cost(mu.points, nu.points, parse_cost(args.cost))
    res = wasserstein(mu.weights, nu.weights, C)
    write_matrix_csv(f"{args.out}.plan.csv", res.plan.matrix)
    # long format: one potential per row, phi entries first
    side = np.concatenate([np.zeros(mu.size), np.ones(nu.size)])
    index = np.concatenate([np.arange(mu.size), np.arange(nu.size)])
    vals = np.concatenate([res.potentials.phi, res.potentials.psi])
    write_matrix_csv(
        f"{args.out}.potentials.csv",
        np.column_stack([side, index, vals]),
        header=["side(0=phi;1=psi)", "index", "value"],
    )
    print(f"value={res.value:.12g}")
    return EXIT_OK


def cmd_mixture_demo(args) -> int:
    t_start = time.perf_counter()
    report = mixture_demo(tuple(args.a), args.samples, args.seed, args.grid)
    timings = {"total": 1e3 * (time.perf_counter() - t_start)}
    # after mixture_demo has checked the grid: refused input gets its error line alone
    if args.grid < 8:
        print(
            f"warning: grid of {args.grid} angles is coarse; "
            "the reported angle is only resolved to the grid step",
            file=sys.stderr,
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_report_json(report, timings))
    curve_path = args.curve or f"{args.out}.F.csv"
    grid = np.linspace(-8.0, 8.0, 2001)
    cols = [grid]
    cs = (0.0, 0.5, 1.0, 2.0)
    for c in cs:
        cols.append(np.array([mixture_F(c, float(t)) for t in grid]))
    write_matrix_csv(
        curve_path,
        np.column_stack(cols),
        header=["t"] + [f"F_c{c:g}" for c in cs],
    )
    print(f"value={report.value:.12g} thetaStar={report.theta_star_label}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassalign",
        description="Alignment of discrete measures by exact transport LPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two point clouds over a transform family")
    p_align.add_argument("--mu", required=True, help="source point-cloud CSV")
    p_align.add_argument("--nu", required=True, help="target point-cloud CSV")
    p_align.add_argument("--family", required=True, help="rotations2d:<l> | matrices:<csv> | igw:<csv>")
    p_align.add_argument("--cost", default="sq-euclidean", help="sq-euclidean | power:<p> | inner:<scale>")
    p_align.add_argument("--penalty", help="CSV of per-entry penalties")
    p_align.add_argument("--whiten", action="store_true", help="whiten both measures first")
    p_align.add_argument("--out", required=True, help="report JSON path")
    p_align.add_argument("--svg", help="scatter SVG of the aligned clouds")
    p_align.add_argument("--curve", help="CSV of the per-entry objective curve")
    p_align.set_defaults(fn=cmd_align)

    p_ot = sub.add_parser("ot", help="single transport solve between two clouds")
    p_ot.add_argument("--mu", required=True)
    p_ot.add_argument("--nu", required=True)
    p_ot.add_argument("--cost", default="sq-euclidean")
    p_ot.add_argument("--out", required=True, help="output prefix for plan/potentials CSVs")
    p_ot.set_defaults(fn=cmd_ot)

    p_mix = sub.add_parser("mixture-demo", help="sampled two-component mixture validation")
    p_mix.add_argument("--a", type=float, nargs=2, default=(1.0, 0.0), metavar=("AX", "AY"))
    p_mix.add_argument("--samples", type=int, default=2000)
    p_mix.add_argument("--grid", type=int, default=64)
    p_mix.add_argument("--seed", type=int, default=7)
    p_mix.add_argument("--out", required=True, help="report JSON path")
    p_mix.add_argument("--curve", help="CSV path for the map-displacement curves")
    p_mix.set_defaults(fn=cmd_mixture_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LpSolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
