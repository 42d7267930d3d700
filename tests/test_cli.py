import dataclasses
import json
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import wassalign.crosscheck
import wassalign.lp
import wassalign.ot
from wassalign.alignment import align, identity_residuals
from wassalign.cli import main
from wassalign.dataio import parse_cost, parse_family, read_points_csv
from wassalign.lp import LpSolverError
from wassalign.measures import new_measure, rotation_grid

REPORT_KEYS = {"value", "thetaStar", "iCurve", "gapCurve", "psi", "planNnz", "timingsMs"}


def write_cloud(path, points, weights=None, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for i, p in enumerate(points):
            row = list(p) + ([weights[i]] if weights is not None else [])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture
def cloud_pair(tmp_path):
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(10, 2))
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, pts)
    write_cloud(nu, pts)
    return mu, nu, pts


def test_align_identical_clouds(tmp_path, cloud_pair, capsys):
    mu, nu, pts = cloud_pair
    out = tmp_path / "report.json"
    svg = tmp_path / "aligned.svg"
    curve = tmp_path / "curve.csv"
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", "rotations2d:8", "--out", str(out),
        "--svg", str(svg), "--curve", str(curve),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc.keys()) == REPORT_KEYS
    assert set(doc["thetaStar"].keys()) == {"index", "label"}
    assert doc["value"] <= 1e-7
    assert doc["thetaStar"]["index"] == 0  # the zero angle reproduces nu
    assert len(doc["iCurve"]) == 8 and len(doc["gapCurve"]) == 8
    assert len(doc["psi"]) == len(pts)
    assert doc["planNnz"] >= len(pts)
    # SVG: well-formed, one marker per support point
    root = ET.parse(svg).getroot()
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 2 * len(pts)
    rows, _ = read_points_csv(str(curve))
    assert rows.shape == (8, 3)
    # stdout certifies every entry's transport value: the largest identity residual
    stdout = capsys.readouterr().out
    printed = float(stdout.split("gap-identity-residual=")[1].split()[0])
    assert printed <= 1e-9
    m, fam, cost = new_measure(pts), rotation_grid(8), parse_cost("sq-euclidean")
    worst = identity_residuals(align(m, m, fam, cost), m, m, fam, cost).max()
    assert f"{printed:.2e}" == f"{worst:.2e}"


def test_align_reports_are_deterministic(tmp_path, cloud_pair):
    mu, nu, _ = cloud_pair
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert main([
            "align", "--mu", str(mu), "--nu", str(nu),
            "--family", "rotations2d:6", "--out", str(out),
        ]) == 0
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    d1.pop("timingsMs"); d2.pop("timingsMs")
    assert d1 == d2


def test_align_with_weights_and_whiten(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(9, 2)) @ np.array([[2.0, 0.3], [0.0, 0.5]])
    w = rng.dirichlet(np.ones(9))
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, pts, weights=w, header=["x", "y", "weight"])
    write_cloud(nu, pts, weights=w, header=["x", "y", "weight"])
    out = tmp_path / "r.json"
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu), "--whiten",
        "--family", "rotations2d:4", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["value"] <= 1e-7


def test_align_missing_input(tmp_path, capsys):
    rc = main([
        "align", "--mu", str(tmp_path / "absent.csv"), "--nu", str(tmp_path / "absent.csv"),
        "--family", "rotations2d:4", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err


def test_align_nan_weight_is_an_input_error(tmp_path, capsys):
    pts = np.random.default_rng(9).normal(size=(4, 2))
    mu = tmp_path / "mu.csv"
    write_cloud(mu, pts, weights=[np.nan, 0.5, 0.25, 0.25], header=["x", "y", "weight"])
    rc = main([
        "align", "--mu", str(mu), "--nu", str(mu),
        "--family", "rotations2d:4", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "probability vector" in err
    assert not (tmp_path / "r.json").exists()


def test_align_bad_family_spec(tmp_path, cloud_pair, capsys):
    mu, nu, _ = cloud_pair
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", "spins:9", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 1
    assert "family" in capsys.readouterr().err


OVERFLOW_MESSAGES = {
    "align-plane": "non-finite cost",
    "align-line": "non-finite cost",
    "ot": "non-finite cost",
    "align-plane-image": "map_0: non-finite image",
    "align-line-image": "map_0: non-finite image",
}


@pytest.mark.parametrize("command, message", OVERFLOW_MESSAGES.items(), ids=list(OVERFLOW_MESSAGES))
def test_overflowing_costs_are_one_error_line(tmp_path, capsys, command, message):
    # at 1e160 the squared distances overflow a double, and near 1e308 the
    # image x -> M x does: every route refuses the non-finite cost or image,
    # and the CLI reports it as an input error with no numpy warning on the way
    rng = np.random.default_rng(21)
    mu, nu, maps = tmp_path / "mu.csv", tmp_path / "nu.csv", tmp_path / "maps.csv"
    target_dim = 1 if command.startswith("align-line") else 2
    if command.endswith("-image"):
        write_cloud(mu, [(1e308, 1e308), (-1e308, 5e307), (0.0, 1.0)])
        write_cloud(nu, np.arange(3.0 * target_dim).reshape(3, target_dim))
        # x1 + x2 overflows on the first point, in a line map and in a plane map
        rows = [(1.0, 1.0), (1.0, -1.0)]
        if target_dim == 2:
            rows = [(1.0, 1.0, 1.0, -1.0), (1.0, 0.0, 0.0, 1.0)]  # [[1, 1], [1, -1]] and I
    else:
        write_cloud(mu, rng.normal(size=(8, 2)) * 1e160)
        write_cloud(nu, rng.normal(size=(6, target_dim)) * 1e160)
        rows = [(1.0, 0.0), (0.0, 1.0)]
    write_cloud(maps, rows)
    family = "rotations2d:4" if command == "align-plane" else f"matrices:{maps}"
    if command == "ot":
        argv = ["ot", "--mu", str(mu), "--nu", str(nu), "--out", str(tmp_path / "o")]
    else:
        argv = [
            "align", "--mu", str(mu), "--nu", str(nu),
            "--family", family, "--out", str(tmp_path / "r.json"),
        ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 1
    assert len(errors) == 1 and message in errors[0]
    assert "Traceback" not in err


def _hit_the_iteration_limit(monkeypatch):
    monkeypatch.setattr(wassalign.lp, "MAX_ITERATIONS", 0)


def _perturb_the_lp_duals(monkeypatch):
    # row duals that are no optimal pair: the transport LP's own duality gap fails
    solve = wassalign.ot.solve_lp

    def perturbed(prob, start=None):
        sol = solve(prob, start=start)
        return dataclasses.replace(sol, dual_rows=sol.dual_rows + np.arange(sol.dual_rows.size))

    monkeypatch.setattr(wassalign.ot, "solve_lp", perturbed)


def _fail_the_quantile_certificate(monkeypatch):
    # the windows' row minima less 1 leave a duality gap of 1
    row_min = wassalign.ot._staircase_row_min
    monkeypatch.setattr(wassalign.ot, "_staircase_row_min", lambda *args: row_min(*args) - 1.0)


@pytest.mark.parametrize(
    "target_dim, fail, match",
    [
        pytest.param(2, _hit_the_iteration_limit, "pivots", id="iteration-limit"),
        pytest.param(2, _perturb_the_lp_duals, "duality gap", id="lp-certificate"),
        pytest.param(1, _fail_the_quantile_certificate, "duality gap", id="quantile-certificate"),
    ],
)
def test_solver_failure_is_exit_code_2(tmp_path, capsys, monkeypatch, target_dim, fail, match):
    # a solve that ends without a certified optimum raises LpSolverError in
    # the library; the CLI reports it as one line and exit code 2
    rng = np.random.default_rng(23)
    x, z = rng.normal(size=(10, 2)), rng.normal(size=(8, target_dim))
    mu, nu, maps = tmp_path / "mu.csv", tmp_path / "nu.csv", tmp_path / "maps.csv"
    write_cloud(mu, x)
    write_cloud(nu, z)
    write_cloud(maps, [(1.0, 0.0), (0.0, 1.0)])
    family = "rotations2d:4" if target_dim == 2 else f"matrices:{maps}"
    fail(monkeypatch)
    fam, cost = parse_family(family, 2, target_dim), parse_cost("sq-euclidean")
    with pytest.raises(LpSolverError, match=match):
        align(new_measure(x), new_measure(z), fam, cost)
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", family, "--out", str(tmp_path / "r.json"),
    ])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("solver failure:") and match in lines[0]
    assert not (tmp_path / "r.json").exists()


def test_align_matrix_family_with_penalties(tmp_path):
    rng = np.random.default_rng(5)
    pts2 = rng.normal(size=(6, 2))
    pts1 = rng.normal(size=(5, 1))
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, pts2)
    write_cloud(nu, pts1)
    fam_csv = tmp_path / "maps.csv"
    with open(fam_csv, "w") as fh:
        fh.write("1.0,0.0,0.25\n")  # project to x, penalty 0.25
        fh.write("0.0,1.0,0.0\n")  # project to y
    out = tmp_path / "r.json"
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", f"matrices:{fam_csv}", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["iCurve"]) == 2


def test_align_line_target_takes_the_quantile_route(tmp_path):
    # 300 x 300 x 24 with a 1-d target: the transport LP per entry would run
    # for minutes, the quantile route in well under a second
    rng = np.random.default_rng(6)
    pts2 = rng.normal(size=(300, 2))
    pts1 = rng.normal(size=(300, 1))
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, pts2)
    write_cloud(nu, pts1)
    fam_csv = tmp_path / "maps.csv"
    write_cloud(fam_csv, [(np.cos(t), np.sin(t)) for t in np.linspace(0.0, np.pi, 24)])
    out = tmp_path / "r.json"
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", f"matrices:{fam_csv}", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    fam = parse_family(f"matrices:{fam_csv}", 2, 1)
    report = align(new_measure(pts2), new_measure(pts1), fam, parse_cost("sq-euclidean"))
    assert doc["value"] == report.value
    assert doc["thetaStar"] == {"index": report.theta_star, "label": report.theta_star_label}


def test_align_line_target_forms_no_cost_tensor(tmp_path):
    # 1500 x 1500 x 8 with a 1-d target: the tensor would be 144 MB and one
    # N x M array 18 MB; the quantile route and its certificate hold O(N + M)
    rng = np.random.default_rng(21)
    N = M = 1500
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, rng.normal(size=(N, 2)))
    write_cloud(nu, rng.normal(size=(M, 1)))
    fam_csv = tmp_path / "maps.csv"
    write_cloud(fam_csv, [(np.cos(t), np.sin(t)) for t in np.linspace(0.0, np.pi, 8)])
    tracemalloc.start()
    try:
        rc = main([
            "align", "--mu", str(mu), "--nu", str(nu),
            "--family", f"matrices:{fam_csv}", "--out", str(tmp_path / "r.json"),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < N * M * 8 / 4


def test_align_plane_target_forms_no_cost_tensor(tmp_path, cloud_pair, monkeypatch):
    mu, nu, _ = cloud_pair

    def refuse(self):
        raise AssertionError("the CLI formed a cost tensor")

    monkeypatch.setattr(wassalign.crosscheck.CostTensor, "__post_init__", refuse)
    rc = main([
        "align", "--mu", str(mu), "--nu", str(nu),
        "--family", "rotations2d:6", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 0


def test_ot_command(tmp_path, capsys):
    mu = tmp_path / "mu.csv"
    nu = tmp_path / "nu.csv"
    write_cloud(mu, np.array([[0.0]]))
    write_cloud(nu, np.array([[0.0], [1.0]]))
    prefix = tmp_path / "ot"
    rc = main(["ot", "--mu", str(mu), "--nu", str(nu), "--out", str(prefix)])
    assert rc == 0
    assert "value=0.5" in capsys.readouterr().out
    plan, _ = read_points_csv(str(prefix) + ".plan.csv")
    np.testing.assert_allclose(plan, [[0.5, 0.5]], atol=1e-8)
    np.testing.assert_allclose(plan.sum(axis=1), [1.0], atol=1e-8)
    pots, _ = read_points_csv(str(prefix) + ".potentials.csv")
    assert pots.shape == (3, 3)


@pytest.mark.parametrize(
    "mu_points, nu_points, scale",
    [
        # potentials of up to 1e308 that fit as the tree gives them
        pytest.param([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)], -1e308, id="fits"),
        # phi_0 = -5.1e308 and psi_1 = 0 on the optimal tree: no shift fits both
        pytest.param([(1, 0), (0, 1)], [(1, -1), (1, 1)], -1.7e308, id="no-shift-fits"),
    ],
)
def test_ot_near_the_largest_double_gives_finite_potentials_or_one_error(
    tmp_path, capsys, mu_points, nu_points, scale
):
    mu, nu, prefix = tmp_path / "mu.csv", tmp_path / "nu.csv", tmp_path / "o"
    write_cloud(mu, mu_points)
    write_cloud(nu, nu_points)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["ot", "--mu", str(mu), "--nu", str(nu), "--cost", f"inner:{scale}", "--out", str(prefix)])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    if rc == 0:
        pots, _ = read_points_csv(str(prefix) + ".potentials.csv")
        assert np.all(np.isfinite(pots))
    else:
        lines = err.splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error:") and "largest double" in lines[0]


def test_mixture_demo_refused_grid_is_one_error_line(tmp_path, capsys):
    # the grid is checked before the coarse-grid warning is printed
    rc = main(["mixture-demo", "--samples", "200", "--grid", "0", "--out", str(tmp_path / "m.json")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error:") and "grid" in lines[0]


def test_mixture_demo_command(tmp_path, capsys):
    out = tmp_path / "mix.json"
    curve = tmp_path / "F.csv"
    rc = main([
        "mixture-demo", "--a", "1.0", "0.0", "--samples", "300",
        "--grid", "4", "--seed", "5", "--out", str(out), "--curve", str(curve),
    ])
    assert rc == 0
    assert "coarse" in capsys.readouterr().err  # grid-resolution warning
    doc = json.loads(out.read_text())
    assert set(doc.keys()) == REPORT_KEYS
    data, header = read_points_csv(str(curve))
    assert data.shape == (2001, 5)
    # the zero-separation displacement curve is identically zero
    assert np.max(np.abs(data[:, 1])) <= 1e-9


def test_parse_cost_specs():
    assert parse_cost("sq-euclidean").kind == "sq-euclidean"
    assert parse_cost("power:1.5").p == 1.5
    assert parse_cost("inner:-8").scale == -8.0
    with pytest.raises(ValueError):
        parse_cost("manhattan")


def test_parse_family_igw(tmp_path):
    path = tmp_path / "igw.csv"
    with open(path, "w") as fh:
        fh.write("1.0,0.0\n")  # 2x1 matrix e1
    fam = parse_family(f"igw:{path}", 2, 1)
    assert fam[0].penalty == pytest.approx(8.0)
    assert fam[0].matrix.shape == (1, 2)
