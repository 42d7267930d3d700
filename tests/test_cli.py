import json
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import wassalign.crosscheck
from wassalign.alignment import align, identity_residuals
from wassalign.cli import main
from wassalign.dataio import parse_cost, parse_family, read_points_csv
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


@pytest.mark.parametrize("command", ["align-plane", "align-line", "ot"])
def test_overflowing_costs_are_one_error_line(tmp_path, capsys, command):
    # at 1e160 the squared distances overflow a double: every route refuses
    # the non-finite cost, and the CLI reports it as an input error with no
    # numpy warning on the way
    rng = np.random.default_rng(21)
    mu, nu, maps = tmp_path / "mu.csv", tmp_path / "nu.csv", tmp_path / "maps.csv"
    target_dim = 1 if command == "align-line" else 2
    write_cloud(mu, rng.normal(size=(8, 2)) * 1e160)
    write_cloud(nu, rng.normal(size=(6, target_dim)) * 1e160)
    write_cloud(maps, [(1.0, 0.0), (0.0, 1.0)])
    family = {"align-plane": "rotations2d:4", "align-line": f"matrices:{maps}"}
    if command == "ot":
        argv = ["ot", "--mu", str(mu), "--nu", str(nu), "--out", str(tmp_path / "o")]
    else:
        argv = [
            "align", "--mu", str(mu), "--nu", str(nu),
            "--family", family[command], "--out", str(tmp_path / "r.json"),
        ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert rc == 1
    assert len(errors) == 1 and "non-finite cost" in errors[0]
    assert "Traceback" not in err


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
