"""The three workloads: seeded inputs, one operation each, and the answer checks.

Each workload object generates its inputs from the seed when it is built,
runs operation i with `op(i)`, and checks the recorded answers afterwards
with `check(records)`, which returns one list of failure messages per
operation.  A run attempts whole rounds of `round_size` operations.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _registration(rng, N: int, M: int, l: int, noise: float, scale: float = 1.0):
    """Points in [-1, 1]^2, and M of them rotated by a planted grid angle plus noise.

    The planted index lies in [l/4, 3l/4], at least a quarter turn from entry 0.
    """
    x = rng.uniform(-1.0, 1.0, size=(N, 2))
    k = int(rng.integers(l // 4, 3 * l // 4 + 1))
    subset = np.sort(rng.choice(N, size=M, replace=False))
    z = x[subset] @ ref.rotation(ref.grid_angles(l)[k]).T + rng.normal(scale=noise, size=(M, 2))
    return {"x": x * scale, "z": z * scale}


class AlignLp:
    """Library align() on small rotation registrations: the joint dual LP route."""

    name = "align_lp"
    in_process = True
    N, M, L = 14, 10, 10
    POOL = 48
    # one instance in four: a fixed instance (not seeded) with coordinates scaled by 1e-4
    round_size = 4
    FAULT_SCALE = 1e-4
    FAULT_SEED = 20250307

    def __init__(self, seed: int, workdir: str, tracer=None):
        import wassalign

        self.wa = wassalign
        rng = np.random.default_rng([seed, 1])
        self.pool = [_registration(rng, self.N, self.M, self.L, 0.05) for _ in range(self.POOL)]
        self.warm = _registration(rng, self.N, self.M, self.L, 0.05)
        self.scaled = _registration(
            np.random.default_rng(self.FAULT_SEED), self.N, self.M, self.L, 0.05, self.FAULT_SCALE
        )
        self.family = wassalign.rotation_grid(self.L)
        self.cost = wassalign.CostSpec.squared_euclidean()
        self._refs: dict = {}

    def _instance(self, i: int):
        rnd, pos = divmod(i, self.round_size)
        if pos == self.round_size - 1:
            return "scaled", self.scaled
        j = (rnd * (self.round_size - 1) + pos) % self.POOL
        return j, self.pool[j]

    def expect_fault(self, i: int) -> bool:
        return self._instance(i)[0] == "scaled"

    def _align(self, inst):
        wa = self.wa
        return wa.align(wa.new_measure(inst["x"]), wa.new_measure(inst["z"]), self.family, self.cost)

    def warm_up(self) -> None:
        self._align(self.warm)

    def op(self, i: int) -> dict:
        key, inst = self._instance(i)
        rep = self._align(inst)
        return {"key": key, "value": rep.value, "theta_star": rep.theta_star,
                "per_theta": rep.per_theta, "xi": rep.dual.xi, "psi": rep.dual.psi}

    def check(self, records: list) -> list:
        p, q = _uniform(self.N), _uniform(self.M)
        out = []
        for rec in records:
            if "error" in rec:
                out.append([rec["error"]])
                continue
            key = rec["key"]
            if key not in self._refs:
                inst = self.scaled if key == "scaled" else self.pool[key]
                costs = ref.rotation_costs(inst["x"], inst["z"], self.L)
                self._refs[key] = (costs, ref.rotation_values(costs, p, q))
            costs, values = self._refs[key]
            errors = ref.check_optimum(rec["value"], rec["theta_star"], values)
            errors += ref.check_per_entry(rec["per_theta"], values)
            errors += ref.check_dual(rec["xi"], rec["psi"], rec["value"], ref.dense_row_min(costs),
                                     float(costs.max()), p, q)
            out.append(errors)
        return out


def butterfly(n: int) -> np.ndarray:
    """n points on the butterfly curve r(t) = exp(cos t) - 2 cos 4t: a mirror axis, no rotational symmetry."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = np.exp(np.cos(t)) - 2.0 * np.cos(4.0 * t)
    return np.column_stack([np.sin(t) * r, np.cos(t) * r])


def _write_csv(path: str, points: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in points:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


class CliRegister:
    """`wassalign align --svg --curve` as a fresh process: the per-entry certificate route."""

    name = "cli_register"
    in_process = False
    N, M, L = 40, 25, 128
    POOL = 4
    round_size = 1
    REPORT_KEYS = {"value", "thetaStar", "iCurve", "gapCurve", "psi", "planNnz", "timingsMs"}

    def __init__(self, seed: int, workdir: str, tracer=None):
        self.workdir = workdir
        self.trace = tracer is not None
        rng = np.random.default_rng([seed, 2])
        self.x = butterfly(self.N)
        _write_csv(os.path.join(workdir, "mu.csv"), self.x)
        self.targets = []
        # one point from the middle of each of M equal arcs of the curve; the seed plants the
        # rotation, so every target poses the same per-entry LPs in another order
        subset = ((np.arange(self.M) + 0.5) * self.N / self.M).astype(int)
        for s in range(self.POOL):
            k = int(rng.integers(self.L))
            z = self.x[subset] @ ref.rotation(ref.grid_angles(self.L)[k]).T
            _write_csv(os.path.join(workdir, f"nu{s}.csv"), z)
            self.targets.append({"z": z, "planted": k})
        _write_csv(os.path.join(workdir, "warm_mu.csv"), self.x[::5])
        _write_csv(os.path.join(workdir, "warm_nu.csv"), self.x[1::8])
        self._refs: dict = {}

    def _run_cli(self, tag: str, mu: str, nu: str, family: str) -> dict:
        stem = os.path.join(self.workdir, tag)
        args = ["align", "--mu", mu, "--nu", nu, "--family", family, "--out", stem + ".json",
                "--svg", stem + ".svg", "--curve", stem + ".csv"]
        if self.trace:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), stem + ".spans.json"] + args
        else:
            cmd = [sys.executable, "-m", "wassalign.cli"] + args
        with open(stem + ".log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"stem": stem, "rc": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024.0}

    def expect_fault(self, i: int) -> bool:
        return False

    def warm_up(self) -> None:
        wd = self.workdir
        rec = self._run_cli("warm", os.path.join(wd, "warm_mu.csv"), os.path.join(wd, "warm_nu.csv"), "rotations2d:4")
        if rec["rc"] != 0:
            raise RuntimeError(f"warm-up CLI call exited with {rec['rc']}")

    def op(self, i: int) -> dict:
        s = i % self.POOL
        rec = self._run_cli(f"op{i}", os.path.join(self.workdir, "mu.csv"),
                            os.path.join(self.workdir, f"nu{s}.csv"), f"rotations2d:{self.L}")
        rec["target"] = s
        return rec

    def spans_of(self, rec: dict) -> list:
        with open(rec["stem"] + ".spans.json", encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, records: list) -> list:
        p, q = _uniform(self.N), _uniform(self.M)
        angles = ref.grid_angles(self.L)
        out = []
        for rec in records:
            if "error" in rec:
                out.append([rec["error"]])
                continue
            if rec["rc"] != 0:
                out.append([f"CLI exited with {rec['rc']}"])
                continue
            s = rec["target"]
            if s not in self._refs:
                costs = ref.rotation_costs(self.x, self.targets[s]["z"], self.L)
                self._refs[s] = (costs, ref.rotation_values(costs, p, q))
            costs, values = self._refs[s]
            stem = rec["stem"]
            with open(stem + ".json", encoding="utf-8") as fh:
                doc = json.load(fh)
            missing = self.REPORT_KEYS - set(doc)
            if missing or set(doc["thetaStar"]) != {"index", "label"}:
                out.append([f"report lacks fixed keys {sorted(missing)}"])
                continue
            k = int(doc["thetaStar"]["index"])
            errors = ref.check_optimum(doc["value"], k, values)
            curve = np.loadtxt(stem + ".csv", delimiter=",", skiprows=1, ndmin=2)
            errors += ref.check_per_entry(curve[:, 1], values)
            errors += ref.check_per_entry(np.asarray(doc["gapCurve"]) + doc["value"], values)
            errors += ref.check_psi_certificate(doc["psi"], doc["value"], costs[:, :, k], p, q)
            planted = angles[self.targets[s]["planted"]]
            if ref.angle_distance(angles[k], planted) > 2.0 * np.pi / self.L + 1e-12:
                errors.append(f"planted rotation {planted:.4f} recovered as entry {k}")
            circles = [e for e in ET.parse(stem + ".svg").getroot().iter() if e.tag.endswith("circle")]
            if len(circles) != self.N + self.M:
                errors.append(f"SVG holds {len(circles)} circles, not {self.N + self.M}")
            if not 1 <= int(doc["planNnz"]) <= self.N + self.M - 1:
                errors.append(f"planNnz {doc['planNnz']} is not that of a vertex plan")
            out.append(errors)
        return out


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# half-width of the seeded jitter inside a quantile stratum, in strata
JITTER = 0.25
TIE_ABS = 1e-7


def _mixture_sample(rng, n: int, a):
    """Stratified, antithetic draws of (1/2)N(a, I2) + (1/2)N(-a, I2) and a standardized N(0, 1) sample.

    Each gaussian coordinate takes one value per quantile stratum, jittered
    inside the middle of the stratum; the second coordinate is paired with
    the first through a golden-ratio lattice with a seeded shift.  Every
    mixture point x comes with -x, every target value z with -z.
    """
    from scipy.special import ndtri

    half = n // 2
    i = np.arange(half)

    def strata(order, lo=0.0, width=1.0):
        return ndtri(lo + width * (order + 0.5 + rng.uniform(-JITTER, JITTER, size=half)) / half)

    pairing = np.argsort(np.modf(i * GOLDEN + rng.uniform())[0])
    plus = np.asarray(a, dtype=float)[None, :] + np.column_stack([strata(i), strata(pairing)])
    x = np.vstack([plus, -plus])
    w = strata(i, 0.5, 0.5)
    z = np.concatenate([w, -w])
    return x, (z - z.mean()) / z.std()


def _near_tie(values: np.ndarray) -> bool:
    """Whether an entry that is not a minimizer lies within TIE_ABS of the minimum.

    The library breaks ties within an absolute 1e-7, about 1e-3 of this
    objective (~1e-4), so on such a sample it may report a neighbour of the
    minimizer.  That happens on about 1 sample in 800, so on some seeds only;
    these samples are left out of the pool and the fault is recorded in the README.
    """
    best = ref.argmin_set(values)
    return any(values[k] <= values.min() + TIE_ABS for k in range(values.size) if k not in best)


def _projection_family(wa, l: int):
    entries = []
    for k, theta in enumerate(ref.grid_angles(l)):
        entries.append(wa.FamilyEntry(f"t{k}", np.array([[np.cos(theta), np.sin(theta)]]), np.zeros(1)))
    return wa.TransformFamily(tuple(entries))


class Mixture1d:
    """Library align() on the planar mixture with a 1-d target: the exact quantile route."""

    name = "mixture1d"
    in_process = True
    N, L = 2000, 64
    A = (1.0, 0.0)
    POOL = 8
    round_size = 1

    def __init__(self, seed: int, workdir: str, tracer=None):
        import wassalign

        self.wa = wassalign
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        self.pool, self.refs = [], []
        while len(self.pool) < self.POOL:
            sample = _mixture_sample(rng, self.N, self.A)
            values = ref.projection_values(*sample, self.L)
            if _near_tie(values):
                continue
            self.pool.append(sample)
            self.refs.append(values)
        self.family = _projection_family(wassalign, self.L)
        # warm-up at full sample size on two entries: same arrays, a fraction of the work
        self.warm_family = _projection_family(wassalign, 2)
        self.cost = wassalign.CostSpec.squared_euclidean()

    def _align(self, sample, family):
        wa = self.wa
        x, z = sample
        return wa.align(wa.new_measure(x), wa.new_measure(z[:, None]), family, self.cost)

    def expect_fault(self, i: int) -> bool:
        return False

    def warm_up(self) -> None:
        self._align(self.pool[0], self.warm_family)

    def op(self, i: int) -> dict:
        s = i % self.POOL
        rep = self._align(self.pool[s], self.family)
        # the 2 MB dual goes to a file: kept on the heap until the checks, it fragmented
        # the heap and added about 20 MB to the peak RSS of later operations
        stem = os.path.join(self.workdir, f"dual{i}")
        np.save(stem + "xi.npy", rep.dual.xi)
        np.save(stem + "psi.npy", rep.dual.psi)
        return {"key": s, "value": rep.value, "theta_star": rep.theta_star,
                "per_theta": rep.per_theta, "dual": stem}

    def check(self, records: list) -> list:
        p = q = _uniform(self.N)
        angles = ref.grid_angles(self.L)
        out = []
        for rec in records:
            if "error" in rec:
                out.append([rec["error"]])
                continue
            x, z = self.pool[rec["key"]]
            values = self.refs[rec["key"]]
            errors = ref.check_optimum(rec["value"], rec["theta_star"], values)
            errors += ref.check_per_entry(rec["per_theta"], values)
            xi, psi = np.load(rec["dual"] + "xi.npy"), np.load(rec["dual"] + "psi.npy")
            errors += ref.check_dual(xi, psi, rec["value"], ref.projection_row_min(x, z, self.L),
                                     ref.projection_scale(x, z, self.L), p, q)
            angle = angles[rec["theta_star"]]
            if min(ref.angle_distance(angle, np.pi / 2), ref.angle_distance(angle, 3 * np.pi / 2)) > 2.0 * np.pi / self.L + 1e-12:
                errors.append(f"optimum angle {angle:.4f} is not within a grid step of +-pi/2")
            out.append(errors)
        return out


WORKLOADS = {cls.name: cls for cls in (AlignLp, CliRegister, Mixture1d)}
