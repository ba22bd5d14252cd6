"""Correctness checks and accuracy metrics read from a run's output files.

``check(out_dir, config)`` returns the accuracy metrics (``l2_err``,
``h1_err``) and the list of failed checks for the run of ``config``; an
empty list means the run is correct.  Every workload checks that its
manifest parses back into the configuration that produced it.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import exact_taylor_green

DATA = Path(__file__).resolve().parent / "data"

# Frozen criterion-1 errors (tests/test_acceptance.py TABLE_L2/TABLE_H1):
# manufactured solution at Re=10, h = 1/4, 1/8, 1/16, 1/32.
TABLE_MESHES = (4, 8, 16, 32)
TABLE_L2 = {
    1: (4.110e-3, 1.048e-3, 2.629e-4, 6.579e-5),
    2: (3.873e-4, 4.444e-5, 5.396e-6, 6.691e-7),
    3: (3.281e-5, 2.354e-6, 1.586e-7, 1.027e-8),
}
TABLE_H1 = {
    1: (5.546e-2, 2.788e-2, 1.395e-2, 6.978e-3),
    2: (9.237e-3, 2.244e-3, 5.556e-4, 1.385e-4),
    3: (9.096e-4, 1.228e-4, 1.619e-5, 2.085e-6),
}
DIV_TOL = 1e-10
RESIDUAL_TOL = 1e-9


def read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array(rows[1:], dtype=float)
    return {name: values[:, i] for i, name in enumerate(rows[0])}


def read_vtk_velocity(path: Path):
    """(x, y, u1, u2) on the STRUCTURED_POINTS grid, arrays of shape (ny, nx)."""
    lines = path.read_text().splitlines()
    nx, ny, _ = (int(v) for v in lines[4].split()[1:])
    x0, y0, _ = (float(v) for v in lines[5].split()[1:])
    dx, dy, _ = (float(v) for v in lines[6].split()[1:])
    start = lines.index("VECTORS velocity double") + 1
    vel = np.array([ln.split()[:2] for ln in lines[start : start + nx * ny]], dtype=float)
    x = x0 + dx * np.arange(nx)
    y = y0 + dy * np.arange(ny)
    xx, yy = np.meshgrid(x, y)
    return xx, yy, vel[:, 0].reshape(ny, nx), vel[:, 1].reshape(ny, nx)


def _trapz_weights(t: np.ndarray) -> np.ndarray:
    w = np.zeros_like(t)
    dt = np.diff(t)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def grid_errors(x, y, e1, e2) -> tuple[float, float]:
    """Trapezoid L2 norm and central-difference H1 seminorm of a grid field."""
    wx, wy = _trapz_weights(x[0]), _trapz_weights(y[:, 0])
    w = wy[:, None] * wx[None, :]
    l2 = math.sqrt(float(np.sum(w * (e1**2 + e2**2))))
    grads = [np.gradient(e, y[:, 0], x[0]) for e in (e1, e2)]
    h1 = math.sqrt(float(sum(np.sum(w * g**2) for pair in grads for g in pair)))
    return l2, h1


def profile_errors(t, e_a, e_b) -> tuple[float, float]:
    """L2 and H1-seminorm of two 1D error profiles sampled at the same t."""
    w = _trapz_weights(t)
    l2 = math.sqrt(float(np.sum(w * (e_a**2 + e_b**2))))
    da, db = np.gradient(e_a, t), np.gradient(e_b, t)
    h1 = math.sqrt(float(np.sum(w * (da**2 + db**2))))
    return l2, h1


def _convergence(out: Path, manifest: dict, config) -> tuple[dict, list[str]]:
    k = config.k_prime
    table = read_csv(out / "convergence.csv")
    fails = []
    for n, l2, h1 in zip(config.mesh, table["L2"], table["H1"]):
        i = TABLE_MESHES.index(n)
        for name, got, ref in (("L2", l2, TABLE_L2[k][i]), ("H1", h1, TABLE_H1[k][i])):
            if not ref / 1.5 <= got <= ref * 1.5:
                fails.append(f"{name} at n={n} is {got:.4g}, reference {ref:.4g}")
    if not table["L2order"][-1] >= k + 1 - 0.1:
        fails.append(f"L2 order {table['L2order'][-1]:.3f} < {k + 0.9}")
    if not table["H1order"][-1] >= k - 0.1:
        fails.append(f"H1 order {table['H1order'][-1]:.3f} < {k - 0.1}")
    div = manifest.get("_divMax", [])
    if len(div) != len(config.mesh) or not max(div) < DIV_TOL:
        fails.append(f"divMax {div} not below {DIV_TOL}")
    return {"l2_err": float(table["L2"][-1]), "h1_err": float(table["H1"][-1])}, fails


def _cavity(out: Path, manifest: dict, config) -> tuple[dict, list[str]]:
    fails = []
    if not manifest.get("_residualNorm", math.inf) < RESIDUAL_TOL:
        fails.append(f"residualNorm {manifest.get('_residualNorm')} not below {RESIDUAL_TOL}")
    if not manifest.get("_divMax", math.inf) < DIV_TOL:
        fails.append(f"divMax {manifest.get('_divMax')} not below {DIV_TOL}")
    if not manifest.get("_jumpEnergy", 0.0) > 0.0:
        fails.append(f"jumpEnergy {manifest.get('_jumpEnergy')} not positive")
    got = read_csv(out / "centerline.csv")
    ref = read_csv(DATA / "cavity_k1_n48_centerline.csv")
    if not np.array_equal(got["y"], ref["y"]) or not np.array_equal(got["x"], ref["x"]):
        fails.append("centerline samples differ from the reference profile's")
        return {}, fails
    l2, h1 = profile_errors(got["y"], got["u1"] - ref["u1"], got["u2"] - ref["u2"])
    return {"l2_err": l2, "h1_err": h1}, fails


def _taylor_green(out: Path, manifest: dict, config) -> tuple[dict, list[str]]:
    fails = []
    diag = read_csv(out / "diagnostics.csv")
    ek = diag["Ek"]
    if not np.all(np.diff(ek) <= 0.0):
        fails.append("kinetic energy increases")
    u0_rms = math.sqrt(2.0 * ek[0])
    if not np.max(diag["divMax"]) < DIV_TOL * u0_rms:
        fails.append(f"divMax {np.max(diag['divMax']):.3g} not below {DIV_TOL} * |u0|")
    x, y, u1, u2 = read_vtk_velocity(out / "fields.vtk")
    ex1, ex2 = exact_taylor_green(x, y, float(diag["t"][-1]), config.re[0])
    l2, h1 = grid_errors(x, y, u1 - ex1, u2 - ex2)
    return {"l2_err": l2, "h1_err": h1}, fails


_CHECKS = {
    "convergence": _convergence,
    "cavity": _cavity,
    "taylor-green-2d": _taylor_green,
}


def check(out_dir, config) -> tuple[dict, list[str]]:
    """Accuracy metrics and failed checks for one run's output directory."""
    from divspline.cli import parse_config

    out = Path(out_dir)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        metrics, fails = _CHECKS[config.command](out, manifest, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {}, [f"unreadable output: {exc!r}"]
    if parse_config(manifest) != config:
        fails.append("manifest does not parse back into the run configuration")
    return metrics, fails
