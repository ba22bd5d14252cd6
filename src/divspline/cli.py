"""Command-line driver: configuration parsing, case dispatch, result files.

Every command writes a run manifest (the resolved configuration plus
underscore-prefixed metadata), one or more CSV tables with fixed headers and
17-significant-digit floats, and a legacy-VTK structured-points dump of the
final velocity, pressure, and pointwise-divergence fields on a grid with four
sample points per element per direction.  Reruns of the same configuration
produce byte-identical CSV and VTK files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bspline import MAX_GAUSS_POINTS, collocation_matrix
from .cases import (
    error_quad_points,
    run_cavity,
    run_convergence_study,
    run_pressure_robustness,
    run_reynolds_robustness,
    run_taylor_green_2d,
    streamfunction,
    unit_square_pair,
)
from .forms import StabParams, convection_quad_points
from .solver import TimeConfig
from .space import DivConformingPair, StateVector, TensorSpace, divergence_coefficients

COMMANDS = (
    "convergence",
    "robustness",
    "pressure-robustness",
    "cavity",
    "taylor-green-2d",
)

_COMMAND_DEFAULTS = {
    "convergence": {"mesh": (4, 8, 16, 32), "re": (10.0,)},
    "robustness": {"mesh": (16,), "re": (1.0, 10.0, 100.0, 1000.0)},
    "pressure-robustness": {"mesh": (16,), "re": (10.0,)},
    "cavity": {"mesh": (16,), "re": (7500.0,)},
    "taylor-green-2d": {"mesh": (32,), "re": (100.0,)},
}

_KEY_ALIASES = {
    "k_prime": "kPrime",
    "meshResolution": "mesh",
    "mesh_resolution": "mesh",
    "c_nit": "cNit",
    "t_end": "tEnd",
    "rho_inf": "rhoInf",
    "outputDir": "out",
    "output_dir": "out",
}

_KNOWN_KEYS = {
    "command",
    "kPrime",
    "mesh",
    "re",
    "delta",
    "gamma",
    "cNit",
    "dt",
    "tEnd",
    "rhoInf",
    "out",
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class CaseConfig:
    """Fully resolved run configuration.

    gamma and c_nit are always explicit here: parsing fills in the
    StabParams.create defaults unless overridden, so a config round-trips
    through the run manifest unchanged.
    """

    command: str
    k_prime: int
    mesh: tuple[int, ...]
    re: tuple[float, ...]
    gamma: float
    c_nit: float
    dt: float
    t_end: float
    rho_inf: float
    out: str


def _load_source(source) -> dict:
    if source is None:
        return {}
    if isinstance(source, dict):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file '{path}': {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file '{path}' is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file '{path}' must hold one JSON object")
    return data


def _as_int(value) -> int:
    out = float(value)
    if out != int(out):
        raise ValueError(value)
    return int(out)


def _finite(value, cast):
    """cast(value) for a finite number; booleans and inf/nan raise ValueError."""
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(value)
    return cast(value)


def _scalar(raw: dict, key: str, cast, kind: str):
    value = raw[key]
    if isinstance(value, (list, tuple, dict)):
        raise ConfigError(f"key '{key}' must be a single {kind}")
    try:
        return _finite(value, cast)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{key}' is not a valid {kind}: {value!r}") from exc


def _number_list(raw: dict, key: str, cast, kind: str) -> tuple:
    value = raw[key]
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        parts = [value]
    if not parts:
        raise ConfigError(f"key '{key}' must list at least one {kind}")
    try:
        return tuple(_finite(p, cast) for p in parts)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{key}' has an invalid {kind}: {value!r}") from exc


def _gauss_points(k_prime: int) -> int:
    """Widest Gauss rule a run at order k' uses: convection's or error_norms'."""
    return max(convection_quad_points(k_prime), error_quad_points(k_prime))


def parse_config(source=None, overrides=None) -> CaseConfig:
    """Resolve a run configuration from a JSON file or dict plus overrides.

    Parameters
    ----------
    source : str | Path | dict | None
        Flat JSON configuration (file path or already-loaded mapping).
    overrides : dict | None
        Flag-style overrides; entries with value None are ignored and the
        rest win over ``source``.

    Returns
    -------
    CaseConfig
        Validated configuration with gamma and cNit resolved.

    Raises
    ------
    ConfigError
        Naming the offending key for unknown keys, type errors, violated
        bounds, a missing or unknown command, a tEnd that is not a whole
        number (at least 2) of dt steps, or when both 'gamma' and 'delta'
        are given (they are mutually exclusive).

    Keys starting with '_' are ignored, so a run manifest parses back into
    the configuration that produced it.  The DIVSPLINE_OUT environment
    variable, when set, overrides the output directory.
    """
    raw: dict = {}
    for layer in (_load_source(source), dict(overrides or {})):
        for key, value in layer.items():
            if isinstance(key, str) and key.startswith("_"):
                continue
            key = _KEY_ALIASES.get(key, key)
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown configuration key '{key}'")
            if value is not None:
                raw[key] = value

    if "gamma" in raw and "delta" in raw:
        raise ConfigError("keys 'gamma' and 'delta' are mutually exclusive")
    if "command" not in raw:
        raise ConfigError("missing required key 'command'")
    command = str(raw["command"])
    if command not in COMMANDS:
        names = ", ".join(COMMANDS)
        raise ConfigError(f"key 'command' must be one of {names}; got '{command}'")

    k_prime = _scalar(raw, "kPrime", _as_int, "integer") if "kPrime" in raw else 1
    if k_prime < 1:
        raise ConfigError("key 'kPrime' must be at least 1")
    if _gauss_points(k_prime) > MAX_GAUSS_POINTS:
        k_max = max(
            k for k in range(1, MAX_GAUSS_POINTS) if _gauss_points(k) <= MAX_GAUSS_POINTS
        )
        raise ConfigError(
            f"key 'kPrime' must be at most {k_max}: kPrime {k_prime} needs "
            f"{_gauss_points(k_prime)} Gauss points per direction, more than "
            f"the {MAX_GAUSS_POINTS} available"
        )

    defaults = _COMMAND_DEFAULTS[command]
    mesh = (
        _number_list(raw, "mesh", _as_int, "integer")
        if "mesh" in raw
        else defaults["mesh"]
    )
    re = _number_list(raw, "re", float, "number") if "re" in raw else defaults["re"]
    if any(n < 1 for n in mesh):
        raise ConfigError("key 'mesh' entries must be positive integers")
    if any(not r > 0 for r in re):
        raise ConfigError("key 're' entries must be positive")
    if command != "convergence" and len(mesh) != 1:
        raise ConfigError(f"command '{command}' takes a single 'mesh' resolution")
    if any(b <= a for a, b in zip(mesh, mesh[1:])):
        raise ConfigError("key 'mesh' entries of a convergence sweep must increase strictly")
    if command != "robustness" and len(re) != 1:
        raise ConfigError(f"command '{command}' takes a single 're' value")

    delta = _scalar(raw, "delta", float, "number") if "delta" in raw else 1.0
    if not delta > 0:
        raise ConfigError("key 'delta' must be positive")
    gamma = _scalar(raw, "gamma", float, "number") if "gamma" in raw else None
    if gamma is not None and gamma < 0:
        raise ConfigError("key 'gamma' must be nonnegative")
    c_nit = _scalar(raw, "cNit", float, "number") if "cNit" in raw else None
    if c_nit is not None and not c_nit > 0:
        raise ConfigError("key 'cNit' must be positive")
    # the viscosity does not enter the derived gamma and c_nit
    stab = StabParams.create(k_prime, nu=1.0, delta=delta, gamma=gamma, c_nit=c_nit)

    dt = _scalar(raw, "dt", float, "number") if "dt" in raw else 1e-2
    if not dt > 0:
        raise ConfigError("key 'dt' must be positive")
    t_end = _scalar(raw, "tEnd", float, "number") if "tEnd" in raw else 1.0
    if not t_end > 0:
        raise ConfigError("key 'tEnd' must be positive")
    try:
        steps = TimeConfig(dt=dt, t_end=t_end).n_steps
    except ValueError:
        steps = 0
    if steps < 2:
        raise ConfigError(
            "keys 'tEnd' and 'dt' must give a whole number of at least 2 time "
            f"steps; got tEnd/dt = {t_end / dt:g}"
        )
    rho_inf = _scalar(raw, "rhoInf", float, "number") if "rhoInf" in raw else 0.5
    if not 0.0 <= rho_inf <= 1.0:
        raise ConfigError("key 'rhoInf' must lie in [0, 1]")

    out = str(raw.get("out", "."))
    env_out = os.environ.get("DIVSPLINE_OUT")
    if env_out:
        out = env_out

    return CaseConfig(
        command=command,
        k_prime=k_prime,
        mesh=tuple(int(n) for n in mesh),
        re=tuple(float(r) for r in re),
        gamma=stab.gamma,
        c_nit=stab.c_nit,
        dt=float(dt),
        t_end=float(t_end),
        rho_inf=float(rho_inf),
        out=out,
    )


def config_dict(config: CaseConfig) -> dict:
    """Canonical JSON mapping of a resolved configuration."""
    return {
        "command": config.command,
        "kPrime": config.k_prime,
        "mesh": list(config.mesh),
        "re": list(config.re),
        "gamma": config.gamma,
        "cNit": config.c_nit,
        "dt": config.dt,
        "tEnd": config.t_end,
        "rhoInf": config.rho_inf,
        "out": config.out,
    }


def write_manifest(path, config: CaseConfig, wall_time: float, extras=None) -> None:
    """Write the run manifest: resolved config plus '_'-prefixed metadata."""
    data = config_dict(config)
    data["_version"] = f"divspline {__version__}"
    data["_wallTimeSeconds"] = wall_time
    for key, value in (extras or {}).items():
        data[f"_{key}"] = value
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# 17 significant digits reproduce every double exactly
_FLOAT = "%.17g"


def _fmt(value) -> str:
    return _FLOAT % float(value)


def _format_rows(values: np.ndarray, row: str) -> str:
    """Every row of a 2-D float array through the %-format `row`, concatenated.

    `row` holds one _FLOAT field per column; the whole block is one
    %-format of one tuple.
    """
    return (row * len(values)) % tuple(np.asarray(values, dtype=float).ravel().tolist())


def write_csv(path, header, rows) -> None:
    """Comma-separated table with 17-significant-digit floats."""
    width = len(header)
    values = np.asarray(list(rows), dtype=float).reshape(-1, width)
    row = ",".join([_FLOAT] * width) + "\n"
    Path(path).write_text(",".join(header) + "\n" + _format_rows(values, row))


def _grid_values(space: TensorSpace, grid: np.ndarray, xs, ys) -> np.ndarray:
    cx = collocation_matrix(space.kv_x, xs)[0]
    cy = collocation_matrix(space.kv_y, ys)[0]
    return cy @ grid @ cx.T


def write_vtk_fields(
    path, pair: DivConformingPair, state: StateVector, title: str, extra_scalars=()
) -> None:
    """Legacy-VTK STRUCTURED_POINTS dump of velocity, pressure, divergence.

    The grid has 4 * elements + 1 sample points per direction.
    extra_scalars lists (name, space, coefficient grid) triples sampled on
    the same grid. Each section is sampled, formatted and written to the
    open file in turn.
    """
    mesh = pair.mesh
    a1, b1, a2, b2 = mesh.domain_extent
    npx = 4 * mesh.nx + 1
    npy = 4 * mesh.ny + 1
    xs = np.linspace(a1, b1, npx)
    ys = np.linspace(a2, b2, npy)
    u1 = _grid_values(pair.vx, pair.component_coeffs(state.u, 0), xs, ys)
    u2 = _grid_values(pair.vy, pair.component_coeffs(state.u, 1), xs, ys)
    q_shape = (pair.q.n_y, pair.q.n_x)
    scalars = [
        ("pressure", pair.q, state.p.reshape(q_shape)),
        ("divergence", pair.q, divergence_coefficients(pair, state.u).reshape(q_shape)),
        *extra_scalars,
    ]
    header = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {npx} {npy} 1",
        f"ORIGIN {_fmt(a1)} {_fmt(a2)} 0",
        f"SPACING {_fmt((b1 - a1) / (npx - 1))} {_fmt((b2 - a2) / (npy - 1))} 1",
        f"POINT_DATA {npx * npy}",
        "VECTORS velocity double",
    ]
    with open(path, "w") as out:
        out.write("\n".join(header) + "\n")
        velocity = np.column_stack([u1.ravel(), u2.ravel()])
        out.write(_format_rows(velocity, f"{_FLOAT} {_FLOAT} 0\n"))
        for name, space, grid in scalars:
            out.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            values = _grid_values(space, grid, xs, ys).reshape(-1, 1)
            out.write(_format_rows(values, _FLOAT + "\n"))


def _run_convergence(config: CaseConfig, out_dir: Path) -> dict:
    rows = run_convergence_study(
        config.k_prime,
        meshes=config.mesh,
        re=config.re[0],
        gamma=config.gamma,
        c_nit=config.c_nit,
    )
    write_csv(
        out_dir / "convergence.csv",
        ("h", "L2", "L2order", "H1", "H1order"),
        [(r.h, r.l2, r.l2_order, r.h1, r.h1_order) for r in rows],
    )
    finest = rows[-1]
    pair = unit_square_pair(finest.n, config.k_prime)
    write_vtk_fields(
        out_dir / "fields.vtk", pair, finest.state, "steady flow, finest mesh"
    )
    return {"divMax": [float(r.div_max) for r in rows]}


def _run_robustness(config: CaseConfig, out_dir: Path) -> dict:
    rows = run_reynolds_robustness(
        config.k_prime,
        n=config.mesh[0],
        re_list=config.re,
        gamma=config.gamma,
        c_nit=config.c_nit,
    )
    write_csv(
        out_dir / "robustness.csv",
        ("Re", "L2", "H1", "divMax"),
        [(r.re, r.l2, r.h1, r.div_max) for r in rows],
    )
    pair = unit_square_pair(config.mesh[0], config.k_prime)
    largest = max(rows, key=lambda row: row.re)
    write_vtk_fields(
        out_dir / "fields.vtk", pair, largest.state, "steady flow, largest Re"
    )
    return {}


def _run_pressure_robustness(config: CaseConfig, out_dir: Path) -> dict:
    result = run_pressure_robustness(
        config.k_prime,
        n=config.mesh[0],
        re=config.re[0],
        gamma=config.gamma,
        c_nit=config.c_nit,
    )
    write_csv(
        out_dir / "pressure_robustness.csv",
        ("L2_base", "L2_perturbed", "absDiff"),
        [(result.l2_base, result.l2_perturbed, result.abs_diff_l2)],
    )
    pair = unit_square_pair(config.mesh[0], config.k_prime)
    write_vtk_fields(
        out_dir / "fields.vtk", pair, result.state_base, "steady flow, base forcing"
    )
    return {
        "relCoeffChange": float(result.rel_coeff_change),
        "h1Base": float(result.h1_base),
        "h1Perturbed": float(result.h1_perturbed),
    }


def _run_cavity(config: CaseConfig, out_dir: Path) -> dict:
    """Cavity outputs; newtonIterations counts the target-Re solve only, and
    ladderIterations / ladderFactorizations give each Reynolds ladder step's
    Newton iterations and streamfunction LUs (the last entry is that solve's).
    """
    result = run_cavity(
        config.k_prime,
        n=config.mesh[0],
        re=config.re[0],
        gamma=config.gamma,
        c_nit=config.c_nit,
    )
    write_csv(
        out_dir / "centerline.csv",
        ("y", "u1", "x", "u2"),
        zip(result.profile_y, result.profile_u1, result.profile_x, result.profile_u2),
    )
    psi_space, psi_coeffs = streamfunction(result.pair, result.state.u)
    write_vtk_fields(
        out_dir / "fields.vtk",
        result.pair,
        result.state,
        "lid-driven cavity",
        extra_scalars=[("streamfunction", psi_space, psi_coeffs)],
    )
    return {
        "residualNorm": float(result.residual_norm),
        "newtonIterations": int(result.iterations),
        "ladderIterations": [step.iterations for step in result.ladder],
        "ladderFactorizations": [step.factorizations for step in result.ladder],
        "jumpEnergy": float(result.j_energy),
        "strainEnergy": float(result.strain_energy),
        "divMax": float(result.div_max),
    }


def _run_taylor_green(config: CaseConfig, out_dir: Path) -> dict:
    """Vortex outputs; newtonIterations has one entry per time step, and
    factorizations / krylovIterations total the run's streamfunction LUs
    and GMRES iterations."""
    result = run_taylor_green_2d(
        config.k_prime,
        n=config.mesh[0],
        re=config.re[0],
        dt=config.dt,
        t_end=config.t_end,
        gamma=config.gamma,
        c_nit=config.c_nit,
        rho_inf=config.rho_inf,
    )
    write_csv(
        out_dir / "diagnostics.csv",
        ("t", "Ek", "eps", "eps_r", "eps_m", "divMax"),
        [
            (r.time, r.e_k, r.eps_total, r.eps_resolved, r.eps_model, r.div_max)
            for r in result.records
        ],
    )
    write_vtk_fields(
        out_dir / "fields.vtk",
        result.pair,
        result.history[-1],
        "decaying vortex, final state",
    )
    return {
        "newtonIterations": result.newton_iterations,
        "factorizations": result.factorizations,
        "krylovIterations": result.krylov_iterations,
    }


_RUNNERS = {
    "convergence": _run_convergence,
    "robustness": _run_robustness,
    "pressure-robustness": _run_pressure_robustness,
    "cavity": _run_cavity,
    "taylor-green-2d": _run_taylor_green,
}


def run(config: CaseConfig) -> Path:
    """Execute one command, writing manifest, CSVs, and VTK fields.

    Returns the output directory.
    """
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    extras = _RUNNERS[config.command](config, out_dir)
    write_manifest(
        out_dir / "manifest.json", config, time.perf_counter() - start, extras
    )
    return out_dir


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divspline",
        description=(
            "Divergence-conforming B-spline flow solver with skeleton-jump "
            "stabilization: convergence, robustness, cavity, and vortex-decay "
            "studies."
        ),
    )
    parser.add_argument("--config", metavar="PATH", help="flat JSON config file")
    parser.add_argument("--command", choices=COMMANDS, help="study to run")
    parser.add_argument("--kprime", type=int, metavar="INT", help="pressure degree k'")
    parser.add_argument(
        "--mesh",
        metavar="INT[,INT...]",
        help="elements per direction; a comma list sweeps meshes (convergence)",
    )
    parser.add_argument(
        "--re",
        metavar="REAL[,REAL...]",
        help="Reynolds number; a comma list sweeps Re (robustness)",
    )
    parser.add_argument(
        "--delta", type=float, metavar="REAL", help="stabilization scale delta"
    )
    parser.add_argument(
        "--gamma",
        type=float,
        metavar="REAL",
        help="stabilization constant gamma (overrides the delta-derived value)",
    )
    parser.add_argument(
        "--cnit", type=float, metavar="REAL", help="Nitsche penalty constant"
    )
    parser.add_argument("--dt", type=float, metavar="REAL", help="time-step size")
    parser.add_argument("--tend", type=float, metavar="REAL", help="final time")
    parser.add_argument(
        "--rho-inf",
        type=float,
        metavar="REAL",
        dest="rho_inf",
        help="generalized-alpha spectral radius at infinity",
    )
    parser.add_argument(
        "--out", metavar="DIR", help="output directory (DIVSPLINE_OUT overrides)"
    )
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = {
        "command": args.command,
        "kPrime": args.kprime,
        "mesh": args.mesh,
        "re": args.re,
        "delta": args.delta,
        "gamma": args.gamma,
        "cNit": args.cnit,
        "dt": args.dt,
        "tEnd": args.tend,
        "rhoInf": args.rho_inf,
        "out": args.out,
    }
    try:
        config = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"divspline: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        out_dir = run(config)
    except Exception as exc:  # noqa: BLE001 - report the failing stage and exit
        print(f"divspline: command '{config.command}' failed: {exc}", file=sys.stderr)
        return 1
    print(f"divspline: wrote {config.command} results to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
