"""Configuration parsing, command dispatch, and output-file contracts."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from divspline.cases import (
    run_convergence_study,
    run_reynolds_robustness,
    streamfunction,
    unit_square_pair,
)
from divspline.cli import (
    CaseConfig,
    ConfigError,
    _format_rows,
    _grid_values,
    main,
    parse_config,
    run,
    write_csv,
    write_manifest,
    write_vtk_fields,
)
from divspline.space import StateVector, divergence_coefficients
from util_fields import curl_state


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("DIVSPLINE_OUT", raising=False)


def test_defaults_and_derived_gamma():
    config = parse_config({"command": "convergence", "kPrime": 1})
    assert config.gamma == pytest.approx(1e-2)
    assert config.c_nit == pytest.approx(10.0)
    assert config.mesh == (4, 8, 16, 32)
    assert config.re == (10.0,)


def test_derived_gamma_scales_with_degree_and_delta():
    config = parse_config({"command": "convergence", "kPrime": 3, "delta": 1})
    assert config.gamma == pytest.approx(1e-4)
    config = parse_config({"command": "convergence", "kPrime": 2, "delta": 3.0})
    assert config.gamma == pytest.approx(3e-3)


def test_gamma_zero_accepted():
    config = parse_config({"command": "cavity", "gamma": 0})
    assert config.gamma == 0.0
    assert config.mesh == (16,) and config.re == (7500.0,)


def test_unknown_key_named():
    with pytest.raises(ConfigError, match="fooBar"):
        parse_config({"command": "cavity", "fooBar": 3})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"command": "cavity", "seed": 7})
    with pytest.raises(ConfigError, match="threads"):
        parse_config({"command": "cavity", "threads": 2})


def test_gamma_delta_mutually_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config({"command": "cavity", "gamma": 1e-2, "delta": 1.0})
    # also across sources: file gives delta, flag gives gamma
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config({"command": "cavity", "delta": 1.0}, {"gamma": 1e-2})


def test_command_required_and_validated():
    with pytest.raises(ConfigError, match="command"):
        parse_config({"kPrime": 1})
    with pytest.raises(ConfigError, match="stokes"):
        parse_config({"command": "stokes"})


def test_type_and_bound_errors_name_the_key():
    with pytest.raises(ConfigError, match="'kPrime'"):
        parse_config({"command": "cavity", "kPrime": 1.5})
    with pytest.raises(ConfigError, match="'mesh'"):
        parse_config({"command": "cavity", "mesh": "a,b"})
    with pytest.raises(ConfigError, match="'re'"):
        parse_config({"command": "cavity", "re": -5})
    with pytest.raises(ConfigError, match="'rhoInf'"):
        parse_config({"command": "taylor-green-2d", "rhoInf": 1.5})
    with pytest.raises(ConfigError, match="'dt'"):
        parse_config({"command": "taylor-green-2d", "dt": 0})
    # non-finite numbers and booleans are not numbers here
    with pytest.raises(ConfigError, match="'gamma'"):
        parse_config({"command": "cavity", "gamma": "nan"})
    with pytest.raises(ConfigError, match="'gamma'"):
        parse_config({"command": "cavity", "gamma": math.inf})
    with pytest.raises(ConfigError, match="'delta'"):
        parse_config({"command": "cavity", "delta": math.inf})
    with pytest.raises(ConfigError, match="'tEnd'"):
        parse_config({"command": "taylor-green-2d", "tEnd": math.inf})
    with pytest.raises(ConfigError, match="'re'"):
        parse_config({"command": "cavity", "re": math.inf})
    with pytest.raises(ConfigError, match="'re'"):
        parse_config({"command": "robustness", "re": "1,nan"})
    with pytest.raises(ConfigError, match="'kPrime'"):
        parse_config({"command": "cavity", "kPrime": True})
    with pytest.raises(ConfigError, match="'kPrime'"):
        parse_config({"command": "cavity", "kPrime": "inf"})
    with pytest.raises(ConfigError, match="'mesh'"):
        parse_config({"command": "convergence", "mesh": [True, 8]})
    with pytest.raises(ConfigError, match="'cNit'"):
        parse_config({"command": "cavity", "cNit": True})
    # tEnd must be a whole number of dt steps, and at least 2 of them
    with pytest.raises(ConfigError, match="'tEnd' and 'dt'"):
        parse_config({"command": "taylor-green-2d", "dt": 0.01, "tEnd": 0.015})
    with pytest.raises(ConfigError, match="'tEnd' and 'dt'"):
        parse_config({"command": "taylor-green-2d", "dt": 0.01, "tEnd": 0.01})
    with pytest.raises(ConfigError, match="'tEnd' and 'dt'"):
        parse_config({"command": "taylor-green-2d", "dt": 1e-300, "tEnd": 1e300})


# 0.3 / 0.1 evaluates to 2.9999999999999996
@pytest.mark.parametrize(
    "t_end, dt, steps",
    [(0.05, 0.01, 5), (0.1, 0.01, 10), (0.3, 0.1, 3), (2.0, 0.01, 200)],
)
def test_whole_step_horizons_parse(t_end, dt, steps):
    config = parse_config({"command": "taylor-green-2d", "dt": dt, "tEnd": t_end})
    assert (config.t_end, config.dt) == (t_end, dt)
    assert round(config.t_end / config.dt) == steps


def test_sweeps_only_where_meaningful():
    with pytest.raises(ConfigError, match="single 'mesh'"):
        parse_config({"command": "cavity", "mesh": [8, 16]})
    with pytest.raises(ConfigError, match="single 're'"):
        parse_config({"command": "convergence", "re": [1, 10]})
    config = parse_config({"command": "robustness", "re": [1, 10, 100]})
    assert config.re == (1.0, 10.0, 100.0)


def test_aliases_and_comma_lists():
    config = parse_config(
        {
            "command": "convergence",
            "k_prime": 2,
            "meshResolution": "4,8",
            "t_end": 2.0,
            "c_nit": 12.0,
        }
    )
    assert config.k_prime == 2
    assert config.mesh == (4, 8)
    assert config.t_end == 2.0
    assert config.c_nit == 12.0


def test_overrides_win_over_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "convergence", "kPrime": 1, "dt": 0.5}))
    config = parse_config(path, {"kPrime": 2, "out": str(tmp_path)})
    assert config.k_prime == 2
    assert config.gamma == pytest.approx(1e-3)  # derived from the overriding degree
    assert config.dt == 0.5
    assert config.out == str(tmp_path)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)


def test_env_var_overrides_out(monkeypatch, tmp_path):
    monkeypatch.setenv("DIVSPLINE_OUT", str(tmp_path / "envdir"))
    config = parse_config({"command": "cavity", "out": "elsewhere"})
    assert config.out == str(tmp_path / "envdir")


def test_manifest_round_trips(tmp_path):
    config = parse_config(
        {"command": "robustness", "kPrime": 2, "mesh": 8, "re": [1, 10],
         "delta": 2.0, "out": str(tmp_path)}
    )
    path = tmp_path / "manifest.json"
    write_manifest(path, config, 1.23, {"note": [1.0, 2.0]})
    data = json.loads(path.read_text())
    assert data["_version"].startswith("divspline ")
    assert parse_config(path) == config


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_convergence_command_outputs(tmp_path):
    out1 = tmp_path / "a"
    assert main(["--command", "convergence", "--kprime", "1", "--mesh", "4,8",
                 "--out", str(out1)]) == 0
    header, rows = _read_csv(out1 / "convergence.csv")
    assert header == ["h", "L2", "L2order", "H1", "H1order"]
    assert len(rows) == 2
    assert rows[0][0] == 0.25 and rows[1][0] == 0.125
    assert math.isnan(rows[0][2]) and math.isnan(rows[0][4])
    assert rows[1][2] > 1.5  # L2 order from the second row on
    assert rows[1][4] > 0.8
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "convergence"
    assert max(manifest["_divMax"]) < 1e-12
    # the table is the driver's own rows, orders included
    study = run_convergence_study(1, meshes=(4, 8))
    expect = [(r.h, r.l2, r.l2_order, r.h1, r.h1_order) for r in study]
    np.testing.assert_array_equal(np.array(rows), np.array(expect))

    # a rerun is byte-identical
    out2 = tmp_path / "b"
    assert main(["--command", "convergence", "--kprime", "1", "--mesh", "4,8",
                 "--out", str(out2)]) == 0
    assert (out1 / "convergence.csv").read_bytes() == (out2 / "convergence.csv").read_bytes()
    assert (out1 / "fields.vtk").read_bytes() == (out2 / "fields.vtk").read_bytes()


def test_robustness_command_outputs(tmp_path):
    assert main(["--command", "robustness", "--kprime", "1", "--mesh", "4",
                 "--re", "1,10,100", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "robustness.csv")
    assert header == ["Re", "L2", "H1", "divMax"]
    sweep = run_reynolds_robustness(1, n=4, re_list=(1.0, 10.0, 100.0))
    assert rows == [[r.re, r.l2, r.h1, r.div_max] for r in sweep]


def test_robustness_field_is_the_largest_re(tmp_path):
    # the sweep lists Re=1 last; fields.vtk holds the Re=1000 state
    swept, single = tmp_path / "swept", tmp_path / "single"
    for out, re in ((swept, "1000,1"), (single, "1000")):
        assert main(["--command", "robustness", "--kprime", "1", "--mesh", "4",
                     "--re", re, "--out", str(out)]) == 0
    assert (swept / "fields.vtk").read_bytes() == (single / "fields.vtk").read_bytes()


def test_convergence_four_row_sweep(tmp_path):
    assert main(["--command", "convergence", "--kprime", "1", "--mesh", "2,4,8,16",
                 "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 4
    assert math.isnan(rows[0][2]) and math.isnan(rows[0][4])
    for row in rows[1:]:  # orders populated from the second row on
        assert not math.isnan(row[2]) and not math.isnan(row[4])


def test_convergence_orders_use_the_mesh_ratio(tmp_path):
    # 4, 6, 8 is not a doubling list: the orders divide by log2(n / n_prev),
    # so they read the k' = 1 rates (about 2 in L2, 1 in H1), not 1.09 and 0.78
    assert main(["--command", "convergence", "--kprime", "1", "--mesh", "4,6,8",
                 "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "convergence.csv")
    (_, l2a, _, h1a, _), (_, l2b, order_b, h1b, h1_order_b), (_, l2c, order_c, h1c, _) = rows
    assert order_b == pytest.approx(math.log(l2a / l2b) / math.log(6 / 4), rel=1e-12)
    assert order_c == pytest.approx(math.log(l2b / l2c) / math.log(8 / 6), rel=1e-12)
    assert h1_order_b == pytest.approx(math.log(h1a / h1b) / math.log(6 / 4), rel=1e-12)
    assert 1.8 < order_b < order_c < 2.0
    assert 0.9 < h1_order_b < 1.0


def test_convergence_meshes_must_increase(tmp_path):
    for mesh in ("8,8", "8,4", "4,8,8"):
        assert main(["--command", "convergence", "--kprime", "1", "--mesh", mesh,
                     "--out", str(tmp_path)]) == 2
        with pytest.raises(ConfigError, match="'mesh'"):
            parse_config({"command": "convergence", "mesh": mesh})
    with pytest.raises(ValueError, match="increase"):
        run_convergence_study(1, meshes=(8, 8))


def test_pressure_robustness_default_mesh(tmp_path):
    # defaults: k'=1, 16x16 mesh; the irrotational shift must be invisible
    assert main(["--command", "pressure-robustness", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "pressure_robustness.csv")
    assert rows[0][2] < 1e-9


def test_taylor_green_diagnostics_row_count(tmp_path):
    assert main(["--command", "taylor-green-2d", "--kprime", "1", "--mesh", "8",
                 "--dt", "0.01", "--tend", "1", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "diagnostics.csv")
    assert len(rows) == 101


def test_vtk_structured_points_shape(tmp_path):
    config = parse_config(
        {"command": "cavity", "kPrime": 1, "mesh": 4, "re": 10, "out": str(tmp_path)}
    )
    run(config)
    lines = (tmp_path / "fields.vtk").read_text().strip().split("\n")
    n_pts = (4 * 4 + 1) ** 2
    assert lines[0].startswith("# vtk DataFile")
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 17 17 1"
    assert lines[7] == f"POINT_DATA {n_pts}"
    assert lines[8] == "VECTORS velocity double"
    vec = lines[9 : 9 + n_pts]
    assert all(len(row.split()) == 3 for row in vec)
    names = [line.split()[1] for line in lines if line.startswith("SCALARS")]
    assert names == ["pressure", "divergence", "streamfunction"]
    # header(9) + vectors + 3 scalar blocks of (2 + n_pts) lines
    assert len(lines) == 9 + n_pts + 3 * (2 + n_pts)


def test_cavity_command_outputs(tmp_path):
    assert main(["--command", "cavity", "--kprime", "1", "--mesh", "4",
                 "--re", "10", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "centerline.csv")
    assert header == ["y", "u1", "x", "u2"]
    assert len(rows) == 257
    assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["_residualNorm"] < 1e-8
    assert manifest["_divMax"] < 1e-12
    # Re=10 lies below the whole continuation ladder: one step
    assert manifest["_ladderIterations"] == [manifest["_newtonIterations"]]
    assert len(manifest["_ladderFactorizations"]) == 1


def test_taylor_green_command_outputs(tmp_path):
    assert main(["--command", "taylor-green-2d", "--kprime", "1", "--mesh", "8",
                 "--re", "100", "--dt", "0.02", "--tend", "0.1",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "diagnostics.csv")
    assert header == ["t", "Ek", "eps", "eps_r", "eps_m", "divMax"]
    assert len(rows) == 6  # t = 0, 0.02, ..., 0.1
    t = np.array([r[0] for r in rows])
    assert np.allclose(t, np.arange(6) * 0.02)
    assert math.isnan(rows[0][2]) and math.isnan(rows[-1][2])
    ek = np.array([r[1] for r in rows])
    assert np.all(np.diff(ek) < 0)
    # one Newton iteration count per step; the steps share one lagged LU, and
    # each Newton iteration either factorizes or runs GMRES on the held LU
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    iterations = manifest["_newtonIterations"]
    assert len(iterations) == 5 and min(iterations) >= 1
    assert manifest["_factorizations"] == 1
    assert manifest["_factorizations"] + manifest["_krylovIterations"] >= sum(iterations)


def test_pressure_robustness_command_outputs(tmp_path):
    assert main(["--command", "pressure-robustness", "--kprime", "1", "--mesh", "8",
                 "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "pressure_robustness.csv")
    assert header == ["L2_base", "L2_perturbed", "absDiff"]
    assert len(rows) == 1
    l2_base, l2_pert, diff = rows[0]
    assert diff == pytest.approx(abs(l2_pert - l2_base), abs=1e-18)
    assert diff < 1e-7


def test_csv_floats_are_full_precision(tmp_path):
    out = tmp_path / "run"
    main(["--command", "pressure-robustness", "--kprime", "1", "--mesh", "4",
          "--out", str(out)])
    values = (out / "pressure_robustness.csv").read_text().strip().split("\n")[1].split(",")
    # 17 significant digits reproduce the binary double exactly; %.17g drops
    # trailing zeros, so a value may show fewer, but not every value of a row
    for value in values:
        assert value == format(float(value), ".17g")
    assert max(len(v.replace(".", "").replace("-", "").lstrip("0")) for v in values) >= 16


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e20, -1e-20, 1.0 / 3.0]


def _per_value(values) -> list[str]:
    return [format(float(v), ".17g") for v in np.ravel(values)]


def test_csv_writer_matches_per_value_format(tmp_path):
    rows = np.array(SPECIAL_VALUES * 2).reshape(6, 3)
    write_csv(tmp_path / "t.csv", ("a", "b", "c"), [tuple(r) for r in rows])
    expect = ["a,b,c"] + [",".join(_per_value(r)) for r in rows]
    assert (tmp_path / "t.csv").read_bytes() == ("\n".join(expect) + "\n").encode()


def test_vtk_writer_matches_per_value_format(tmp_path, monkeypatch):
    # every sampled grid value is a special value, so each block is checkable
    pair = unit_square_pair(1, 1)
    n_pts = 5 * 5
    grid = np.resize(np.array(SPECIAL_VALUES), (5, 5))
    monkeypatch.setattr("divspline.cli._grid_values", lambda space, coeffs, xs, ys: grid)
    state = StateVector(u=np.zeros(pair.n_u), p=np.zeros(pair.n_p))
    write_vtk_fields(tmp_path / "f.vtk", pair, state, "special values")
    lines = (tmp_path / "f.vtk").read_text().split("\n")
    values = _per_value(grid)
    assert lines[9 : 9 + n_pts] == [f"{v} {v} 0" for v in values]
    for block in range(2):
        start = 9 + n_pts + block * (2 + n_pts) + 2
        assert lines[start : start + n_pts] == values


def test_block_formatter_matches_str_format():
    values = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0]
    expect = ["{:.17g}".format(v) for v in values]
    column = np.array(values).reshape(-1, 1)
    assert _format_rows(column, "%.17g\n") == "".join(e + "\n" for e in expect)
    pairs = np.array(values).reshape(-1, 2)
    assert _format_rows(pairs, "%.17g,%.17g\n") == "".join(
        f"{a},{b}\n" for a, b in zip(expect[::2], expect[1::2])
    )


def _reference_vtk(path, pair, state, title, extra_scalars=()):
    """The VTK writer as it was before streaming: one line list, one write."""
    fmt = "{:.17g}".format

    def fmt_all(values):
        return list(map(fmt, np.asarray(values, dtype=float).ravel().tolist()))

    mesh = pair.mesh
    a1, b1, a2, b2 = mesh.domain_extent
    npx = 4 * mesh.nx + 1
    npy = 4 * mesh.ny + 1
    xs = np.linspace(a1, b1, npx)
    ys = np.linspace(a2, b2, npy)
    u1 = _grid_values(pair.vx, pair.component_coeffs(state.u, 0), xs, ys)
    u2 = _grid_values(pair.vy, pair.component_coeffs(state.u, 1), xs, ys)
    q_shape = (pair.q.n_y, pair.q.n_x)
    p = _grid_values(pair.q, state.p.reshape(q_shape), xs, ys)
    div = _grid_values(
        pair.q, divergence_coefficients(pair, state.u).reshape(q_shape), xs, ys
    )
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {npx} {npy} 1",
        f"ORIGIN {fmt(float(a1))} {fmt(float(a2))} 0",
        f"SPACING {fmt(float((b1 - a1) / (npx - 1)))} {fmt(float((b2 - a2) / (npy - 1)))} 1",
        f"POINT_DATA {npx * npy}",
        "VECTORS velocity double",
    ]
    lines.extend(map("{} {} 0".format, fmt_all(u1), fmt_all(u2)))
    scalars = [("pressure", p), ("divergence", div)]
    for name, space, grid in extra_scalars:
        scalars.append((name, _grid_values(space, grid, xs, ys)))
    for name, values in scalars:
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(fmt_all(values))
    path.write_text("\n".join(lines) + "\n")


def test_vtk_writer_matches_reference_writer(tmp_path):
    pair = unit_square_pair(3, 2)
    u = curl_state(pair, seed=4).u
    p = np.random.default_rng(4).standard_normal(pair.n_p)
    state = StateVector(u=u, p=p)
    extra = [("streamfunction", *streamfunction(pair, u))]
    write_vtk_fields(tmp_path / "new.vtk", pair, state, "fixed state", extra)
    _reference_vtk(tmp_path / "ref.vtk", pair, state, "fixed state", extra)
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()


def test_main_exit_codes(tmp_path):
    assert main(["--command", "cavity", "--gamma", "0.1", "--delta", "2"]) == 2
    # too few steps for the dissipation differencing: rejected before running
    assert main(["--command", "taylor-green-2d", "--mesh", "4", "--dt", "0.01",
                 "--tend", "0.01", "--out", str(tmp_path)]) == 2
    # the output directory cannot be made under a file: the run stage fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--command", "pressure-robustness", "--mesh", "4",
                 "--out", str(blocker / "out")]) == 1


def test_python_m_divspline_runs_without_runtime_warning():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "divspline", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "--command" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_python_m_divspline_cli_runs_without_runtime_warning(tmp_path):
    # the package must not import .cli before runpy executes it as __main__
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "divspline.cli",
         "--command", "cavity", "--kprime", "1", "--mesh", "2", "--re", "10",
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert (tmp_path / "out" / "manifest.json").exists()


def test_kprime_beyond_gauss_tables_rejected_at_parse(tmp_path):
    # k'=6 convection needs 11 Gauss points per direction; the tables hold 10
    assert parse_config({"command": "cavity", "kPrime": 5}).k_prime == 5
    with pytest.raises(ConfigError, match="'kPrime' must be at most 5"):
        parse_config({"command": "cavity", "kPrime": 6})
    # exit code 2 is a configuration error; a failed run would exit with 1
    assert main(["--command", "cavity", "--kprime", "6", "--mesh", "2",
                 "--out", str(tmp_path)]) == 2


def test_run_creates_output_directory(tmp_path):
    nested = tmp_path / "deep" / "dir"
    config = parse_config(
        {"command": "pressure-robustness", "mesh": 4, "out": str(nested)}
    )
    out = run(config)
    assert out == nested
    assert (nested / "manifest.json").exists()
    assert parse_config(nested / "manifest.json") == config


def test_case_config_is_frozen():
    config = parse_config({"command": "cavity"})
    with pytest.raises(AttributeError):
        config.gamma = 1.0
    assert isinstance(config, CaseConfig)
