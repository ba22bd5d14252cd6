"""Tests of the benchmark itself, on tiny configurations.

    python3 -m pytest perfbench/test_perfbench.py

Run from the root of the checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_environment()
import checks  # noqa: E402
from workloads import WORKLOADS, flag_overrides  # noqa: E402

from divspline.cli import parse_config  # noqa: E402

TINY = {
    "cavity": ["--command", "cavity", "--kprime", "1", "--mesh", "4", "--re", "100"],
    "convergence": [
        "--command", "convergence", "--kprime", "1", "--mesh", "8,16", "--re", "10",
    ],
    "taylor-green-2d": [
        "--command", "taylor-green-2d", "--kprime", "1", "--mesh", "4",
        "--re", "100", "--dt", "1e-2", "--tend", "0.03",
    ],
}
# Spans that must have calls in each command's traced run.
RUNS = {
    "cavity": [
        "forms.nitsche_load", "space.eval_velocity", "cases.streamfunction",
        "solver.newton_steady",
    ],
    "convergence": ["cases.forcing", "cases.error_norms", "solver.newton_steady"],
    "taylor-green-2d": ["solver.TimeStepper.step", "cases.diagnostics", "forms.mass"],
}
EVERYWHERE = [
    "bspline.eval_nonzero_basis", "mesh.build", "space.build_pair",
    "space.element_tables", "forms.strain", "forms.viscous_nitsche",
    "forms.divergence", "forms.convection", "forms.skeleton", "forms.load",
    "solver.factor", "solver.lu_solve", "cli.write_vtk", "cli.write_csv", "cli.run",
]


def run_worker(mode: str, flags: list[str], out_dir: Path) -> dict:
    result = out_dir.with_suffix(".json")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(out_dir), str(result), *flags],
        check=True, timeout=300,
    )
    return json.loads(result.read_text())


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_runs(request, tmp_path_factory):
    command = request.param
    base = tmp_path_factory.mktemp(command)
    plain = run_worker("wall", TINY[command], base / "wall")
    traced = run_worker("trace", TINY[command], base / "trace")
    return command, base, plain, traced


def test_traced_run_writes_identical_files(tiny_runs):
    _, base, _, _ = tiny_runs
    names = sorted(p.name for p in (base / "wall").iterdir() if p.suffix in (".csv", ".vtk"))
    assert "fields.vtk" in names and len(names) == 2
    for name in names:
        assert (base / "wall" / name).read_bytes() == (base / "trace" / name).read_bytes()


def test_every_layer_metric_is_reported(tiny_runs):
    command, _, _, traced = tiny_runs
    metrics = run.layer_metrics(traced["spans"])
    harness_supplied = {"cli.output_bytes", "trace.overhead_s"}
    assert set(metrics) == set(run.per_layer_units()) - harness_supplied
    for span in EVERYWHERE + RUNS[command]:
        assert metrics[f"{span}.calls"] > 0, span
        assert metrics[f"{span}_s"] >= metrics[f"{span}.self_s"] > 0.0, span
    for span in set().union(*RUNS.values()) - set(RUNS[command]):
        assert metrics[f"{span}.calls"] == 0, span
    assert metrics["solver.newton_iters"] > 0
    assert metrics["solver.residual_evals"] > metrics["solver.newton_iters"]
    assert 0.0 < metrics["solver.ls_accept_ratio"] <= 1.0
    assert metrics["solver.lu_fill_nnz"] > 0
    assert 0.0 <= metrics["space.element_tables.hit_ratio"] < 1.0


def _config(command: str, out: Path):
    return parse_config(None, flag_overrides(TINY[command], str(out)))


def test_checks_accept_untouched_output(tiny_runs):
    command, base, _, _ = tiny_runs
    metrics, fails = checks.check(base / "wall", _config(command, base / "wall"))
    assert fails == []
    assert metrics["l2_err"] > 0.0 and metrics["h1_err"] > 0.0


def _corrupt(command: str, out: Path) -> None:
    if command == "cavity":
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["_residualNorm"] = 1e-3
        (out / "manifest.json").write_text(json.dumps(manifest))
    elif command == "convergence":
        path = out / "convergence.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(2.0 * float(cells[1]))
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    else:
        path = out / "diagnostics.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(1.01 * float(cells[1]))
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")


def test_checks_reject_corrupted_output(tiny_runs, tmp_path):
    command, base, _, _ = tiny_runs
    out = shutil.copytree(base / "wall", tmp_path / "out")
    _corrupt(command, out)
    _, fails = checks.check(out, _config(command, base / "wall"))
    assert fails and "manifest does not parse back" not in " ".join(fails)


def test_checks_reject_manifest_of_another_configuration(tiny_runs, tmp_path):
    command, base, _, _ = tiny_runs
    out = shutil.copytree(base / "wall", tmp_path / "out")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["kPrime"] = 2
    (out / "manifest.json").write_text(json.dumps(manifest))
    _, fails = checks.check(out, _config(command, base / "wall"))
    assert fails == ["manifest does not parse back into the run configuration"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_layer_metrics_derive_self_time_and_newton_counts():
    # cli.run > newton_steady > {convection, factor, convection}, then one
    # convection outside Newton
    spans = {
        "names": ["cli.run", "solver.newton_steady", "forms.convection",
                  "solver.factor", "forms.convection", "forms.convection"],
        "start": [0.0, 1.0, 1.0, 2.0, 5.0, 9.0],
        "end": [10.0, 7.0, 2.0, 5.0, 6.0, 9.5],
        "parent": [-1, 0, 1, 1, 1, 0],
        "counts": {"lu_fill_nnz": {"3": 40.0}},
    }
    m = run.layer_metrics(spans)
    assert m["cli.run_s"] == 10.0 and m["cli.run.self_s"] == 3.5
    assert m["solver.newton_steady.self_s"] == 1.0
    assert m["forms.convection.calls"] == 3 and m["forms.convection_s"] == 2.5
    assert m["solver.newton_iters"] == 1 and m["solver.residual_evals"] == 2
    assert m["solver.ls_accept_ratio"] == 1.0
    assert m["solver.continuation_step_s"] == 6.0
    assert m["solver.lu_fill_nnz"] == 40.0
