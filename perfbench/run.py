"""Benchmark harness: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every sample is a fresh process
(``worker.py``), run one at a time with BLAS/OpenMP threads pinned to 1.
``--seed`` only shuffles the order of the samples; the inputs are the fixed
configurations in ``workloads.py``.  Every run of the command is checked for
correctness (``checks.py``) and counts as failed if it raised or a check
failed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SPANS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """Pin threads to 1 and make ``src`` importable, here and in every child."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DIVSPLINE_OUT", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    sys.path[:0] = [str(HERE), str(SRC)]


# A run must end within 180 s; no sample starts after this many seconds.
RUN_LIMIT_S = 170.0
# The samples of one block, by --trace: two wall samples and one set-up
# sample, since the run-to-run spread of wall_s must stay inside its bound
# in BENCHMARK.json and that of setup_s need not; or one wall and one
# traced sample.
BLOCKS = {0: ("wall", "wall", "setup"), 1: ("wall", "trace")}
# Blocks per run, at least, by the block's last mode.
MIN_BLOCKS = {"setup": 2, "trace": 1}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "l2_err": "1",
    "h1_err": "1",
}
NEWTON_SPANS = ("solver.newton_steady", "solver.TimeStepper.step")
DERIVED_UNITS = {
    "solver.lu_fill_nnz": "count",
    "solver.newton_iters": "count",
    "solver.residual_evals": "count",
    "solver.ls_accept_ratio": "ratio",
    "solver.step_s": "s",
    "solver.continuation_step_s": "s",
    "space.element_tables.hit_ratio": "ratio",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(DERIVED_UNITS)
    return units


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer totals, self times, call counts and derived solver ratios.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process never overlap unless nested.
    """
    names, parent = spans["names"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(names)
    in_newton = [False] * len(names)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
            in_newton[i] = in_newton[p] or names[p] in NEWTON_SPANS
    out = {}
    for name in SPANS:
        idx = [i for i, n in enumerate(names) if n == name]
        out[f"{name}_s"] = sum(dur[i] for i in idx)
        out[f"{name}.self_s"] = sum(dur[i] - child[i] for i in idx)
        out[f"{name}.calls"] = len(idx)

    def under_newton(name):
        return sum(1 for i, n in enumerate(names) if n == name and in_newton[i])

    iters = under_newton("solver.factor")
    evals = under_newton("forms.convection")
    trials = evals - sum(out[f"{n}.calls"] for n in NEWTON_SPANS)
    counts = spans["counts"]
    hits = counts.get("element_tables.hit", {}).values()
    fill = counts.get("lu_fill_nnz", {}).values()

    def per_call(name):
        calls = out[f"{name}.calls"]
        return out[f"{name}_s"] / calls if calls else 0.0

    out.update(
        {
            "solver.lu_fill_nnz": max(fill, default=0),
            "solver.newton_iters": iters,
            "solver.residual_evals": evals,
            "solver.ls_accept_ratio": iters / trials if trials > 0 else 1.0,
            "solver.step_s": per_call("solver.TimeStepper.step"),
            "solver.continuation_step_s": per_call("solver.newton_steady"),
            "space.element_tables.hit_ratio": sum(hits) / len(hits) if hits else 0.0,
        }
    )
    return out


def environment() -> dict:
    import numpy
    import scipy
    import sympy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Runner:
    """Runs worker processes one at a time and checks their output."""

    def __init__(self, workload: str, flags: list[str], deadline: float):
        self.workload = workload
        self.flags = flags
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.n = 0

    def sample(self, mode: str):
        """One fresh process; returns its result dict, or None if it failed."""
        self.n += 1
        self.attempted += 1
        out_dir = OUT / self.workload / f"{mode}-{self.n}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        result_path = out_dir.with_suffix(".json")
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(out_dir),
               str(result_path), *self.flags]
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"{mode} sample {self.n}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            self.failed += 1
            print(f"{mode} sample {self.n} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(result_path.read_text())
        if mode != "setup":
            import checks
            from divspline.cli import parse_config
            from workloads import flag_overrides

            config = parse_config(None, flag_overrides(self.flags, str(out_dir)))
            accuracy, fails = checks.check(out_dir, config)
            if fails:
                self.failed += 1
                print(f"{mode} sample {self.n} incorrect: {fails}", file=sys.stderr)
                return None
            result.update(accuracy)
            result["output_bytes"] = sum(
                f.stat().st_size for f in out_dir.iterdir() if f.is_file()
            )
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path.unlink()
        print(f"{mode} sample {self.n}: {result['seconds']:.4f} s", file=sys.stderr)
        return result


def measure(runner: Runner, modes: tuple[str, ...], seconds: float, rng) -> dict:
    """Repeat blocks of the samples ``modes``, in seeded order, for ``seconds``.

    A block starts only if, at the mean block time so far, it ends less than
    half a block after ``seconds``; so a run takes ``seconds`` rounded to
    whole blocks.  The first ``MIN_BLOCKS[modes[-1]]`` blocks always run.
    """
    results = {m: [] for m in modes}
    start = time.perf_counter()
    blocks = 0
    while True:
        elapsed = time.perf_counter() - start
        if blocks >= MIN_BLOCKS[modes[-1]] and elapsed * (blocks + 0.5) / blocks > seconds:
            return results
        block = list(modes)
        rng.shuffle(block)
        for mode in block:
            if time.perf_counter() >= runner.deadline:
                return results
            res = runner.sample(mode)
            if res is not None:
                results[mode].append(res)
        blocks += 1


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.perf_counter()
    # exit through SystemExit, so a running sample is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_environment()
    if not (SRC / "divspline" / "__init__.py").is_file():
        print(f"perfbench: no divspline sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import EXTRA_WORKLOADS, WORKLOADS

    flags = {**WORKLOADS, **EXTRA_WORKLOADS}.get(args.workload)
    if flags is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # compile bytecode and warm the page cache before any sample is timed
    warm = subprocess.run(
        [sys.executable, "-c",
         "import compileall, sys; compileall.compile_dir(sys.argv[1], quiet=1);"
         "import divspline.cli, sympy", str(SRC / "divspline")],
        capture_output=True, text=True, timeout=120,
    )
    if warm.returncode != 0:
        print(f"perfbench: cannot import divspline:\n{warm.stderr}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    runner = Runner(args.workload, flags, begin + RUN_LIMIT_S)
    modes = BLOCKS[args.trace]
    results = measure(runner, modes, args.seconds, rng)
    shutil.rmtree(OUT / args.workload, ignore_errors=True)
    walls = results["wall"]
    if not walls or not results[modes[-1]]:
        print("perfbench: no successful sample", file=sys.stderr)
        return 1

    if args.trace:
        traced = results["trace"]
        per_sample = [layer_metrics(r["spans"]) for r in traced]
        values = {k: statistics.median(m[k] for m in per_sample) for k in per_sample[0]}
        values["cli.output_bytes"] = median_of(traced, "output_bytes")
        values["trace.overhead_s"] = median_of(traced, "seconds") - median_of(walls, "seconds")
        units = per_layer_units()
    else:
        values = {
            "wall_s": median_of(walls, "seconds"),
            "setup_s": median_of(results["setup"], "seconds"),
            "peak_rss_mb": median_of(walls, "peak_rss_mb"),
            "l2_err": median_of(walls, "l2_err"),
            "h1_err": median_of(walls, "h1_err"),
        }
        units = END_TO_END_UNITS
    env = environment()
    env["samples"] = {m: len(r) for m, r in results.items()}
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
