"""One benchmark sample, run as a fresh process.

    python3 perfbench/worker.py MODE OUT_DIR RESULT_JSON CLI_FLAG...

MODE is ``wall`` (time ``divspline.cli.run`` from before ``import
divspline`` to its return), ``setup`` (time the import, the pairs and the
first cache-filling assembly calls) or ``trace`` (as ``wall``, with every
public layer function wrapped from outside the program and the spans kept in
memory until the run ends).  The result JSON is written after the clock
stops.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import weakref  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import flag_overrides, setup  # noqa: E402

# (layer module, name, span) in layer order.  A function is wrapped in every
# divspline module that binds it, because most are imported by name; a
# "Class.method" name wraps the method on its class.
TARGETS = [
    ("bspline", "eval_nonzero_basis", "bspline.eval_nonzero_basis"),
    ("mesh", "build_mesh", "mesh.build"),
    ("space", "build_pair", "space.build_pair"),
    ("space", "element_tables", "space.element_tables"),
    ("space", "eval_velocity", "space.eval_velocity"),
    ("forms", "assemble_strain", "forms.strain"),
    ("forms", "assemble_viscous_nitsche", "forms.viscous_nitsche"),
    ("forms", "nitsche_load", "forms.nitsche_load"),
    ("forms", "assemble_divergence", "forms.divergence"),
    ("forms", "assemble_convection", "forms.convection"),
    ("forms", "assemble_skeleton", "forms.skeleton"),
    ("forms", "assemble_load", "forms.load"),
    ("forms", "assemble_velocity_mass", "forms.mass"),
    ("solver", "newton_steady", "solver.newton_steady"),
    ("solver", "solve_steady", "solver.solve_steady"),
    ("solver", "TimeStepper.step", "solver.TimeStepper.step"),
    ("cases", "ManufacturedCase.forcing", "cases.forcing"),
    ("cases", "error_norms", "cases.error_norms"),
    ("cases", "energy_and_dissipation", "cases.diagnostics"),
    ("cases", "streamfunction", "cases.streamfunction"),
    ("cli", "write_vtk_fields", "cli.write_vtk"),
    ("cli", "write_csv", "cli.write_csv"),
    ("cli", "run", "cli.run"),
]
# splu as divspline.solver sees it, and the solve of each factor it returns
LU_SPANS = ("solver.factor", "solver.lu_solve")
SPANS = [span for _, _, span in TARGETS] + list(LU_SPANS)
MODULES = ("bspline", "mesh", "space", "forms", "solver", "cases", "cli")


class Tracer:
    """Spans (name, start, end, parent) in memory, plus per-span counts."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: dict[str, dict[int, float]] = {}
        self._stack = [-1]

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, idx: int, value: float) -> None:
        self.counts.setdefault(key, {})[idx] = value

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, out)
            return out

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": {k: {str(i): v for i, v in d.items()} for k, d in self.counts.items()},
        }


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a span; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SplaView:
    """``scipy.sparse.linalg`` as ``divspline.solver`` sees it, with a traced splu."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    import importlib

    import divspline

    mods = [divspline] + [importlib.import_module(f"divspline.{m}") for m in MODULES]

    def rebind(original, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    seen_tables: weakref.WeakSet = weakref.WeakSet()

    def table_hit(idx, tables):
        tracer.count("element_tables.hit", idx, float(tables in seen_tables))
        seen_tables.add(tables)

    for mod_name, name, span in TARGETS:
        owner = importlib.import_module(f"divspline.{mod_name}")
        if "." in name:
            cls_name, name = name.split(".")
            owner = getattr(owner, cls_name, None)
            if owner is not None and hasattr(owner, name):
                setattr(owner, name, tracer.wrap(span, getattr(owner, name)))
            continue
        original = getattr(owner, name, None)
        if original is not None:
            after = table_hit if span == "space.element_tables" else None
            rebind(original, tracer.wrap(span, original, after))

    solver = importlib.import_module("divspline.solver")
    real_spla = solver.spla

    def factored(idx, lu):
        tracer.count("lu_fill_nnz", idx, float(lu._lu.L.nnz + lu._lu.U.nnz))

    def splu(*args, **kwargs):
        lu = real_spla.splu(*args, **kwargs)
        return _TracedLU(lu, tracer.wrap(LU_SPANS[1], lu.solve))

    solver.spla = _SplaView(real_spla, tracer.wrap(LU_SPANS[0], splu, factored))


def main(argv: list[str]) -> int:
    mode, out_dir, result_path, *flags = argv
    import divspline.cli as cli

    config = cli.parse_config(None, flag_overrides(flags, out_dir))
    tracer = Tracer() if mode == "trace" else None
    if mode == "setup":
        setup(config)
    else:
        if tracer is not None:
            install(tracer)
        cli.run(config)
    elapsed = time.perf_counter() - T0
    result = {
        "seconds": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
