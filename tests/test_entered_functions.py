"""Every function in `src/divspline` runs in some CLI command.

The CLI commands at tiny sizes run in a fresh interpreter with a
`sys.setprofile` hook installed before `import divspline`, because
decorators and module-level calls run at import. Every function, method,
nested function and lambda defined in the package must be entered; code
only tests use belongs under `tests/`.

Run as a script, this file executes the commands and prints the entered
code locations as JSON:

    PYTHONPATH=src python tests/test_entered_functions.py OUT_DIR
"""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "divspline"

COMMANDS = [
    ["--command", "cavity", "--kprime", "1", "--mesh", "4", "--re", "400"],
    ["--command", "convergence", "--kprime", "1", "--mesh", "2,4"],
    ["--command", "robustness", "--kprime", "1", "--mesh", "2", "--re", "1,10"],
    ["--command", "pressure-robustness", "--kprime", "1", "--mesh", "2"],
    ["--command", "taylor-green-2d", "--kprime", "1", "--mesh", "2", "--dt", "0.01", "--tend", "0.02"],
]

# (module, qualified name) of functions no command needs but tests do
ALLOWED = {
    # the exact manufactured pressure: the tests' reference for the forcing
    ("cases", "ManufacturedCase.pressure"),
}


def defined_functions() -> dict[tuple[str, int], tuple[str, str]]:
    """(file, line) -> (module, qualified name) of every function and lambda
    in the package; a decorated function is listed at its `def` line and at
    its first decorator's line, where its code object starts."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                name = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    # lambdas are told apart by their line
                    own = getattr(child, "name", f"<lambda:{child.lineno}>")
                    name = f"{scope}.{own}" if scope else own
                    lines = {child.lineno}
                    lines.update(d.lineno for d in getattr(child, "decorator_list", [])[:1])
                    for line in lines:
                        found[(str(path), line)] = (module, name)
                elif isinstance(child, ast.ClassDef):
                    name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def _run_commands(out_dir: str) -> None:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    from divspline.cli import main

    for i, argv in enumerate(COMMANDS):
        if main(argv + ["--out", os.path.join(out_dir, str(i))]) != 0:
            raise SystemExit(f"command failed: {argv}")
    sys.setprofile(None)
    locations = {(c.co_filename, c.co_firstlineno) for c in entered}
    print(json.dumps(sorted(locations)))


def test_every_function_is_entered_by_a_command(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(f).resolve()), line) for f, line in json.loads(proc.stdout.splitlines()[-1])}
    defined = defined_functions()
    entered_names = {defined[loc] for loc in entered if loc in defined}
    never = sorted(set(defined.values()) - entered_names - ALLOWED)
    assert not never, "functions no CLI command enters:\n" + "\n".join(
        f"  {module}.{name}" for module, name in never
    )
    assert ALLOWED.isdisjoint(entered_names), "an allowlisted function now runs: drop it"


if __name__ == "__main__":
    _run_commands(sys.argv[1])
