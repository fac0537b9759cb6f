"""List the statements of ``src/ibsep`` that the batteries, demos and benchmark never run.

    python3 tools/reach.py

One process imports this checkout's ``ibsep`` under a ``sys.settrace`` line
tracer and runs ``sepctl all --seed 7`` (its output goes to a temporary
directory), the nine demos (their stdout is dropped) and one pass of every
workload of ``benchmarks/run.py`` (that file is read, not changed). Then it
prints one line per statement of ``src/ibsep`` that none of them ran, as
``path:line: source``, and last the count. A statement is a node of the
module's syntax tree; docstrings are not counted. A simple statement ran
when one of its lines ran; a compound one (``def``, ``if``, ``with``, ...)
when its header ran or any statement inside it did. Tests do not count:
a function that only a test calls is reported. The traced run takes about
half a minute, so it is not part of the test suite; a test checks the
tracing core on a small module.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ROOT_SEED = 7


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _child_statements(node) -> list:
    return [child for name in ("body", "orelse", "finalbody", "handlers")
            for child in getattr(node, name, ()) if isinstance(child, ast.AST)]


def unreached(source: str, ran: set) -> tuple[int, list]:
    """(statement count, first lines of the statements not run) of a module.

    ``ran`` holds the line numbers the tracer saw in this module.
    """
    count, missed = 0, []

    def visit(node) -> bool:  # True when the statement ran
        nonlocal count
        children = [child for child in _child_statements(node)
                    if not _is_docstring(child)]
        # one pass over every child, so that each is counted and listed
        inner = [visit(child) for child in children]
        if isinstance(node, ast.Module):
            return True
        count += 1
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        last = children[0].lineno - 1 if children else node.end_lineno
        hit = any(inner) or any(line in ran for line in range(first, max(first, last) + 1))
        if not hit:
            missed.append(node.lineno)
        return hit

    visit(ast.parse(source))
    return count, sorted(missed)


@contextlib.contextmanager
def traced(root: Path, lines: dict):
    """Record into ``lines`` (file path -> set of line numbers) every line
    run in a file under ``root`` while the block runs."""
    prefix = str(root)

    def local(frame, event, arg):
        if event == "line":
            lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def _benchmark_run():
    path = ROOT / "benchmarks" / "run.py"
    sys.path.insert(0, str(path.parent))  # run.py imports its spans module
    spec = importlib.util.spec_from_file_location("reach_benchmark_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def run_everything() -> None:
    """``sepctl all --seed 7``, the demos and one pass of each workload."""
    sys.path.insert(0, str(SRC))
    from ibsep import control_sep, harness, info, lgss, nn, seprep, static_ib

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        harness.main(["all", "--seed", str(ROOT_SEED), "--out", out])
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    bench = _benchmark_run()
    modules = {"nn": nn, "lgss": lgss, "seprep": seprep, "static_ib": static_ib,
               "control_sep": control_sep, "info": info, "harness": harness}
    for workload in bench.WORKLOADS.values():
        for name, overrides in workload.batteries:
            bench.run_battery(modules, name, overrides)


def main() -> int:
    package = SRC / "ibsep"
    with traced(package, {}) as lines:
        run_everything()
    total = missed_total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        count, missed = unreached(source, lines.get(str(path), set()))
        text = source.splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += count
        missed_total += len(missed)
    print(f"{missed_total} of {total} statements in src/ibsep never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
