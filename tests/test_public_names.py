"""Every public name of the package resolves, is defined in its own module
and has a caller outside the tests, every function that the benchmark's
span tracer wraps resolves, and no module but the harness reads or writes
a file.

``benchmarks/spans.py`` replaces each function of its ``TARGETS`` table with
a timing wrapper through ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run. These checks read that table without
running the benchmark.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import ibsep

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmarks" / "spans.py"


def _submodules():
    return {name: importlib.import_module(f"ibsep.{name}") for name in ibsep.__all__}


def test_every_public_name_of_every_module_resolves():
    modules = _submodules()
    assert set(modules) == {"info", "nn", "lgss", "static_ib", "seprep",
                            "control_sep", "harness"}
    for name, module in modules.items():
        assert module.__all__, name
        missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
        assert not missing, (name, missing)


def test_every_function_the_benchmark_traces_exists():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = _submodules()
    assert set(spans.TARGETS) <= set(modules)
    for mod_name, functions in spans.TARGETS.items():
        assert functions, mod_name
        for fn_name in functions:
            assert callable(getattr(modules[mod_name], fn_name, None)), \
                f"ibsep.{mod_name}.{fn_name}"


def _referenced_names():
    """Every name and attribute the code outside ``tests/`` refers to."""
    seen = set()
    for folder in ("src", "demos", "benchmarks", "tools"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
    return seen


def test_every_public_name_has_a_caller():
    seen = _referenced_names()
    uncalled = [(mod_name, entry) for mod_name, module in _submodules().items()
                for entry in module.__all__ if entry not in seen]
    assert not uncalled, uncalled


def test_no_public_name_is_borrowed_from_another_module():
    # an alias such as ``X = other.X`` shares its original's name, so the
    # caller check above counts the original's callers for it
    borrowed = [(mod_name, entry, obj.__module__)
                for mod_name, module in _submodules().items() for entry in module.__all__
                if (inspect.isclass(obj := getattr(module, entry)) or inspect.isfunction(obj))
                and obj.__module__ != module.__name__]
    assert not borrowed, borrowed


def _touches_files(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name in ("csv", "json") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("csv", "json")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open")


def test_only_the_harness_reads_or_writes_files():
    # sepctl's metrics.csv and summary.json are the package's only files
    touching = {path.name for path in (ROOT / "src" / "ibsep").glob("*.py")
                if any(map(_touches_files, ast.walk(ast.parse(path.read_text(), str(path)))))}
    assert touching == {"harness.py"}, sorted(touching)
