"""Every public name of the package resolves, and so does every function that
the benchmark's span tracer wraps.

``benchmarks/spans.py`` replaces each function of its ``TARGETS`` table with
a timing wrapper through ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run. These checks read that table without
running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import ibsep

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


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
