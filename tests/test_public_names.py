"""Every public name of the package resolves and has a caller outside the
tests, and every function that the benchmark's span tracer wraps resolves.

``benchmarks/spans.py`` replaces each function of its ``TARGETS`` table with
a timing wrapper through ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run. These checks read that table without
running the benchmark.
"""

import ast
import importlib
import importlib.util
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


# Public names that only tests call, each kept as the reference another code
# path is checked against, with the test that does so.
TEST_REFERENCES = {
    ("nn", "matmul"): "test_nn.py::test_affine_node_equals_the_unfused_chain_bit_for_bit",
    ("nn", "relu_n"): "test_nn.py::test_affine_node_equals_the_unfused_chain_bit_for_bit",
    ("nn", "detach"): "test_nn.py::test_scan_node_equals_the_unfused_chain_bit_for_bit",
    ("nn", "concat"): "test_nn.py::test_scan_node_equals_the_unfused_chain_bit_for_bit",
    ("lgss", "predictive_density"):
        "test_lgss.py::test_run_filter_predictives_are_the_one_step_densities",
    ("static_ib", "ibl_loss"): "test_static_ib.py::test_info_term_scales_linearly_with_beta",
    ("seprep", "dyn_ibl_loss"): "test_seprep.py::test_graph_objective_matches_array_reference",
}


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
                for entry in module.__all__
                if entry not in seen and (mod_name, entry) not in TEST_REFERENCES]
    assert not uncalled, uncalled
    for (mod_name, entry), test in TEST_REFERENCES.items():
        file_name, test_name = test.split("::")
        assert f"def {test_name}(" in (ROOT / "tests" / file_name).read_text(), test
