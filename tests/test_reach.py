"""The statement count of ``tools/reach.py`` on a small module."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

SOURCE = '''"""A module docstring is not a statement."""


def sign(x):
    """Nor is a function's."""
    if x > 0:
        return 1
    elif x < 0:
        return -1
    raise ValueError(
        "zero has no sign")


def unused():
    return 0
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_lists_the_statements_a_run_never_reached(reach, tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("tiny", path)
    module = importlib.util.module_from_spec(spec)
    with reach.traced(tmp_path, {}) as lines:
        spec.loader.exec_module(module)
        assert module.sign(2) == 1
    # def sign, if, return 1, elif, return -1, raise, def unused, return 0;
    # the elif's test, its return, the two-line raise and unused's body never ran
    assert reach.unreached(SOURCE, lines[str(path)]) == (8, [8, 9, 10, 15])


def test_a_run_reaches_what_it_calls(reach, tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("tiny", path)
    module = importlib.util.module_from_spec(spec)
    with reach.traced(tmp_path, {}) as lines:
        spec.loader.exec_module(module)
        module.sign(-1)
        module.unused()
        with pytest.raises(ValueError):
            module.sign(0)
    assert reach.unreached(SOURCE, lines[str(path)]) == (8, [7])
