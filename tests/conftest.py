import os
from pathlib import Path

import pytest

import ibsep


@pytest.fixture
def subprocess_env():
    """Environment for a child Python that must import this checkout's ibsep."""
    env = dict(os.environ)
    src = str(Path(ibsep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
