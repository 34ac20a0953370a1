import os
import tracemalloc
from pathlib import Path

import pytest

import oed
from oed import Graph, gen_family


def child_env() -> dict[str, str]:
    """The environment for a child Python run on the package under test.

    PYTHONPATH is the source tree that ``oed`` was imported from, and every
    other inherited PYTHON* setting is dropped, so that a child's output
    and time do not depend on the caller's: under PYTHONUNBUFFERED, say,
    each write would be a syscall. A test that needs one sets it itself.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(oed.__file__).resolve().parents[1])
    return env


@pytest.fixture
def k2() -> Graph:
    return gen_family("complete", 2)


@pytest.fixture
def k3() -> Graph:
    return gen_family("complete", 3)


@pytest.fixture
def p3() -> Graph:
    return gen_family("path", 3)


@pytest.fixture
def cube() -> Graph:
    return gen_family("cube_q3")


@pytest.fixture
def traced_peak():
    """A function: fn(*args) and the peak bytes it traced, after one untraced warm-up call."""

    def peak(fn, *args):
        fn(*args)
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
