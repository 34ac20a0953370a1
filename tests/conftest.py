import tracemalloc

import pytest

from oed import Graph, gen_family


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
