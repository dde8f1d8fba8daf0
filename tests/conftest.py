import pytest

import subshift as ss


@pytest.fixture
def golden() -> ss.AdjacencyMatrix:
    """The golden-mean shift: 2 follows 1, 1 follows anything."""
    return ss.AdjacencyMatrix.from_rows([[1, 1], [1, 0]])


@pytest.fixture
def full2() -> ss.AdjacencyMatrix:
    return ss.AdjacencyMatrix.from_rows([[1, 1], [1, 1]])


@pytest.fixture
def swap2() -> ss.AdjacencyMatrix:
    """The permutation 1 -> 2 -> 1: a transitive cycle graph."""
    return ss.AdjacencyMatrix.from_rows([[0, 1], [1, 0]])


@pytest.fixture
def split2() -> ss.AdjacencyMatrix:
    """Two disjoint self-loops: not transitive."""
    return ss.AdjacencyMatrix.from_rows([[1, 0], [0, 1]])


@pytest.fixture(autouse=True)
def no_store_left_open():
    """Fail any test after which a freeness answer store is still open."""
    yield
    if ss.freeness._open_store.get() is not None:
        pytest.fail("a freeness answer store is still open")
