import pytest
from hypothesis import settings

from totref import _zn
from totref.rings import FiniteLocalRing, GradedMonomialRing
from totref.zerodiv import exact_pair

# property tests draw the same examples on every run and never time out,
# so tier-1 stays deterministic on a slow or loaded machine
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def z9():
    return FiniteLocalRing(3, 2)


@pytest.fixture(scope="session")
def z8():
    return FiniteLocalRing(2, 3)


@pytest.fixture(scope="session")
def f5():
    return GradedMonomialRing(5, ("x", "y", "z"), ((1, 1, 0),))


@pytest.fixture(scope="session")
def pair_z9(z9):
    return exact_pair(z9, z9.parse("3"), z9.parse("3"))


@pytest.fixture(scope="session")
def pair_z8(z8):
    return exact_pair(z8, z8.parse("2"), z8.parse("4"))


@pytest.fixture(scope="session")
def pair_f5(f5):
    return exact_pair(f5, f5.parse("x"), f5.parse("y"), 8)


@pytest.fixture
def factorizations(monkeypatch):
    """``count(call)``: the SpanSolver builds and Howell forms that
    ``call()`` makes, and what it returns."""
    def count(call):
        counts = [0, 0]
        howell = _zn.howell

        class CountedSolver(_zn.SpanSolver):
            def __init__(self, *args):
                counts[0] += 1
                super().__init__(*args)

        def counted_howell(*args):
            counts[1] += 1
            return howell(*args)

        with monkeypatch.context() as patch:
            patch.setattr(_zn, "SpanSolver", CountedSolver)
            patch.setattr(_zn, "howell", counted_howell)
            result = call()
        return counts[0], counts[1], result

    return count
