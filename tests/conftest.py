import pytest

from flowgrad import experiments


@pytest.fixture(autouse=True)
def cold_references():
    """Every test starts with no shared reference solves, so the synthesis
    path runs cold whatever ran before."""
    experiments._REFERENCES.clear()
    yield
    experiments._REFERENCES.clear()
