import pytest
import scipy.linalg
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so the suite's result does not depend on machine speed or on
# a local .hypothesis/ directory.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def care_calls(monkeypatch):
    """List that grows by one at each cold scipy Riccati solve in the test."""
    calls = []
    solve = scipy.linalg.solve_continuous_are

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_continuous_are", counted)
    return calls
