import numpy as np
import pytest
from hypothesis import settings

from formation_guidance import numerics
from formation_guidance.cli import PRESETS
from formation_guidance.harness import run_scenario

# Property tests draw the same examples on every run and keep no example
# database, so the suite's result does not depend on machine speed or on
# a local .hypothesis/ directory.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def care_calls(monkeypatch):
    """List that grows by one at each cold Riccati solve in the test,
    whether the sign function or its scipy fallback finishes it."""
    calls = []
    solve = numerics._cold_solve

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(numerics, "_cold_solve", counted)
    return calls


@pytest.fixture
def lyapunov_calls(monkeypatch):
    """List that grows by one at each Lyapunov equation the warm Riccati
    solve finishes, in a Newton step or a chord correction: a
    ``numerics._schur_lyapunov`` call that returns a solution.  A Newton
    step that stops at the Hurwitz test of its Schur form solves none."""
    calls = []
    solve = numerics._schur_lyapunov

    def counted(T, Z, C):
        X = solve(T, Z, C)
        if X is not None:
            calls.append(1)
        return X

    monkeypatch.setattr(numerics, "_schur_lyapunov", counted)
    return calls


def _contract_holds(A, B, Q, R, P):
    """The Riccati contract, recomputed from B and R: residual at most
    1e-8 (1 + ||P||) and a Hurwitz closed loop by its eigenvalues."""
    res = P @ A + A.T @ P + Q - P @ B @ np.linalg.solve(R, B.T) @ P
    closed = A - B @ np.linalg.solve(R, B.T @ P)
    return (np.linalg.norm(res) <= 1e-8 * (1 + np.linalg.norm(P))
            and np.max(np.linalg.eigvals(closed).real) < 0.0)


@pytest.fixture
def contract_holds():
    """The independent check of ``solve_are``'s residual/Hurwitz contract."""
    return _contract_holds


@pytest.fixture(scope="session")
def preset_results():
    """``preset_results(name)`` is ``(scenarios, results, checks)`` of the
    packaged preset ``name``, run at its own settle band once per session."""
    cache = {}

    def results(name):
        if name not in cache:
            _, factory, settle_pct = PRESETS[name]
            scenarios, check = factory()
            runs = {k: run_scenario(s, settle_pct) for k, s in scenarios.items()}
            cache[name] = (scenarios, runs, check(runs))
        return cache[name]

    return results
