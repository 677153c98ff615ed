"""Controller options: one frozen dataclass per controller kind.

Every controller default is defined here once.  The harness reads these
fields and hands ``mpsp_solve``/``gmpsp_solve`` their options object,
``design_lqr`` takes its default weights from here, and the fields of
each class are the keys of its CLI config section.  Weights are
matrices: Q is the 6x6 state weight and R the 3x3 control weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Control weight R = CONTROL_WEIGHT * I3 of every controller kind.
CONTROL_WEIGHT = 1e9


def _scaled_identity(n: int, scale: float):
    return field(default_factory=lambda: scale * np.eye(n))


@dataclass(frozen=True)
class ZeroOptions:
    """The zero controller has no options."""


@dataclass(frozen=True)
class _Weights:
    Q: np.ndarray = _scaled_identity(6, 1.0)
    R: np.ndarray = _scaled_identity(3, CONTROL_WEIGHT)


@dataclass(frozen=True)
class LqrOptions(_Weights):
    """Tracking LQR.  With open_loop, the control history is planned
    closed-loop on the believed, unperturbed model and then applied to
    the truth plant without further measurement."""

    open_loop: bool = False


@dataclass(frozen=True)
class SdreOptions(LqrOptions):
    """Pointwise SDRE: SDC variant ("SDC1"/"SDC2") and the number of
    power-series terms SDC1 keeps."""

    variant: str = "SDC1"
    series_order: int = 4


@dataclass(frozen=True)
class FsdreOptions(SdreOptions):
    """Finite-horizon SDRE; the terminal constraint replaces the state
    weight, so Q defaults to zero."""

    Q: np.ndarray = _scaled_identity(6, 0.0)


@dataclass(frozen=True)
class MpspOptions:
    """Discrete static programming: stop once the terminal baseline error
    is below tol_rho_pct percent, or after max_iter corrections."""

    R: np.ndarray = _scaled_identity(3, CONTROL_WEIGHT)
    tol_rho_pct: float = 0.5
    max_iter: int = 10


@dataclass(frozen=True)
class GmpspOptions(MpspOptions):
    """Continuous static programming."""

    tol_rho_pct: float = 1.0


@dataclass(frozen=True)
class NnlqrOptions(_Weights):
    """Network-augmented LQR: costate-network regularizer R1,
    virtual-plant gain k_tau, adaptation rate beta, regularizer gamma,
    Jacobian weight theta, and the costate network ("grid": 27 centres
    around the desired formation, "global": one wide centre)."""

    R1: float = 1.0
    k_tau: float = 0.1
    beta: float = 1e-2
    gamma: float = 100.0
    theta: float = 1.0
    basis: str = "grid"


#: Options class of each controller kind.
CONTROLLER_OPTIONS = {
    "zero": ZeroOptions,
    "lqr": LqrOptions,
    "sdre": SdreOptions,
    "fsdre": FsdreOptions,
    "mpsp": MpspOptions,
    "gmpsp": GmpspOptions,
    "nnlqr": NnlqrOptions,
}
