"""Controller options: one frozen dataclass per controller kind.

An options object is the controller: its class names its ``kind``, and
a ``Scenario`` holds it as its controller.  Every controller default is
defined here, and only here.  The harness reads these fields and hands
them to the library's entry points, which take them as required
arguments (``mpsp_solve``, ``gmpsp_solve`` and the SDRE laws take the
options object itself), and the fields of each class are the keys of
its CLI config section.  Weights are matrices: Q is the 6x6 state
weight and R the 3x3 control weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

#: Control weight R = CONTROL_WEIGHT * I3 of every controller kind.
CONTROL_WEIGHT = 1e9

#: SDC factorizations of the SDRE laws: power series and sigma form.
SDC_VARIANTS = ("SDC1", "SDC2")


def _scaled_identity(n: int, scale: float):
    return field(default_factory=lambda: scale * np.eye(n))


@dataclass(frozen=True)
class ZeroOptions:
    """The zero controller has no options."""

    kind: ClassVar[str] = "zero"


@dataclass(frozen=True)
class _Weights:
    Q: np.ndarray = _scaled_identity(6, 1.0)
    R: np.ndarray = _scaled_identity(3, CONTROL_WEIGHT)


@dataclass(frozen=True)
class LqrOptions(_Weights):
    """Tracking LQR.  With open_loop, the control history is planned
    closed-loop on the believed, unperturbed model and then applied to
    the truth plant without further measurement."""

    kind: ClassVar[str] = "lqr"
    open_loop: bool = False


@dataclass(frozen=True)
class SdreOptions(LqrOptions):
    """Pointwise SDRE: SDC variant (one of SDC_VARIANTS: "SDC1", the
    power series valid for eccentric chiefs, or "SDC2", the sigma form
    exact only for circular chiefs) and the number of power-series
    terms SDC1 keeps.  Raises ValueError for another variant or an
    order below 1."""

    kind: ClassVar[str] = "sdre"
    variant: str = "SDC1"
    series_order: int = 4

    def __post_init__(self) -> None:
        if self.variant not in SDC_VARIANTS:
            raise ValueError(f"unknown SDC variant {self.variant!r}")
        if self.series_order < 1:
            raise ValueError("series_order must be >= 1")


@dataclass(frozen=True)
class FsdreOptions(SdreOptions):
    """Finite-horizon SDRE; the terminal constraint replaces the state
    weight, so Q defaults to zero."""

    kind: ClassVar[str] = "fsdre"
    Q: np.ndarray = _scaled_identity(6, 0.0)


@dataclass(frozen=True)
class MpspOptions:
    """Discrete static programming: stop once the terminal baseline error
    is below tol_rho_pct percent, or after max_iter corrections."""

    kind: ClassVar[str] = "mpsp"
    R: np.ndarray = _scaled_identity(3, CONTROL_WEIGHT)
    tol_rho_pct: float = 0.5
    max_iter: int = 10


@dataclass(frozen=True)
class GmpspOptions(MpspOptions):
    """Continuous static programming."""

    kind: ClassVar[str] = "gmpsp"
    tol_rho_pct: float = 1.0


@dataclass(frozen=True)
class NnlqrOptions(_Weights):
    """Network-augmented LQR: costate-network regularizer R1,
    virtual-plant gain k_tau, adaptation rate beta, regularizer gamma,
    Jacobian weight theta, and the costate network ("grid": 27 centres
    around the desired formation, "global": one wide centre)."""

    kind: ClassVar[str] = "nnlqr"
    R1: float = 1.0
    k_tau: float = 0.1
    beta: float = 1e-2
    gamma: float = 100.0
    theta: float = 1.0
    basis: str = "grid"


#: Options class of each controller kind.
CONTROLLER_OPTIONS = {
    cls.kind: cls
    for cls in (ZeroOptions, LqrOptions, SdreOptions, FsdreOptions, MpspOptions,
                GmpspOptions, NnlqrOptions)
}
