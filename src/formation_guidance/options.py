"""Controller options: one frozen dataclass per controller kind.

An options object is the controller: its class names its ``kind``, and
a ``Scenario`` holds it as its controller.  Every controller default is
defined here, and only here, and each setting once, as a field whose
name is its CLI config key and whose value is a number or a word.  The
class's ``bounds`` ({field: (comparison, bound)}) and ``choices``
({field: words}) say which values are legal; construction, and so
``dataclasses.replace``, raises ValueError naming the field for any
other value, one that is not finite, or a count or flag of another type.
The weights Q = q_weight I6 and R = r_weight I3 are derived, once per
object.  The harness hands the object whole to every control law (the
SDRE laws, ``NnLqrController``, ``mpsp_solve`` and ``gmpsp_solve``);
only ``design_lqr``, the Hill LQR of LQR and NN-LQR, takes the weights.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral
from typing import ClassVar

import numpy as np

#: Control weight R = CONTROL_WEIGHT * I3 of every controller kind.
CONTROL_WEIGHT = 1e9

#: SDC factorizations of the SDRE laws: power series and sigma form.
SDC_VARIANTS = ("SDC1", "SDC2")

#: The comparison each bound names.
COMPARISONS = {">=": operator.ge, ">": operator.gt}

_POSITIVE = (">", 0)


def _weight_matrix(name: str, n: int) -> cached_property:
    """Read-only field ``name`` times the n x n identity, built once."""

    def matrix(self) -> np.ndarray:
        value = getattr(self, name) * np.eye(n)
        value.flags.writeable = False
        return value

    return cached_property(matrix)


@dataclass(frozen=True)
class _Options:
    """Checks every field: a word against its choices, a number for
    being finite and against its bound, if it has one, and then an int
    field for an integer that is not a bool and a bool field for a bool."""

    bounds: ClassVar[dict[str, tuple[str, float]]] = {}
    choices: ClassVar[dict[str, tuple[str, ...]]] = {}

    def __post_init__(self) -> None:
        for f in fields(self):
            value, words = getattr(self, f.name), self.choices.get(f.name)
            comparison, bound = self.bounds.get(f.name, (">", -math.inf))
            if words is not None and value not in words:
                raise ValueError(f"{f.name} must be one of {', '.join(words)}, got {value!r}")
            if words is None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if words is None and not COMPARISONS[comparison](value, bound):
                raise ValueError(f"{f.name} must be {comparison} {bound}, got {value!r}")
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{f.name} must be true or false, got {value!r}")


@dataclass(frozen=True)
class ZeroOptions(_Options):
    """The zero controller has no options."""

    kind: ClassVar[str] = "zero"


@dataclass(frozen=True)
class _Weights(_Options):
    # A zero state weight is legal for the finite-horizon SDRE (its
    # default) but not for LQR, NN-LQR or the pointwise SDRE: every mode
    # of Hill's A is on the imaginary axis, so with Q = 0 their Riccati
    # equation has no stabilizing solution, and the pointwise SDRE's
    # solve at every step goes cold to give no control.  R must be
    # positive definite for the Riccati solve.
    bounds = {"q_weight": _POSITIVE, "r_weight": _POSITIVE}
    q_weight: float = 1.0
    r_weight: float = CONTROL_WEIGHT
    Q = _weight_matrix("q_weight", 6)
    R = _weight_matrix("r_weight", 3)


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
    terms SDC1 keeps, at least 1."""

    kind: ClassVar[str] = "sdre"
    bounds = {**_Weights.bounds, "series_order": (">=", 1)}
    choices = {"variant": SDC_VARIANTS}
    variant: str = "SDC1"
    series_order: int = 4


@dataclass(frozen=True)
class FsdreOptions(SdreOptions):
    """Finite-horizon SDRE; the terminal constraint replaces the state
    weight, so q_weight defaults to, and may be, zero."""

    kind: ClassVar[str] = "fsdre"
    bounds = {**SdreOptions.bounds, "q_weight": (">=", 0)}
    q_weight: float = 0.0


@dataclass(frozen=True)
class MpspOptions(_Options):
    """Discrete static programming: stop once the terminal baseline error
    is below tol_pct percent, or after max_iter corrections."""

    kind: ClassVar[str] = "mpsp"
    bounds = {"r_weight": _POSITIVE, "tol_pct": _POSITIVE, "max_iter": (">=", 0)}
    r_weight: float = CONTROL_WEIGHT
    tol_pct: float = 0.5
    max_iter: int = 10
    R = _weight_matrix("r_weight", 3)


@dataclass(frozen=True)
class GmpspOptions(MpspOptions):
    """Continuous static programming."""

    kind: ClassVar[str] = "gmpsp"
    tol_pct: float = 1.0


@dataclass(frozen=True)
class NnlqrOptions(_Weights):
    """Network-augmented LQR: costate-network regularizer r1,
    virtual-plant gain k_tau, adaptation rate beta, regularizer gamma,
    Jacobian weight theta_gain, and the costate network ("grid": 27
    centres around the desired formation, "global": one wide centre)."""

    kind: ClassVar[str] = "nnlqr"
    bounds = {**_Weights.bounds, "r1": _POSITIVE, "k_tau": _POSITIVE, "beta": _POSITIVE,
              "gamma": _POSITIVE}
    choices = {"basis": ("grid", "global")}
    r1: float = 1.0
    k_tau: float = 0.1
    beta: float = 1e-2
    gamma: float = 100.0
    theta_gain: float = 1.0
    basis: str = "grid"


#: Options class of each controller kind.
CONTROLLER_OPTIONS = {
    cls.kind: cls
    for cls in (ZeroOptions, LqrOptions, SdreOptions, FsdreOptions, MpspOptions,
                GmpspOptions, NnlqrOptions)
}
