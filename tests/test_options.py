"""Every config setting is declared once, on its dataclass field: its
value is a number or a word, its class's ``bounds`` and ``choices`` say
which values are legal, and construction checks them.  One checker
serves the options classes, ``ChiefOrbit`` and ``FormationParams``."""

import dataclasses
import math

import numpy as np
import pytest

from formation_guidance.dynamics import ChiefOrbit, DynamicsError, FormationParams, GravityModel
from formation_guidance.harness import Scenario
from formation_guidance.options import (
    COMPARISONS,
    CONTROLLER_OPTIONS,
    FsdreOptions,
    LqrOptions,
    MpspOptions,
    NnlqrOptions,
    SdreOptions,
)

#: Every checked class, with values for its fields that have no default.
CHECKED = {**{cls: {} for cls in CONTROLLER_OPTIONS.values()},
           ChiefOrbit: {"a": 10000.0}, FormationParams: {"rho": 1.0}}

BOUNDS = [(cls, name, comparison, bound)
          for cls in CHECKED
          for name, pairs in cls.bounds.items()
          for comparison, bound in pairs]
CHOICES = [(cls, name, words)
           for cls in CHECKED
           for name, words in cls.choices.items()]
NUMBER_FIELDS = [(cls, f.name)
                 for cls in CHECKED
                 for f in dataclasses.fields(cls)
                 if f.name not in cls.choices and not isinstance(f.default, bool)]


def _makers(cls):
    """Build ``cls`` with one field changed: by its constructor and by
    ``dataclasses.replace`` of its defaults."""
    required = CHECKED[cls]
    return (lambda **kw: cls(**{**required, **kw}),
            lambda **kw: dataclasses.replace(cls(**required), **kw))


def _ids(params):
    """``kind.field``, or ``Class.field`` for a class without a kind."""
    return [f"{getattr(p[0], 'kind', p[0].__name__)}.{p[1]}" for p in params]


# A field with several bounds has one case per bound.
BOUND_IDS = [label + (f"{comparison}{bound}" if len(cls.bounds[name]) > 1 else "")
             for label, (cls, name, comparison, bound) in zip(_ids(BOUNDS), BOUNDS)]


def test_bounds_and_choices_are_those_of_the_config_grammar():
    positive = ((">", 0),)
    assert LqrOptions.bounds == {"q_weight": positive, "r_weight": positive}
    assert SdreOptions.bounds == {**LqrOptions.bounds, "series_order": ((">=", 1),)}
    assert FsdreOptions.bounds == {**SdreOptions.bounds, "q_weight": ((">=", 0),)}
    assert MpspOptions.bounds == {"r_weight": positive, "tol_pct": positive,
                                  "max_iter": ((">=", 0),)}
    assert NnlqrOptions.bounds == {**LqrOptions.bounds, "r1": positive, "k_tau": positive,
                                   "beta": positive, "gamma": positive}
    assert ChiefOrbit.bounds == {"a": positive, "e": ((">=", 0), ("<", 1))}
    assert FormationParams.bounds == {"rho": ((">=", 0),)}
    assert SdreOptions.choices == FsdreOptions.choices == {"variant": ("SDC1", "SDC2")}
    assert NnlqrOptions.choices == {"basis": ("grid", "global")}
    assert ChiefOrbit.choices == FormationParams.choices == {}
    for cls in CHECKED:
        names = [f.name for f in dataclasses.fields(cls)]
        assert set(cls.bounds) <= set(names) and set(cls.choices) <= set(names)
        assert {comparison for pairs in cls.bounds.values() for comparison, _ in pairs} <= set(
            COMPARISONS)


def test_dynamics_classes_raise_dynamics_error_and_options_value_error():
    with pytest.raises(DynamicsError, match="^e must be < 1, got 1.0$"):
        ChiefOrbit(a=10000.0, e=1.0)
    with pytest.raises(DynamicsError, match="^rho must be finite, got nan$"):
        FormationParams(rho=math.nan)
    with pytest.raises(ValueError) as caught:
        LqrOptions(q_weight=0.0)
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("cls, name, comparison, bound", BOUNDS, ids=BOUND_IDS)
def test_value_at_the_bound_follows_its_comparison(cls, name, comparison, bound):
    step = 1 if isinstance(getattr(cls(**CHECKED[cls]), name), int) else 1e-9
    accepted, rejected = {">": ([bound + step], bound), ">=": ([bound, bound + step], bound - step),
                          "<": ([bound - step], bound)}[comparison]
    for make in _makers(cls):
        for value in accepted:
            assert getattr(make(**{name: value}), name) == value
        assert not COMPARISONS[comparison](rejected, bound)
        with pytest.raises(ValueError,
                           match=f"^{name} must be {comparison} {bound}, got {rejected!r}$"):
            make(**{name: rejected})


@pytest.mark.parametrize("cls, name", NUMBER_FIELDS, ids=_ids(NUMBER_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_number_rejected(cls, name, value):
    for make in _makers(cls):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            make(**{name: value})


@pytest.mark.parametrize("cls, name, value, what", [
    (MpspOptions, "max_iter", 2.5, "an integer"),
    (MpspOptions, "max_iter", True, "an integer"),
    (SdreOptions, "series_order", 2.5, "an integer"),
    (SdreOptions, "series_order", True, "an integer"),
    (LqrOptions, "open_loop", 2.0, "true or false"),
    (LqrOptions, "open_loop", 1, "true or false"),
    (FsdreOptions, "open_loop", 0.0, "true or false"),
])
def test_count_or_flag_of_another_type_rejected(cls, name, value, what):
    for make in _makers(cls):
        with pytest.raises(ValueError, match=f"^{name} must be {what}, got {value!r}$"):
            make(**{name: value})


def test_counts_and_flags_of_their_type_accepted():
    for make in _makers(MpspOptions):
        assert make(max_iter=np.int64(3)).max_iter == 3
    for make in _makers(LqrOptions):
        assert make(open_loop=True).open_loop is True


@pytest.mark.parametrize("cls, name, words", CHOICES, ids=_ids(CHOICES))
def test_words_outside_the_choices_rejected(cls, name, words):
    for make in _makers(cls):
        for word in words:
            assert getattr(make(**{name: word}), name) == word
        for word in (words[0] + "x", "", None):
            with pytest.raises(ValueError, match=f"^{name} must be one of "
                                                 f"{', '.join(words)}, got {word!r}$"):
                make(**{name: word})


class TestValueSemantics:
    def test_options_compare_and_hash_by_value(self):
        assert LqrOptions() == LqrOptions()
        assert hash(SdreOptions()) == hash(SdreOptions())
        assert SdreOptions(r_weight=1e8) != SdreOptions()
        assert LqrOptions() != NnlqrOptions()
        assert len({cls() for cls in CONTROLLER_OPTIONS.values()}) == len(CONTROLLER_OPTIONS)

    def test_scenario_compares_and_hashes(self):
        def scenario(**options):
            return Scenario(
                chief=ChiefOrbit(a=10000.0), gravity=GravityModel(),
                initial=FormationParams(rho=1.0), desired=FormationParams(rho=2.0),
                tf=10.0, dt=1.0, controller=NnlqrOptions(**options),
            )

        assert scenario() == scenario()
        assert hash(scenario(q_weight=200.0)) == hash(scenario(q_weight=200.0))
        assert scenario(q_weight=200.0) != scenario()

    def test_weight_matrices_are_derived_once_and_read_only(self):
        options = NnlqrOptions(q_weight=200.0, r_weight=3e9)
        assert options.Q is options.Q and options.R is options.R
        np.testing.assert_array_equal(options.Q, 200.0 * np.eye(6))
        np.testing.assert_array_equal(options.R, 3e9 * np.eye(3))
        np.testing.assert_array_equal(MpspOptions(r_weight=5.0).R, 5.0 * np.eye(3))
        np.testing.assert_array_equal(FsdreOptions().Q, np.zeros((6, 6)))
        with pytest.raises(ValueError, match="read-only"):
            options.Q[0, 0] = 1.0
        assert dataclasses.replace(options, q_weight=1.0).Q[0, 0] == 1.0
        assert options.Q[0, 0] == 200.0
