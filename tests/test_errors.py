"""The package's exceptions survive pickle and copy.

An exception pickles as ``(type(exc), exc.args)`` plus its ``__dict__``,
so a class with its own ``__init__`` must hand ``Exception.__init__`` the
arguments it takes, not a message built from them; the message is built
in ``__str__``.  The texts below are the ones the messages had when they
were built in ``__init__``.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from dispgeo import errors

# (constructor arguments, attributes, str) per class with its own __init__
CASES = {
    errors.HypothesisViolated: [
        (("|g| = 3 < pair_offset = 12", 2), {"index": 2},
         "|g| = 3 < pair_offset = 12"),
        (("no index",), {"index": None}, "no index"),
    ],
    errors.NotPingPong: [
        ((2, Fraction(-3, 2)), {"condition": 2, "margin": Fraction(-3, 2)},
         "not a ping-pong pair: condition 2 fails (margin -3/2)"),
        ((1, -100), {"condition": 1, "margin": -100},
         "not a ping-pong pair: condition 1 fails (margin -100)"),
    ],
    errors.SeparationFailed: [
        ((0.25, 0.5), {"separation": 0.25, "r": 0.5},
         "separation 0.25 < r = 0.5"),
    ],
    errors.ContractionFailed: [
        (((0.6, 0.8), 0.0625, 0.05),
         {"witness": (0.6, 0.8), "distance": 0.0625, "epsilon": 0.05},
         "contraction fails at (0.6, 0.8): distance 0.0625 > epsilon = 0.05"),
    ],
    errors.ResourceExceeded: [
        (("ball table exceeded 10 entries", 11), {"count": 11},
         "ball table exceeded 10 entries"),
    ],
}


def test_every_class_with_its_own_init_is_covered():
    own_init = {cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, Exception)
                and "__init__" in vars(cls)}
    assert own_init == set(CASES)


@pytest.mark.parametrize("cls, args, attrs, text", [
    (cls, *case) for cls, cases in CASES.items() for case in cases],
    ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_pickle_and_copy_keep_type_text_and_attributes(cls, args, attrs,
                                                        text):
    exc = cls(*args)
    assert str(exc) == text
    for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc),
                  copy.deepcopy(exc)):
        assert type(clone) is cls
        assert str(clone) == text
        assert clone.args == exc.args
        for name, value in attrs.items():
            assert getattr(clone, name) == value, name
