import inspect
import pickle

import pytest

import bomi.errors as errors

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.BomiError)]


def test_every_error_is_listed():
    defined = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert ERRORS == defined and errors.ParseError in ERRORS


# run_all's workers send their typed errors to the parent pickled.
@pytest.mark.parametrize(
    "error",
    [cls("bad value") for cls in ERRORS] + [errors.ParseError("bad token", line=7)],
    ids=lambda e: f"{type(e).__name__}{vars(e) or ''}",
)
def test_error_survives_a_pickle_round_trip(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
