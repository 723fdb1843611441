import contextlib
import io
import json

import hypothesis
import pytest

from radicant.cli import main
from radicant.field import make_field

hypothesis.settings.register_profile("ci", max_examples=60, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def F11():
    return make_field(11)


@pytest.fixture(scope="session")
def F13():
    return make_field(13)


@pytest.fixture(scope="session")
def F31():
    return make_field(31)


@pytest.fixture(scope="session")
def verify_all():
    """(exit code, payload) of `radicant verify --scope all --timings` at
    seed 0, run once for the golden rows and the acceptance criteria."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--scope", "all", "--seed", "0", "--timings"])
    return code, json.loads(out.getvalue())
