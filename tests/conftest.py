import hypothesis
import pytest

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
