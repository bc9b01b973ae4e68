import pytest
from hypothesis import HealthCheck, settings

from redeiperm import construct, make_field

settings.register_profile(
    "exact", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with construct's memos of F empty, so a test that
    patches a cross-check or counts gh_coeffs calls sees F built again."""
    construct._redei_pair.cache_clear()
    construct._factor_values.cache_clear()


@pytest.fixture(scope="session")
def q3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def q5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def q7():
    return make_field(7, 1)


@pytest.fixture(scope="session")
def q9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def q11():
    return make_field(11, 1)


@pytest.fixture(scope="session")
def q13():
    return make_field(13, 1)


@pytest.fixture(scope="session")
def q25():
    return make_field(5, 2)
