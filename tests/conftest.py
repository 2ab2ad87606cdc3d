import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def suite_report():
    """The full verification suite, run once and shared across test modules."""
    from zinbiel5.catalog import SuiteConfig, verify_all

    return verify_all(SuiteConfig())


@pytest.fixture(scope="session")
def suite_checks(suite_report):
    return {c.name: c for c in suite_report.checks}


@pytest.fixture(scope="session")
def qi_moved_z05():
    """(A, B): Z_05 and Z_05 in the Q(i) basis f_i = (1+i) e_i + i e_(i+1)."""
    from zinbiel5.algebra import change_basis
    from zinbiel5.catalog import instantiate
    from zinbiel5.exactmath import ZERO, ExactMatrix, grat

    A = instantiate("Z_05")
    n = A.dim
    P = ExactMatrix([[grat("1+i") if i == j else grat("i") if j == i + 1 else ZERO
                      for j in range(n)] for i in range(n)])
    return A, change_basis(A, P)
