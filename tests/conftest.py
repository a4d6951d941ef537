import pytest

from ordered_hamming import Instance, SchemeParams, structure_report
from ordered_hamming.cli import SUITE_INSTANCES


@pytest.fixture(scope="session")
def report_for():
    """Memoized structure reports; the big instances are expensive to remeasure."""
    cache = {}

    def get(q, n):
        key = (tuple(q), n)
        if key not in cache:
            cache[key] = structure_report(Instance(SchemeParams(*key)))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def suite_params():
    return [SchemeParams(q, n) for q, n in SUITE_INSTANCES]
