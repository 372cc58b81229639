"""Benchmark fixtures and the ``bench`` marker.

Every module here regenerates one paper figure, table or ablation
exactly once via ``benchmark.pedantic(..., rounds=1, iterations=1)``
(pytest-benchmark); the timing records the cost of regenerating that
figure. Run with ``pytest benchmarks/ --benchmark-only -s``. Performance
of the simulator itself is measured by ``perfbench/`` (see
``perfbench/README.md``).

Everything collected under ``benchmarks/`` carries the ``bench`` marker
(registered in ``pyproject.toml`` and here for standalone rootdirs), so
``pytest -m "not bench"`` deselects the lot from any mixed run.
"""

from __future__ import annotations

import pytest

from repro.testbed import HPAV500_PRESET, build_testbed
from repro.testbed.experiments import night_start, working_hours_start


def pytest_configure(config):
    # Benchmarks live outside the default testpaths; register the
    # marker here too so `pytest benchmarks/` from a bare rootdir never
    # warns about (or strict-fails on) an unknown marker.
    config.addinivalue_line(
        "markers",
        "bench: paper figure/table regenerations under benchmarks/; "
        "deselect with -m 'not bench'")


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def testbed():
    return build_testbed(seed=7)


@pytest.fixture(scope="session")
def testbed_av500():
    return build_testbed(seed=7, preset=HPAV500_PRESET)


@pytest.fixture(scope="session")
def t_work():
    return working_hours_start()


@pytest.fixture(scope="session")
def t_night():
    return night_start()


def run_once(benchmark, func):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture()
def once(benchmark):
    def _run(func):
        return run_once(benchmark, func)
    return _run
