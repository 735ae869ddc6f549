import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def pytest_configure(config):
    # read by pytest-timeout where it is installed; registered so that
    # runs without the plugin accept the mark silently
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test deadline (pytest-timeout)")


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_pages(tmp_path_factory):
    """1,000-row deterministic page corpus in 4 parts (FIXTURES.md 'tiny')."""
    from snowplow_elasticsearch_loader_ray.sources import synth

    d = tmp_path_factory.mktemp("pages_tiny")
    paths = synth.generate_pages(str(d), n_rows=1000, n_parts=4)
    return str(d), paths
