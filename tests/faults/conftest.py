import pytest

from repro.run import ObsConfig, observing


@pytest.fixture(autouse=True)
def _own_run():
    """Each test runs on a run of its own, so an armed plan never
    outlives the test that armed it."""
    with observing(ObsConfig()):
        yield
