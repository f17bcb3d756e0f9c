import pytest

from repro.run import ObsConfig, observing


@pytest.fixture(autouse=True)
def _own_run():
    """Each test runs on a run of its own: whatever it arms or records
    goes away with the session."""
    with observing(ObsConfig()):
        yield
