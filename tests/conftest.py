import pytest

from repro.run import Run, run


@pytest.fixture
def idle_run():
    """A fresh idle run — nothing records, every part empty — in place of
    the current one for the test, as a freshly imported process has."""
    saved = run.swap(Run())
    yield run
    run.swap(saved)
