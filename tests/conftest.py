import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each process it starts: none is left, running or
    exited, after it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
