import os

import pytest

from levyhjm import _children


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each process it starts: none is left, running or
    exited, after it."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def blas_pins(monkeypatch):
    """The list that a spy on ``_children._one_blas_thread`` appends one
    entry to per entry into an OpenBLAS pin."""
    entries, pin = [], _children._one_blas_thread

    def counted():
        entries.append(None)
        return pin()

    monkeypatch.setattr(_children, "_one_blas_thread", counted)
    return entries
