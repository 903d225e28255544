import numpy as np
import pytest


@pytest.fixture
def count_linalg(monkeypatch):
    """A function that starts recording every numpy.linalg call.

    It returns the list it appends (name, shape of the first argument) to.
    """

    def start():
        calls = []
        for name in np.linalg.__all__:
            orig = getattr(np.linalg, name)
            if not callable(orig) or isinstance(orig, type):
                continue

            def counted(a, *args, _orig=orig, _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _orig(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    return start
