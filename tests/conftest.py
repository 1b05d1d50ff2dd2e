import numpy as np
import pytest


@pytest.fixture
def draw_sizes(monkeypatch):
    """The size of every batch of uniforms drawn while the test runs, seen
    through a patched ``np.random.Generator``."""
    sizes = []
    real = np.random.Generator

    class Spy:
        def __init__(self, bit_generator):
            self._gen = real(bit_generator)

        def random(self, size):
            sizes.append(size)
            return self._gen.random(size)

    monkeypatch.setattr(np.random, "Generator", Spy)
    return sizes
