import random

import pytest
from hypothesis import settings

# property tests call the real pipeline functions, whose first call can be
# slow (resource loading, numpy import); no per-example deadline
settings.register_profile("identminer", deadline=None)
settings.load_profile("identminer")


@pytest.fixture
def rng():
    return random.Random(20240601)
