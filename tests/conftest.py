import math

import pytest
from hypothesis import settings

# reproducible property runs: fixed example generation, no wall-clock deadline
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def fsum_calls(monkeypatch) -> list:
    """A copy of every list math.fsum receives, in the order it receives them."""
    seen = []
    fsum = math.fsum

    def recording(terms):
        seen.append(list(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", recording)
    return seen
