import math

import pytest
from hypothesis import settings

from gftpoisson import CoefficientSeq

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


@pytest.fixture
def seq_inits(monkeypatch) -> list:
    """The convention of every CoefficientSeq built through its constructor."""
    seen = []
    init = CoefficientSeq.__init__

    def recording(self, convention, *args):
        seen.append(convention)
        init(self, convention, *args)

    monkeypatch.setattr(CoefficientSeq, "__init__", recording)
    return seen
