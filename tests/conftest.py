"""Fixtures shared by the test modules."""

import pytest

from wallbounce import validation
from wallbounce.oracle import TailCaptureError


@pytest.fixture
def failing_c02(monkeypatch):
    """Gate C02's check raises a TailCaptureError, as a grid that cuts the packet would."""

    def check():
        raise TailCaptureError("psi is not negligible at the grid edge")

    criteria = [
        (cid, description, check if cid == "C02" else gate)
        for cid, description, gate in validation._CRITERIA
    ]
    monkeypatch.setattr(validation, "_CRITERIA", criteria)
