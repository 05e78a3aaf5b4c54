"""Fixtures shared by the test modules."""

import sys
from pathlib import Path

import pytest

from wallbounce import validation
from wallbounce.oracle import TailCaptureError

# the reference rules and runs live beside the files they pin, in reference/regenerate.py
sys.path.insert(0, str(Path(__file__).parent / "reference"))


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
