"""Validation-runner machinery (criterion selection, error capture)."""

import numpy as np
import pytest

from wallbounce import validation
from wallbounce.validation import CRITERION_IDS, run_all


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError, match="unknown criterion"):
        run_all(criteria=["C42"])


def test_subset_preserves_order_and_fields():
    results = run_all(criteria=["C09", "C03"])
    assert [r.cid for r in results] == ["C03", "C09"]
    for r in results:
        assert r.passed
        assert r.description
        assert r.detail
        assert isinstance(r.measured, dict)


def test_criterion_ids_are_stable():
    assert CRITERION_IDS == [f"C{i:02d}" for i in range(1, 12)]


def test_check_error_is_captured_not_raised(failing_c02):
    results = run_all(criteria=["C02"])
    assert len(results) == 1
    assert not results[0].passed
    assert "TailCaptureError" in results[0].detail


def test_passed_is_stored_as_a_python_bool(monkeypatch):
    criteria = [(cid, d, lambda: (np.bool_(True), "numpy bool", {})) for cid, d, _ in validation._CRITERIA]
    monkeypatch.setattr(validation, "_CRITERIA", criteria)
    (result,) = run_all(criteria=["C01"])
    assert type(result.passed) is bool and result.passed
