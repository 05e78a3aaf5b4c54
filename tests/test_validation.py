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


def test_propagator_grids_have_fast_sine_transform_lengths():
    # C11's hand grids take the least odd count n whose n - 1 has no prime factor
    # above 7, so each of propagate's transforms is an FFT of length 2(n - 1)
    def smooth(k):
        for p in (2, 3, 5, 7):
            while k % p == 0:
                k //= p
        return k == 1

    for n in range(2, 3000):
        m = validation._smooth_odd_at_least(n)
        assert m >= n and m % 2 == 1 and smooth(m - 1), n
        assert not any(smooth(j - 1) for j in range(n | 1, m, 2)), n
    assert [validation._smooth_odd_at_least(n) for n in (8597, 17195)] == [8641, 17281]
