"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines."""

import json
from pathlib import Path

import pytest

from wallbounce.validation import CRITERION_IDS, run_all

#: run_all()'s measured values, written by tests/reference/regenerate.py
MEASURED = Path(__file__).parent / "reference" / "measured.json"


@pytest.fixture(scope="module")
def results():
    return {r.cid: r for r in run_all()}


def test_report_lists_each_criterion_exactly_once():
    cids = [r.cid for r in run_all(criteria=["C03", "C09", "C10"])]
    assert cids == ["C03", "C09", "C10"]
    assert len(CRITERION_IDS) == len(set(CRITERION_IDS)) == 11


def test_results_serialize_as_json(results):
    # a numpy bool from a check would make json.dump fail for every gate
    assert all(type(r.passed) is bool for r in results.values())
    json.dumps([(r.passed, r.measured) for r in results.values()])


@pytest.mark.parametrize("cid", CRITERION_IDS)
def test_criterion(results, cid):
    r = results[cid]
    print(f"{'PASS' if r.passed else 'FAIL'} {r.cid}: {r.description} | {r.detail}")
    assert r.passed, f"{r.cid} failed: {r.detail}"


def test_measured_values_match_the_reference(results):
    # ints and bools exactly, floats to round-off: max(1e-14, 1e-10*|v|)
    reference = json.loads(MEASURED.read_text())
    assert list(reference) == CRITERION_IDS
    for cid, want in reference.items():
        got = results[cid].measured
        assert list(got) == list(want), cid
        for key, value in want.items():
            if type(value) is float:
                bound = max(1e-14, 1e-10 * abs(value))
                assert isinstance(got[key], float) and abs(got[key] - value) <= bound, (cid, key, got[key], value)
            else:
                assert type(got[key]) is type(value) and got[key] == value, (cid, key, got[key], value)
