"""Self-tests of the benchmark: request generation, span arithmetic, output checks."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wallbounce import bouncer, cli, validation  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    if workload != "validate":
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_density_workloads_share_requests():
    csv_reqs = workloads.generate("density-csv", 3)
    json_reqs = workloads.generate("density-json", 3)
    assert [r.fmt for r in json_reqs] == ["json"] * len(json_reqs)
    assert [(r.kind, r.x0, r.p0, r.alpha, r.tmax, r.nt) for r in csv_reqs] == [
        (r.kind, r.x0, r.p0, r.alpha, r.tmax, r.nt) for r in json_reqs
    ]


@pytest.mark.parametrize("workload", ["series", "density-csv"])
def test_requests_stay_in_their_ranges(workload):
    for seed in range(5):
        for r in workloads.generate(workload, seed):
            assert 0.7 <= r.alpha <= 1.4
            if r.kind == "wall":
                assert r.x0 == 0.0 and r.p0 == 0.0
            else:
                assert -12.0 <= r.x0 <= -4.0 and 2.0 <= r.p0 <= 6.0
            if r.kind == "bouncer":
                assert 0.0 < r.tmax <= -2.0 * r.x0 / r.p0
            assert r.command != "autocorr" or r.kind in ("free", "bouncer")


def _span(sid, parent, name, start, end, points=0):
    return spans.Span(sid, parent, 0, name, start, end, points)


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        _span(0, None, "cli", 0, 100),
        _span(1, 0, "bouncer.psi_bouncer", 10, 40, points=3),
        _span(2, 1, "packets.psi_free", 20, 30, points=3),
        _span(3, 0, "oracle.moment_x", 50, 70),
        _span(4, 0, "oracle.moment_p", 60, 80),  # overlaps its sibling
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 100 - 30 - 30, 1: 30 - 10, 2: 10, 3: 20, 4: 20}
    m = spans.layer_metrics(tree, records=8, bytes_out=100, overhead_s=0.5)
    assert m["cli.self_s"] == 40e-9
    assert m["cli.self_us_per_record"] == pytest.approx(40e-9 * 1e6 / 8)
    assert m["bouncer.psi_bouncer.self_ns_per_point"] == pytest.approx(20 / 3)
    assert m["packets.psi_free.ns_per_point"] == pytest.approx(10 / 3)
    assert m["oracle.propagate.s"] == 0.0 and m["trace.overhead_s"] == 0.5
    assert list(m) == [name for name, _, _ in spans.PER_LAYER]


def test_errors_count_once_where_they_were_raised():
    tree = [
        _span(0, None, "cli", 0, 10),
        _span(1, 0, "oracle.moment_p", 1, 5),
        _span(2, 0, "oracle.sample", 6, 8),
    ]
    tree[0].error = tree[1].error = "StencilConvergenceError"
    assert spans.layer_metrics(tree, 0, 0, 0.0)["oracle.errors"] == 1


def test_tracing_leaves_cli_output_unchanged(tmp_path):
    request = workloads.Request("moments", "bouncer", -10.0, 5.0, 1.0, 1.0, 3)
    assert cli.main(request.argv(str(tmp_path / "plain.csv"))) == 0
    modules = (cli, validation, bouncer)
    saved = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    try:
        assert spans.install(tracer, modules) > 10
        tracer.active = True
        assert cli.main(request.argv(str(tmp_path / "traced.csv"))) == 0
    finally:
        for module, names in zip(modules, saved):
            vars(module).update(names)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    names = {s.name for s in tracer.spans}
    assert {"bouncer.psi_bouncer", "packets.psi_free", "oracle.sample", "oracle.moment_p"} <= names
    psi = [s for s in tracer.spans if s.name == "packets.psi_free"]
    assert all(tracer.spans[s.parent].name == "bouncer.psi_bouncer" for s in psi)


def _corrupt_digit(text: str, start: int) -> str:
    """Change the first digit found from start + 3 on (past any sign, leading
    digit and point), so one value moves in about its third significant digit."""
    i = next(i for i in range(start + 3, len(text)) if text[i].isdigit())
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_checker_rejects_one_corrupted_density_value(tmp_path, fmt):
    request = workloads.Request("density", "bouncer", -6.0, 3.0, 1.0, 1.5, 3, fmt)
    out = tmp_path / "density.out"
    assert cli.main(request.argv(str(out))) == 0
    outcome = checks.check(request, out)
    assert outcome.records == outcome.points and outcome.records % 3 == 0
    text = out.read_bytes().decode()
    # the density of a row in the middle of the file
    if fmt == "json":
        start = text.index('"density": ', len(text) // 2) + len('"density": ')
    else:
        row_start = text.index("\r\n", len(text) // 2) + 2
        start = text.index(",", text.index(",", row_start) + 1) + 1
    out.write_bytes(_corrupt_digit(text, start).encode())
    with pytest.raises(checks.CheckError):
        checks.check(request, out)


@pytest.mark.parametrize("damage", ["truncated-json", "ragged-csv", "non-numeric-csv", "missing"])
def test_checker_fails_an_unreadable_output(tmp_path, damage):
    fmt = "json" if damage.endswith("json") else "csv"
    request = workloads.Request("density", "wall", 0.0, 0.0, 1.0, 1.0, 2, fmt)
    out = tmp_path / "density.out"
    assert cli.main(request.argv(str(out))) == 0
    text = out.read_bytes().decode()
    mid = text.index("\r\n", len(text) // 2) + 2 if fmt == "csv" else len(text) // 2
    if damage == "truncated-json":
        out.write_text(text[:mid])
    elif damage == "ragged-csv":  # one extra cell in a row
        out.write_bytes((text[:mid] + "0," + text[mid:]).encode())
    elif damage == "non-numeric-csv":
        out.write_bytes((text[:mid] + "x" + text[mid + 1:]).encode())
    else:
        out.unlink()
    with pytest.raises(checks.CheckError) as failed:
        checks.check(request, out)
    assert failed.value.failed == 1


def _validate_result(path, failing=()):
    path.write_text(json.dumps([
        {"id": cid, "passed": cid not in failing, "description": "", "detail": "", "measured": {}}
        for cid in validation.CRITERION_IDS
    ]))
    return path


def test_checker_counts_each_failed_gate(tmp_path):
    request = workloads.Request("validate")
    assert checks.check(request, _validate_result(tmp_path / "ok.json")) == checks.Outcome(11, 0)
    with pytest.raises(checks.CheckError) as failed:
        checks.check(request, _validate_result(tmp_path / "bad.json", failing=("C07",)))
    assert failed.value.failed == 1


def test_checker_fails_every_gate_of_an_unreadable_validate_result(tmp_path):
    truncated = _validate_result(tmp_path / "validate.json")
    truncated.write_text(truncated.read_text()[:100])
    with pytest.raises(checks.CheckError) as failed:
        checks.check(workloads.Request("validate"), truncated)
    assert failed.value.failed == len(validation.CRITERION_IDS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value = run.tail([float(x) for x in reversed(range(40))])
    assert pct == pytest.approx(100 * 29 / 39) and value == pytest.approx(29.0)
    assert sum(x > value for x in range(40)) == 10
    assert run.tail([3.0]) == (100.0, 3.0)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert spec["paths"] == ["perfbench"]
