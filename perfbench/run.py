"""The wallbounce benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload is served by a fresh single-threaded server
process (server.py) while this process acts as the one closed-loop
client: it sends the next request only after the previous one has
answered and its output has been checked.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the request set once untraced and
once traced, checks the two runs wrote byte-identical outputs, and
prints the per-layer metrics.  The last line of stdout is the result
object; the line before it records the machine, versions and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 9
#: every run ends within this many seconds, or fails without a result
DEADLINE_S = 170.0
TAIL_BEYOND = 10
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: (name, unit, better) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("request_p50_s", "s", "lower"),
    ("request_tail_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("records_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


class BenchError(Exception):
    """The benchmark could not run; it exits nonzero without a result."""


class Server:
    """A server.py child process and its line protocol."""

    def __init__(self, workload: str, seed: int, traced: bool, run_dir: Path, deadline: float):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        env.update({name: "1" for name in THREAD_VARS})
        self._deadline = deadline
        self._proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"), str(ROOT), workload,
             str(seed), "1" if traced else "0", str(run_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
        )
        try:
            ready = self._receive()
        except BaseException:
            self.close()
            raise
        self.setup_s, self.setup_rss_mb = ready["setup_s"], ready["setup_rss_mb"]

    def _receive(self) -> dict:
        remaining = self._deadline - time.monotonic()
        ready, _, _ = select.select([self._proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise BenchError(f"server gave no answer within the {DEADLINE_S:g} s run limit")
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited with code {self._proc.wait()}")
        return json.loads(line)

    def ask(self, message: dict) -> dict:
        self._proc.stdin.write(json.dumps(message) + "\n")
        self._proc.stdin.flush()
        return self._receive()

    def finish(self, spans_path: Path | None = None) -> float:
        peak = self.ask({"op": "finish", "spans": str(spans_path) if spans_path else None})["peak_rss_mb"]
        self._proc.wait(timeout=max(self._deadline - time.monotonic(), 1.0))
        return peak

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Pass:
    """One pass of the fixed request set."""

    latencies: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    records: int = 0
    cli_records: int = 0
    cli_bytes: int = 0
    points: int = 0
    gates: dict = field(default_factory=dict)


def run_pass(server: Server, requests, run_dir: Path, checks, expected: list[str] | None = None) -> Pass:
    """Send each request in turn and check its output before sending the next.

    The first pass runs the full output checks.  A later pass, given the
    first pass's digests as ``expected``, only checks that each output is
    byte-identical to the one already checked; its counts stay zero.
    """
    result = Pass()
    for index, request in enumerate(requests):
        out = run_dir / f"out-{index}"
        reply = server.ask({"op": "run", "index": index, "out": str(out)})
        units = checks.units(request)
        result.attempted += units
        result.latencies.append(reply["latency_s"])
        result.gates.update(reply.get("gates", {}))
        digest = "failed"
        try:
            if reply["error"] is not None or reply["exit"] != 0:
                raise checks.CheckError(reply["error"] or f"exit code {reply['exit']}", failed=units)
            try:
                data = out.read_bytes()
            except OSError as exc:
                raise checks.CheckError(f"no output: {exc}", failed=units) from exc
            if expected is not None:
                if hashlib.sha256(data).hexdigest() != expected[index]:
                    raise checks.CheckError("output differs from the checked first pass", failed=units)
            else:
                outcome = checks.check(request, out)
                result.records += outcome.records
                result.points += reply["sampled_points"] if request.command == "validate" else outcome.points
                if request.command != "validate":
                    result.cli_records += outcome.records
                    result.cli_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
        except checks.CheckError as exc:
            print(f"request {index} {request}: FAILED: {exc}", file=sys.stderr)
            result.failed += exc.failed
        result.digests.append(digest)
        if out.exists():
            out.unlink()
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least TAIL_BEYOND
    latencies beyond it.

    The percentile depends only on the number of requests in a pass, so it
    is the same on every commit.  With at most TAIL_BEYOND requests there
    is none; then the maximum (percentile 100) is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    pct = 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1) if n > TAIL_BEYOND else 100.0
    pos = pct / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return pct, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def untraced(workload: str, seed: int, seconds: float, run_dir: Path, deadline: float, checks):
    requests = workloads.generate(workload, seed)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        with Server(workload, seed, False, run_dir, deadline) as server:
            setups.append(server.setup_s)
            server.finish()
    with Server(workload, seed, False, run_dir, deadline) as server:
        setups.append(server.setup_s)
        start = time.monotonic()
        passes = [run_pass(server, requests, run_dir, checks)]
        last = time.monotonic() - start
        # whole passes only, none that would end past --seconds
        while time.monotonic() - start + last <= seconds:
            begun = time.monotonic()
            passes.append(run_pass(server, requests, run_dir, checks, passes[0].digests))
            last = time.monotonic() - begun
        peak_rss_mb = server.finish()
    # each request's median over the passes, which are seconds apart, so a
    # slow spell of the shared machine during one pass does not count
    latencies = [statistics.median(p.latencies[i] for p in passes) for i in range(len(requests))]
    wall_s = sum(latencies)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": tail_s,
        "points_per_s": passes[0].points / wall_s,
        "records_per_s": passes[0].records / wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "tail_percentile": round(pct, 2),
        "latency_samples": len(latencies),
        "setup_samples_s": setups,
        "setup_rss_mb": server.setup_rss_mb,
        "pass_wall_s": [sum(p.latencies) for p in passes],
        "points_per_pass": passes[0].points,
        "records_per_pass": passes[0].records,
        "gate_s": passes[0].gates,
    }
    return passes, metrics, END_TO_END, info


def traced(workload: str, seed: int, run_dir: Path, deadline: float, checks):
    requests = workloads.generate(workload, seed)
    with Server(workload, seed, False, run_dir, deadline) as server:
        plain = run_pass(server, requests, run_dir, checks)
        server.finish()
    spans_path = RUN_DIR / f"spans-{workload}-{seed}.jsonl"
    with Server(workload, seed, True, run_dir, deadline) as server:
        # tracing must not change what the program computes: every traced
        # output has to be byte-identical to the untraced one
        spanned = run_pass(server, requests, run_dir, checks, plain.digests)
        server.finish(spans_path)
    metrics = spans.layer_metrics(
        spans.read_spans(spans_path), plain.cli_records, plain.cli_bytes,
        sum(spanned.latencies) - sum(plain.latencies),
    )
    info = {
        "outputs_identical": spanned.failed == 0,
        "untraced_wall_s": sum(plain.latencies),
        "traced_wall_s": sum(spanned.latencies),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return [plain, spanned], metrics, spans.PER_LAYER, info


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wallbounce").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "wallbounce" / "__init__.py").is_file():
        print(f"error: no wallbounce source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import checks

    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, spec, info = traced(args.workload, args.seed, run_dir, deadline, checks)
        else:
            passes, metrics, spec, info = untraced(
                args.workload, args.seed, args.seconds, run_dir, deadline, checks
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), python=sys.version.split()[0], numpy=numpy.__version__,
        scipy=scipy.__version__, git_sha=_git_sha(), source_digest=_source_digest(),
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
