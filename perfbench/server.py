"""Benchmark server: one fresh process that imports wallbounce and serves requests.

Started by run.py as ``server.py ROOT WORKLOAD SEED TRACED RUN_DIR`` with the
library's source tree on PYTHONPATH and BLAS/OpenMP pinned to one thread.
It times its own set-up (import, seeded request generation, one warm-up
request) and reports that time with its peak RSS so far, the floor under
every request.  Then it answers one JSON line on stdout for each JSON
command line on stdin:

    {"op": "run", "index": i, "out": path}  -> latency, exit code, gate times
    {"op": "finish", "spans": path|null}    -> peak RSS; spans written once

Nothing else is written to stdout: the library's own messages go to stderr.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import spans
import workloads


def _run_validate(validation, out: str, tracer) -> dict:
    """run_all() with per-gate times taken from its progress callback."""
    marks = []
    gate = None

    def progress(message: str):
        nonlocal gate
        cid = message.split()[1].rstrip(":")
        if cid not in spans.GATES:
            raise RuntimeError(f"unexpected progress message {message!r}")
        marks.append((cid, time.perf_counter()))
        if tracer is not None and tracer.active:
            if gate is not None:
                tracer.end(gate)
            gate = tracer.begin(f"validation.{cid}")

    results = validation.run_all(progress=progress)
    if gate is not None:
        tracer.end(gate)
    marks.append((None, time.perf_counter()))
    with open(out, "w") as fh:
        json.dump(
            [
                {"id": r.cid, "passed": r.passed, "description": r.description,
                 "detail": r.detail, "measured": r.measured}
                for r in results
            ],
            fh, indent=1, sort_keys=True,
        )
    return {"gates": {cid: t1 - t0 for (cid, t0), (_, t1) in zip(marks, marks[1:])}}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv: list[str]) -> int:
    root, workload, seed, traced, run_dir = argv[0], argv[1], int(argv[2]), argv[3] == "1", argv[4]
    protocol = sys.stdout
    sys.stdout = sys.stderr

    t0 = time.perf_counter()
    import wallbounce
    from wallbounce import bouncer, cli, validation

    src = os.path.join(os.path.abspath(root), "src", "wallbounce")
    if os.path.dirname(os.path.abspath(wallbounce.__file__)) != src:
        print(f"imported {wallbounce.__file__}, not the checkout's {src}", file=sys.stderr)
        return 2
    requests = workloads.generate(workload, seed)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        spans.install(tracer, (cli, validation, bouncer))

    # a validate result has no grid metadata, so its sampled points are
    # counted here: a count-only hook, no clock reads, in both modes
    sampled = 0
    sample = validation.sample

    def counted_sample(wavefn, grid, t):
        nonlocal sampled
        sampled += grid.n_points
        return sample(wavefn, grid, t)

    validation.sample = counted_sample

    def serve(request: workloads.Request, out: str) -> dict:
        nonlocal sampled
        sampled = 0
        reply = {"exit": 0, "error": None}
        start = time.perf_counter()
        try:
            if request.command == "validate":
                reply.update(_run_validate(validation, out, tracer))
            elif tracer is not None and tracer.active:
                span = tracer.begin("cli")
                try:
                    reply["exit"] = cli.main(request.argv(out))
                finally:
                    tracer.end(span)
            else:
                reply["exit"] = cli.main(request.argv(out))
        except Exception:  # reported as a failed request, the server keeps serving
            reply["error"] = traceback.format_exc()
        reply["latency_s"] = time.perf_counter() - start
        reply["sampled_points"] = sampled
        return reply

    warm = workloads.warmup(workload)
    if warm.command == "validate":
        validation.run_all(criteria=["C10"])
    else:
        warm_out = os.path.join(run_dir, f"warmup-{os.getpid()}.out")
        cli.main(warm.argv(warm_out))
        os.remove(warm_out)
    setup_s = time.perf_counter() - t0

    def answer(message: dict):
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    answer({"setup_s": setup_s, "setup_rss_mb": _peak_rss_mb()})
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "run":
            if tracer is not None:
                tracer.request = command["index"]
                tracer.active = True
            reply = serve(requests[command["index"]], command["out"])
            if tracer is not None:
                tracer.active = False
            answer(reply)
        elif command["op"] == "finish":
            if tracer is not None and command.get("spans"):
                tracer.write(command["spans"])
            answer({"peak_rss_mb": _peak_rss_mb()})
            return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
