"""Run one workload command through `switchdistill.cli.main` in a fresh interpreter.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds {"src": dir holding the switchdistill package, "argv": CLI args,
"setup_only": bool, "trace": bool}. Set-up runs from before the package
import up to the first call of `runio.run_training`, that is config parse,
validation and the first dataset build; run time is everything after it.
With "setup_only" the command stops at that point. RESULT receives the
exit code, set-up and run wall seconds, run CPU seconds over all threads,
peak resident memory and, with "trace", the layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class SetupDone(Exception):
    """Raised at the first training call of a set-up-only run."""


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    started = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from switchdistill import cli, runio

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks: dict[str, float] = {}
    run_training = runio.run_training

    def setup_boundary(*args, **kwargs):
        if "setup_end" not in marks:
            marks["setup_end"] = time.perf_counter()
            marks["cpu_at_setup_end"] = cpu_seconds()
            if tracer is not None:
                tracer.setup_end = marks["setup_end"]
            if spec["setup_only"]:
                raise SetupDone
        return run_training(*args, **kwargs)

    runio.run_training = setup_boundary
    try:
        code = cli.main(spec["argv"])
    except SetupDone:
        code = 0
    ended = time.perf_counter()
    cpu_end = cpu_seconds()
    if "setup_end" not in marks:
        code = code or 3  # the command never reached training
        marks = {"setup_end": ended, "cpu_at_setup_end": cpu_end}

    result = {
        "exit_code": code,
        "setup_s": marks["setup_end"] - started,
        "run_s": ended - marks["setup_end"],
        "cpu_s": cpu_end - marks["cpu_at_setup_end"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracing.summary(tracer)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
