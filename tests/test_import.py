"""Package import side effects, checked in a fresh interpreter."""

import json
import os
import subprocess
import sys

import pytest

import switchdistill

SRC = os.path.dirname(os.path.dirname(os.path.abspath(switchdistill.__file__)))

PROBE = (
    "import sys; assert 'numpy' not in sys.modules; "
    "import os, switchdistill; print(os.environ['OPENBLAS_NUM_THREADS'])"
)


def imported_thread_setting(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("3", "3")])
def test_import_pins_openblas_threads_unless_preset(preset, expected):
    assert imported_thread_setting(preset) == expected


# A tiny one-teacher, two-student blob run: it calls every layer the tracer wraps but augmentation.
TRACED_RUN = """
import json, os, sys
import tracer
from switchdistill import cli

traced = tracer.Tracer()
tracer.install(traced)
cfg = os.path.join(sys.argv[1], "run.cfg")
with open(cfg, "w") as f:
    f.write("topology = 1t2s\\nepochs = 1\\nbatch_size = 16\\ndata.classes = 3\\ndata.dims = 6\\n"
            "data.per_class = 20\\nstudent.hidden = 4\\nteacher.hidden = 8\\nthird.hidden = 4\\n")
assert cli.main(["train", "--config", cfg, "--out", os.path.join(sys.argv[1], "run")]) == 0
print(json.dumps(traced.calls))
"""

# Every span the tracer opens on TRACED_RUN; datasets.augment needs an image workload.
TRACED_SPANS = {
    "config.build", "datasets.load", "training", "datasets.batches", "losses", "gap", "network.evaluate",
    "runio.write", "checkpoint.save",
    *(f"{layer}.{net}" for layer in ("network.forward", "network.backward", "optim.step")
      for net in ("teacher", "student", "student2")),
}


def test_benchmark_tracer_finds_every_name_it_patches(tmp_path):
    """perfbench/tracer.py wraps names of the package by attribute. A renamed name breaks traced runs, and a
    name the code no longer calls through would silently report 0 ms, so every span the tracer opens must see a call."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)], cwd=perfbench, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout.splitlines()[-1])
    assert set(calls) == TRACED_SPANS and min(calls.values()) >= 1, calls
