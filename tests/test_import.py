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


# A tiny one-teacher, two-student blob run, which calls every layer the tracer wraps but augmentation, then a
# compare of a dml and a switch pair. The output checks' problems are not asserted: a one-epoch toy run need
# not show both modes or beat chance. The optimizer steps the tracer counted must match the written logs.
TRACED_RUN = """
import json, os, sys
import checks, tracer
from switchdistill import cli

traced = tracer.Tracer()
tracer.install(traced)

def config(name, text):
    path = os.path.join(sys.argv[1], name + ".cfg")
    with open(path, "w") as f:
        f.write("epochs = 1\\nbatch_size = 16\\ndata.classes = 3\\ndata.dims = 6\\ndata.per_class = 20\\n"
                "student.hidden = 4\\nteacher.hidden = 8\\n" + text)
    return path

run, cmp = os.path.join(sys.argv[1], "run"), os.path.join(sys.argv[1], "cmp")
assert cli.main(["train", "--config", config("triple", "topology = 1t2s\\nthird.hidden = 4\\n"), "--out", run]) == 0
pairs = [config("dml", "strategy = dml\\n"), config("switch", "strategy = switch\\n")]
assert cli.main(["compare", "--configs", *pairs, "--out", cmp]) == 0
runs = checks.check_output(run, compare=False)[0] + checks.check_output(cmp, compare=True)[0]
print(json.dumps({"calls": traced.calls, "steps": checks.check_steps(runs, tracer.summary(traced)["steps"])}))
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
    name the code no longer calls through would silently report 0 ms, so every span the tracer opens must see a call.
    The benchmark's traced rounds also count each network's optimizer steps through those wrappers, which fails
    when training moves off them."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path)], cwd=perfbench, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    traced = json.loads(out.stdout.splitlines()[-1])
    assert set(traced["calls"]) == TRACED_SPANS and min(traced["calls"].values()) >= 1, traced["calls"]
    assert traced["steps"] == [], traced["steps"]  # the benchmark's check_steps, on a train and a compare
