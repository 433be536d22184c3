"""Package import side effects, checked in a fresh interpreter."""

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


def test_benchmark_tracer_finds_every_name_it_patches():
    """perfbench/tracer.py wraps names of the package by attribute; renaming one breaks traced benchmark runs."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import tracer; tracer.install(tracer.Tracer())"
    out = subprocess.run([sys.executable, "-c", probe], cwd=perfbench, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
