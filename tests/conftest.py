"""Shared fixtures; the reference-task runs are expensive and reused."""

import os
import time

# One OpenBLAS thread, as the CLI runs: the pin in switchdistill's __init__ comes
# too late once NumPy is loaded, so set it before the imports below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from switchdistill.datasets import generate_blobs
from switchdistill.gap import MODES, mode_stats
from switchdistill.training import NetworkDef, OptimizerSettings, TrainConfig, train_pair

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

REFERENCE_SEEDS = (0, 1, 2, 3, 4)


def reference_config(strategy: str, seed: int) -> TrainConfig:
    """Wide teacher vs narrow student on the fixed 4-class blob task."""
    return TrainConfig(
        strategy=strategy,
        epochs=100,
        batch_size=32,
        seed=seed,
        student=NetworkDef(
            hidden=(16,), opt=OptimizerSettings(kind="adam", lr=0.005, momentum=0.9, weight_decay=1e-4)
        ),
        teacher=NetworkDef(
            hidden=(256, 256), opt=OptimizerSettings(kind="adam", lr=0.02, momentum=0.9, weight_decay=1e-4)
        ),
    )


@pytest.fixture(scope="session")
def reference_runs():
    """Switch/dml/vanilla on the reference task for five training seeds.

    Returns per-seed summaries: timeline stats of the switching run,
    last-quarter means of the gap and of its divergence from the student's
    own l1 error, and final student accuracies.
    """
    train, test = generate_blobs(4, 100, 16, spread=0.5, seed=7)
    start = time.perf_counter()
    summaries = []
    for seed in REFERENCE_SEEDS:
        per_seed = {"seed": seed}
        results = {
            strategy: train_pair(reference_config(strategy, seed), train, test)
            for strategy in ("switch", "dml", "vanilla")
        }
        modes = [r["mode"] for r in results["switch"].iteration_log["teacher_student"]]
        per_seed["counts"] = {mode: modes.count(mode) for mode in MODES}
        per_seed["switch_count"] = mode_stats(modes)["switch_count"]
        for strategy in ("switch", "dml"):
            recs = results[strategy].iteration_log["teacher_student"]
            quarter = recs[3 * len(recs) // 4 :]
            per_seed[f"{strategy}_g"] = float(np.mean([r["G"] for r in quarter]))
            per_seed[f"{strategy}_div"] = float(
                np.mean([abs(r["G"] - r["student_err_l1"]) for r in quarter])
            )
        for strategy in ("switch", "dml", "vanilla"):
            per_seed[f"{strategy}_acc"] = results[strategy].final_accuracy("student")
            per_seed[f"{strategy}_teacher_acc"] = results[strategy].final_accuracy("teacher")
        summaries.append(per_seed)
    return {"elapsed": time.perf_counter() - start, "seeds": summaries}
