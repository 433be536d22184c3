"""Workload inputs: the command line each workload runs and the files it reads.

Everything here is a pure function of the benchmark seed, so the same seed
always hands the program the same configs and the same synthetic images.
"""

from __future__ import annotations

import os

import numpy as np

WORKLOADS = ("blob-compare", "blob-1t2s", "conv-cifar")

REFERENCE_CONFIGS = ("reference_vanilla", "reference_dml", "reference_switch")

# The shipped reference configs use seed 0 and data.seed 7; seed n maps to
# seed n and data.seed n + 7, so seed 0 reproduces them exactly.
DATA_SEED_OFFSET = 7

# blob-1t2s: every network trains with SGD with momentum (the config default
# momentum 0.9); lr 0.05 gives both modes in both pairs.
SGD_LR = 0.05

# conv-cifar: a CIFAR-10-layout binary file of synthetic images.
CIFAR_CLASSES = 10
CIFAR_SHAPE = (3, 32, 32)
CIFAR_TRAIN = 320
CIFAR_TEST = 200
CIFAR_EPOCHS = 12
CIFAR_TEMPLATE_GRID = 4  # each class template is a 4x4 grid of 8x8 pixel blocks per channel
CIFAR_TEMPLATE_AMPLITUDE = 50.0
CIFAR_NOISE = 80.0
# At the config default of 0.02 the conv teacher often collapses to chance
# and the mode mix swings widely from seed to seed.
CIFAR_TEACHER_LR = 0.005

CONV_CONFIG = """\
# Switch pair on synthetic CIFAR-10-layout images.
strategy = switch
topology = pair
seed = {seed}
epochs = {epochs}
batch_size = 32
data.kind = cifar
data.classes = {classes}
data.train_path = {train_path}
data.test_path = {test_path}
data.channels = 3
data.height = 32
data.width = 32
data.augment = true
teacher.conv = 16,32
teacher.hidden = 64
teacher.lr = {teacher_lr}
student.conv = 8
student.hidden = 32
"""


def seed_overrides(seed: int) -> list[str]:
    return ["--set", f"seed={seed}", "--set", f"data.seed={seed + DATA_SEED_OFFSET}"]


def kdcl_config_text(switch_text: str) -> str:
    """The reference switch config with only the strategy changed to kdcl."""
    lines = [line for line in switch_text.splitlines() if not line.lstrip().startswith("#")]
    out = []
    for line in lines:
        key = line.split("=", 1)[0].strip()
        out.append("strategy = kdcl" if key == "strategy" else line)
    if "strategy = kdcl" not in out:
        raise ValueError("reference switch config has no strategy line")
    return "# Reference desk-scale run: ensemble distillation (KDCL) on the same task.\n" + "\n".join(out) + "\n"


def cifar_images(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic train/test images: one random block template per class plus noise.

    Returns (train_pixels, train_labels, test_pixels, test_labels) with pixels
    as uint8 rows in the CIFAR channel-planar layout.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, 0xC1FA]))
    c, h, w = CIFAR_SHAPE
    g = CIFAR_TEMPLATE_GRID
    coarse = rng.uniform(-1.0, 1.0, size=(CIFAR_CLASSES, c, g, g))
    templates = CIFAR_TEMPLATE_AMPLITUDE * np.kron(coarse, np.ones((1, 1, h // g, w // g)))

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, CIFAR_CLASSES, size=n)
        x = templates[labels] + CIFAR_NOISE * rng.standard_normal((n, c, h, w))
        return np.clip(np.rint(x), 0, 255).astype(np.uint8).reshape(n, -1), labels.astype(np.uint8)

    train_x, train_y = draw(CIFAR_TRAIN)
    test_x, test_y = draw(CIFAR_TEST)
    return train_x, train_y, test_x, test_y


def write_cifar_binary(path: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    records = np.concatenate([labels[:, None], pixels], axis=1)
    with open(path, "wb") as f:
        f.write(records.tobytes())


def prepare(workload: str, seed: int, root: str, inputs_dir: str, out_dir: str) -> list[str]:
    """Write the workload's input files and return its switchdistill argv."""
    os.makedirs(inputs_dir, exist_ok=True)
    configs = os.path.join(root, "configs")
    if workload == "blob-compare":
        paths = [os.path.join(configs, f"{name}.cfg") for name in REFERENCE_CONFIGS]
        with open(paths[-1], encoding="utf-8") as f:
            kdcl = kdcl_config_text(f.read())
        kdcl_path = os.path.join(inputs_dir, "reference_kdcl.cfg")
        with open(kdcl_path, "w", encoding="utf-8") as f:
            f.write(kdcl)
        paths.append(kdcl_path)
        return ["compare", "--configs", *paths, "--out", out_dir, *seed_overrides(seed)]
    if workload == "blob-1t2s":
        sgd = []
        for net in ("student", "teacher", "third"):
            sgd += ["--set", f"{net}.optimizer=sgd", "--set", f"{net}.lr={SGD_LR}"]
        return [
            "train", "--config", os.path.join(configs, "reference_switch.cfg"), "--out", out_dir,
            "--set", "topology=1t2s", *sgd, *seed_overrides(seed),
        ]
    if workload == "conv-cifar":
        train_x, train_y, test_x, test_y = cifar_images(seed)
        train_path = os.path.join(inputs_dir, "train.bin")
        test_path = os.path.join(inputs_dir, "test.bin")
        write_cifar_binary(train_path, train_x, train_y)
        write_cifar_binary(test_path, test_x, test_y)
        cfg_path = os.path.join(inputs_dir, "conv_switch.cfg")
        with open(cfg_path, "w", encoding="utf-8") as f:
            f.write(CONV_CONFIG.format(
                seed=seed, epochs=CIFAR_EPOCHS, classes=CIFAR_CLASSES, teacher_lr=CIFAR_TEACHER_LR,
                train_path=train_path, test_path=test_path,
            ))
        return ["train", "--config", cfg_path, "--out", out_dir]
    raise ValueError(f"unknown workload {workload!r}")
