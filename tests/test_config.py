"""Config parsing: flat key=value files, typed schema, overrides, validation."""

import os
import re

import pytest

from switchdistill.config import KEYS, DataSettings, apply_overrides, build_setup, load_config, parse_config_text
from switchdistill.errors import ConfigError
from switchdistill.training import NetworkDef, TrainConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

MINIMAL = """
# reference blob run
strategy = switch
epochs = 2
batch_size = 16
seed = 3
data.kind = blobs
data.classes = 3
data.dims = 6
data.per_class = 30
data.spread = 0.4
student.hidden = 8
teacher.hidden = 16,16
"""


class TestParsing:
    def test_round_trip(self):
        values = parse_config_text(MINIMAL)
        assert values["strategy"] == "switch"
        assert values["teacher.hidden"] == "16,16"

    def test_comments_and_blanks_skipped(self):
        values = parse_config_text("# all defaults\n\n")
        assert values == {}

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError, match="<config>:2.*unknown key"):
            parse_config_text("seed = 1\nlearning_rate = 0.1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("strategy switch\n")

    def test_bad_type_names_field(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_setup({"epochs": "many"})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")


class TestOverrides:
    def test_override_applies(self):
        values = apply_overrides(parse_config_text(MINIMAL), ["strategy=dml", "tau=2.0"])
        setup = build_setup(values)
        assert setup.train.strategy == "dml"
        assert setup.train.tau == 2.0

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["banana=1"])

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["strategy"])


class TestBuildSetup:
    def test_full_train_config(self):
        setup = build_setup(parse_config_text(MINIMAL))
        cfg = setup.train
        assert cfg.strategy == "switch"
        assert cfg.student.hidden == (8,)
        assert cfg.teacher.hidden == (16, 16)
        assert cfg.seed == 3
        train_ds, test_ds = setup.data.build()
        assert train_ds.num_classes == 3
        assert train_ds.dims == 6

    def test_data_seed_defaults_to_run_seed(self):
        setup = build_setup(parse_config_text(MINIMAL))
        assert setup.data.options["seed"] == 3
        again = build_setup(apply_overrides(parse_config_text(MINIMAL), ["data.seed=99"]))
        assert again.data.options["seed"] == 99

    def test_strategy_topology_restriction(self):
        with pytest.raises(ConfigError, match="pairwise"):
            build_setup({"strategy": "kdcl", "topology": "1t2s"})

    def test_triple_builds_third_network(self):
        setup = build_setup(
            apply_overrides(parse_config_text(MINIMAL), ["topology=1t2s", "third.hidden=4"])
        )
        assert setup.train.third is not None
        assert setup.train.third.hidden == (4,)

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="data.train_images"):
            build_setup({"data.kind": "idx"})

    def test_kd_offline_requires_checkpoint_key(self):
        with pytest.raises(ConfigError, match="teacher_checkpoint"):
            build_setup({"strategy": "kd-offline"})

    def test_python_defaults_are_the_cli_defaults(self):
        assert build_setup({}).train == TrainConfig()
        assert build_setup({"topology": "1t2s"}).train == TrainConfig(topology="1t2s", third=NetworkDef())

    def test_data_settings_refuse_a_value_their_kind_cannot_use(self):
        options = {"classes": 3, "per_class": 30, "dims": 2, "spread": 0.4, "seed": 0}
        with pytest.raises(ConfigError, match=r"^data\.dims: "):
            DataSettings("blobs", options)

    def test_resolved_snapshot_contains_defaults(self):
        setup = build_setup(parse_config_text(MINIMAL))
        assert setup.resolved["alpha"] == "1.0"
        assert setup.resolved["data.seed"] == "3"


class TestKeyTable:
    def test_every_key_is_a_readme_row_with_its_default(self):
        with open(README, encoding="utf-8") as f:
            section = f.read().split("### Config format", 1)[1].split("\n### ", 1)[0]
        rows = dict(re.findall(r"^\| `([\w.]+)` \| (.*?) \|", section, flags=re.MULTILINE))
        assert set(rows) == set(KEYS)
        for key, (_, default) in KEYS.items():
            if default:
                assert rows[key] == f"`{default}`", key

    def test_data_options_come_from_the_kind(self):
        paths = {"train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"}
        setup = build_setup({"data.kind": "idx", **{f"data.{k}": v for k, v in paths.items()}})
        assert setup.data.describe() == {"kind": "idx", **paths}  # no blob keys, though they have defaults
        with pytest.raises(ConfigError, match=r"^data\.test_path: required for data\.kind=cifar$"):
            build_setup({"data.kind": "cifar", "data.classes": "10", "data.train_path": "a"})
        with pytest.raises(ConfigError, match=r"^data\.kind: unknown value 'parquet'"):
            build_setup({"data.kind": "parquet"})
