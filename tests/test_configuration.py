"""Tests for the configuration-file representation."""

import pytest

from repro.config.configuration import Configuration
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import ConfigError


def sample_config() -> Configuration:
    return Configuration({
        "tree": SizeDecisionTree([1, 2], cutoffs=[16]),
        "scalar": 3.5,
        "switch": "fast",
    })


class TestAccess:
    def test_getitem(self):
        assert sample_config()["scalar"] == 3.5

    def test_missing_entry(self):
        with pytest.raises(ConfigError):
            sample_config()["nope"]

    def test_get_default(self):
        assert sample_config().get("nope", 9) == 9

    def test_contains_iter_len(self):
        config = sample_config()
        assert "tree" in config
        assert sorted(config) == ["scalar", "switch", "tree"]
        assert len(config) == 3

    def test_tree_accessor(self):
        assert sample_config().tree("tree").lookup(20) == 2

    def test_tree_accessor_rejects_scalar(self):
        with pytest.raises(ConfigError):
            sample_config().tree("scalar")

    def test_lookup_resolves_trees_and_scalars(self):
        config = sample_config()
        assert config.lookup("tree", 5) == 1
        assert config.lookup("tree", 16) == 2
        assert config.lookup("scalar", 16) == 3.5


class TestUpdates:
    def test_with_entry(self):
        config = sample_config()
        updated = config.with_entry("scalar", 9.0)
        assert updated["scalar"] == 9.0
        assert config["scalar"] == 3.5  # original untouched

    def test_with_entry_unknown_key(self):
        with pytest.raises(ConfigError):
            sample_config().with_entry("new", 1)

    def test_with_entries(self):
        updated = sample_config().with_entries(
            {"scalar": 1.0, "switch": "slow"})
        assert updated["scalar"] == 1.0
        assert updated["switch"] == "slow"


class TestSerialisation:
    def test_json_round_trip(self):
        config = sample_config()
        assert Configuration.from_json(config.to_json()) == config

    def test_dumps_loads(self):
        config = sample_config()
        assert Configuration.loads(config.dumps()) == config

    def test_save_load(self, tmp_path):
        config = sample_config()
        path = tmp_path / "config.json"
        config.save(path)
        assert Configuration.load(path) == config

    def test_hashable(self):
        assert hash(sample_config()) == hash(sample_config())

    def test_describe_resolved(self):
        text = sample_config().describe(n=20)
        assert "tree = 2" in text

    def test_describe_unresolved(self):
        assert "SizeDecisionTree" in sample_config().describe()


class TestIdentical:
    def test_equal_values_of_other_types_are_not_identical(self):
        for value in (1, 1.0, True):
            config = Configuration({"switch": value})
            assert config.identical(Configuration({"switch": value}))
        assert Configuration({"switch": 1}) == Configuration({"switch": True})
        assert not Configuration({"switch": 1}).identical(
            Configuration({"switch": True}))
        assert not Configuration({"switch": 1}).identical(
            Configuration({"switch": 1.0}))

    def test_tree_leaf_types_count(self):
        config = Configuration({"tree": SizeDecisionTree([1, 2], [16])})
        floats = Configuration({"tree": SizeDecisionTree([1, 2.0], [16])})
        assert config == floats
        assert not config.identical(floats)
        assert config.identical(
            Configuration({"tree": SizeDecisionTree([1, 2], [16])}))

    def test_unequal_configs_are_not_identical(self):
        assert sample_config().identical(sample_config())
        assert not sample_config().identical(
            sample_config().with_entry("scalar", 4.5))
        assert not Configuration({"a": 1}).identical(Configuration({"b": 1}))

    def test_unhashable_values_compare(self):
        assert Configuration({"pair": [1, 2]}).identical(
            Configuration({"pair": [1, 2]}))
        assert not Configuration({"pair": [1, 2]}).identical(
            Configuration({"pair": [3, 4]}))
