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
        assert sample_config()["scalar"] == SizeDecisionTree([3.5])

    def test_bare_value_is_a_tree_with_no_levels(self):
        entry = Configuration({"x": 1.5})["x"]
        assert isinstance(entry, SizeDecisionTree)
        assert entry.num_levels == 0
        assert entry.leaves == (1.5,)

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

    def test_getitem_returns_the_tree(self):
        assert sample_config()["tree"].lookup(20) == 2

    def test_every_entry_is_a_tree(self):
        assert all(isinstance(entry, SizeDecisionTree)
                   for _, entry in sample_config().items())

    def test_lookup_resolves_trees_and_scalars(self):
        config = sample_config()
        assert config.lookup("tree", 5) == 1
        assert config.lookup("tree", 16) == 2
        assert config.lookup("scalar", 16) == 3.5


class TestUpdates:
    def test_with_entry(self):
        config = sample_config()
        updated = config.with_entry("scalar", 9.0)
        assert updated["scalar"] == SizeDecisionTree([9.0])
        assert config.lookup("scalar", 1) == 3.5  # original untouched

    def test_with_entry_unknown_key(self):
        with pytest.raises(ConfigError):
            sample_config().with_entry("new", 1)

    def test_with_entries(self):
        updated = sample_config().with_entries(
            {"scalar": 1.0, "switch": "slow"})
        assert updated["scalar"] == SizeDecisionTree([1.0])
        assert updated["switch"] == SizeDecisionTree(["slow"])


class TestSerialisation:
    def test_json_round_trip(self):
        config = sample_config()
        assert Configuration.from_json(config.to_json()) == config

    def test_json_holds_only_tree_entries(self):
        payload = sample_config().to_json()
        assert {item["kind"] for item in payload.values()} == {"tree"}
        assert payload["switch"] == {"kind": "tree", "cutoffs": [],
                                     "leaves": ["fast"]}

    def test_legacy_value_entry_loads_as_a_tree_with_no_levels(self):
        config = Configuration.from_json({
            "omega": {"kind": "value", "value": 1.25},
            "precision": {"kind": "value", "value": "float32"}})
        assert config["omega"] == SizeDecisionTree([1.25])
        assert config["precision"] == SizeDecisionTree(["float32"])
        assert config.identical(Configuration.loads(config.dumps()))

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
