"""Tests for parameter kinds and the parameter space."""

import numpy as np
import pytest

from repro.config.decision_tree import SizeDecisionTree
from repro.config.parameters import (
    ChoiceSiteParam,
    ParameterSpace,
    SizeValueParam,
)
from repro.errors import ConfigError
from repro.lang.tunables import cutoff, switch


class TestChoiceSiteParam:
    def test_default_entry_is_single_leaf_tree(self):
        param = ChoiceSiteParam("site", choices=range(3), default=1)
        tree = param.default_entry()
        assert isinstance(tree, SizeDecisionTree)
        assert tree.lookup(1) == 1

    def test_needs_at_least_one_choice(self):
        with pytest.raises(ConfigError):
            ChoiceSiteParam("site", choices=())

    def test_default_in_range(self):
        with pytest.raises(ConfigError):
            ChoiceSiteParam("site", choices=range(2), default=5)

    def test_label_lookup(self):
        param = ChoiceSiteParam("s", range(2), choice_labels=("a", "b"))
        assert param.label(1) == "b"

    def test_label_count_checked(self):
        with pytest.raises(ConfigError):
            ChoiceSiteParam("s", range(3), choice_labels=("a",))

    def test_index_choices_are_ints(self):
        param = ChoiceSiteParam("s", range(3))
        assert param.choices == (0, 1, 2)
        assert param.num_choices == 3
        assert param.default == 0 and not param.flat

    def test_clamp(self):
        param = ChoiceSiteParam("s", range(3))
        assert param.clamp(-1) == 0
        assert param.clamp(9) == 2


class TestSizeValueParam:
    def test_coerce_clamps_and_rounds(self):
        param = SizeValueParam("v", lo=1, hi=10, default=2)
        assert param.coerce(0.2) == 1
        assert param.coerce(99) == 10
        assert param.coerce(3.6) == 4

    def test_float_param_not_rounded(self):
        param = SizeValueParam("v", lo=0.0, hi=1.0, default=0.5,
                               integer=False)
        assert param.coerce(0.33) == pytest.approx(0.33)

    def test_domain_validated(self):
        with pytest.raises(ConfigError):
            SizeValueParam("v", lo=5, hi=1, default=2)
        with pytest.raises(ConfigError):
            SizeValueParam("v", lo=1, hi=5, default=9)

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ConfigError):
            SizeValueParam("v", lo=1, hi=5, default=2, scaling="magic")


class TestCutoff:
    def test_default_entry(self):
        param = cutoff("c", 1, 9, 4)
        assert isinstance(param, SizeValueParam)
        assert param.flat and not param.is_accuracy_variable
        assert param.default_entry() == SizeDecisionTree([4.0])

    def test_coerce(self):
        param = cutoff("c", 1.0, 2.0, 1.5, integer=False)
        assert param.coerce(5.0) == 2.0

    def test_affects_accuracy_is_carried(self):
        assert not cutoff("c", 1, 9, 4).affects_accuracy
        assert cutoff("c", 1, 9, 4, affects_accuracy=True).affects_accuracy


class TestSwitch:
    def test_default_entry_first_choice(self):
        param = switch("s", ("x", "y"))
        assert isinstance(param, ChoiceSiteParam) and param.flat
        assert param.default_entry() == SizeDecisionTree(["x"])

    def test_explicit_default(self):
        assert switch("s", ("x", "y"), default="y").default_entry() \
            == SizeDecisionTree(["y"])

    def test_default_must_be_choice(self):
        with pytest.raises(ConfigError):
            ChoiceSiteParam("s", ("x",), default="z", flat=True)

    def test_needs_choices(self):
        with pytest.raises(ConfigError):
            ChoiceSiteParam("s", (), flat=True)


class TestParameterSpace:
    def space(self) -> ParameterSpace:
        return ParameterSpace([
            ChoiceSiteParam("choice", range(3)),
            SizeValueParam("accvar", 1, 100, 5,
                           is_accuracy_variable=True,
                           accuracy_direction=+1),
            cutoff("cut", 1, 64, 8),
            switch("mode", ("a", "b")),
        ])

    def test_duplicate_rejected(self):
        space = self.space()
        with pytest.raises(ConfigError):
            space.add(switch("mode", ("a",)))

    def test_lookup_unknown(self):
        with pytest.raises(ConfigError):
            self.space()["nope"]

    def test_kind_queries(self):
        space = self.space()
        assert len(space.choice_sites()) == 2
        assert len(space.size_values()) == 2
        assert len(space.accuracy_variables()) == 1
        assert [p.name for p in space if p.flat] == ["cut", "mode"]
        assert len(space) == 4

    def test_default_config_valid(self):
        space = self.space()
        space.validate(space.default_config())

    def test_random_config_draws_one_value_per_parameter(self):
        """A choice draws ``integers(0, k)``, a value ``uniform(lo, hi)``,
        in space order; every entry is a tree with no levels."""
        space = self.space()
        rng, expected = np.random.default_rng(3), np.random.default_rng(3)
        config = space.random_config(rng)
        for param in space:
            if isinstance(param, ChoiceSiteParam):
                value = param.choices[int(expected.integers(
                    0, param.num_choices))]
            else:
                value = param.coerce(expected.uniform(param.lo, param.hi))
            assert config[param.name] == SizeDecisionTree([value])
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_random_config_valid(self):
        space = self.space()
        rng = np.random.default_rng(0)
        for _ in range(20):
            space.validate(space.random_config(rng))

    def test_validate_rejects_out_of_domain_choice(self):
        space = self.space()
        config = space.default_config().with_entry(
            "choice", SizeDecisionTree([7]))
        with pytest.raises(ConfigError):
            space.validate(config)

    def test_validate_rejects_out_of_domain_value(self):
        space = self.space()
        config = space.default_config().with_entry(
            "accvar", SizeDecisionTree([5000.0]))
        with pytest.raises(ConfigError):
            space.validate(config)

    def test_validate_rejects_scalar_out_of_range(self):
        space = self.space()
        config = space.default_config().with_entry("cut", 1000.0)
        with pytest.raises(ConfigError):
            space.validate(config)

    def test_validate_rejects_unknown_switch_value(self):
        space = self.space()
        config = space.default_config().with_entry("mode", "zzz")
        with pytest.raises(ConfigError):
            space.validate(config)

    def test_bare_value_validates_as_a_tree(self):
        space = self.space()
        config = space.default_config().with_entry("choice", 1)
        assert config["choice"] == SizeDecisionTree([1])
        space.validate(config)

    def test_merged_with(self):
        space = self.space()
        other = ParameterSpace([switch("extra", ("q",)),
                                switch("mode", ("a", "b"))])
        merged = space.merged_with(other)
        assert "extra" in merged
        assert len(merged) == 5
