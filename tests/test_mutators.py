"""Tests for the automatically generated mutator pool."""

import math

import numpy as np
import pytest

from repro.autotuner.candidate import Candidate
from repro.autotuner.mutators import (
    CompoundMutator,
    MutationFailed,
    MutatorPool,
    TreeAddLevelMutator,
    TreeChangeLeafMutator,
    TreeRemoveLevelMutator,
    TreeScaleCutoffMutator,
    UndoMutator,
)
from repro.config.parameters import (
    ChoiceSiteParam,
    ParameterSpace,
    SizeValueParam,
)
from repro.lang.tunables import cutoff, switch


def space() -> ParameterSpace:
    return ParameterSpace([
        ChoiceSiteParam("choice", range(4)),
        SizeValueParam("accvar", 1, 1000, 10, is_accuracy_variable=True,
                       accuracy_direction=+1),
        SizeValueParam("uniformvar", 0.0, 1.0, 0.5, integer=False,
                       scaling="uniform"),
        cutoff("cut", 1, 512, 16),
        switch("mode", ("a", "b", "c")),
    ])


def fresh_candidate() -> Candidate:
    return Candidate(space().default_config())


RNG = lambda seed=0: np.random.default_rng(seed)


class TestTreeChangeLeaf:
    def test_changes_leaf_at_current_size(self):
        mutator = TreeChangeLeafMutator(space()["choice"])
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        assert config["choice"].lookup(16) != \
            candidate.config["choice"].lookup(16)

    def test_respects_domain(self):
        mutator = TreeChangeLeafMutator(space()["accvar"])
        candidate = fresh_candidate()
        for seed in range(30):
            config = mutator.mutate(candidate, 16, RNG(seed))
            value = config["accvar"].lookup(16)
            assert 1 <= value <= 1000

    def test_single_choice_fails(self):
        param = ChoiceSiteParam("solo", range(1))
        sp = ParameterSpace([param])
        candidate = Candidate(sp.default_config())
        with pytest.raises(MutationFailed):
            TreeChangeLeafMutator(param).mutate(candidate, 16, RNG())

    def test_uniform_scaling_resamples(self):
        mutator = TreeChangeLeafMutator(space()["uniformvar"])
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        assert config["uniformvar"].lookup(16) != 0.5


class TestTreeAddLevel:
    def test_cutoff_at_three_quarters_n(self):
        mutator = TreeAddLevelMutator(space()["choice"])
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        assert config["choice"].cutoffs == (12.0,)

    def test_behaviour_below_preserved(self):
        mutator = TreeAddLevelMutator(space()["accvar"])
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        old = candidate.config["accvar"]
        new = config["accvar"]
        for n in (1, 5, 11):
            assert new.lookup(n) == old.lookup(n)

    def test_not_applicable_at_max_depth(self):
        param = space()["choice"]
        mutator = TreeAddLevelMutator(param, max_levels=1)
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        deeper = Candidate(config)
        assert not mutator.applies(deeper, 32)
        with pytest.raises(MutationFailed):
            mutator.mutate(deeper, 32, RNG())

    def test_not_applicable_for_tiny_sizes(self):
        mutator = TreeAddLevelMutator(space()["choice"])
        assert not mutator.applies(fresh_candidate(), 1)


class TestTreeRemoveLevel:
    def test_round_trip_depth(self):
        add = TreeAddLevelMutator(space()["choice"])
        remove = TreeRemoveLevelMutator(space()["choice"])
        candidate = fresh_candidate()
        assert not remove.applies(candidate, 16)
        config = add.mutate(candidate, 16, RNG())
        child = Candidate(config)
        assert remove.applies(child, 16)
        config2 = remove.mutate(child, 16, RNG())
        assert config2["choice"].num_levels == 0


class TestTreeScaleCutoff:
    def test_requires_levels(self):
        mutator = TreeScaleCutoffMutator(space()["choice"])
        assert not mutator.applies(fresh_candidate(), 16)

    def test_scales_a_cutoff(self):
        add = TreeAddLevelMutator(space()["choice"])
        config = add.mutate(fresh_candidate(), 16, RNG())
        child = Candidate(config)
        mutator = TreeScaleCutoffMutator(space()["choice"])
        new_config = mutator.mutate(child, 16, RNG(3))
        assert new_config["choice"].cutoffs != \
            config["choice"].cutoffs


class TestFlatTunables:
    """``cutoff()`` and ``switch()`` trees keep no levels; their one
    mutator, change-leaf, scales a cutoff log-normally and draws a
    switch value uniformly from the other choices."""

    def test_cutoff_change_leaf_in_domain(self):
        mutator = TreeChangeLeafMutator(space()["cut"])
        candidate = fresh_candidate()
        for seed in range(30):
            config = mutator.mutate(candidate, 16, RNG(seed))
            assert config["cut"].num_levels == 0
            assert 1 <= config.lookup("cut", 16) <= 512
            assert config["cut"] != candidate.config["cut"]

    def test_cutoff_draws_as_lognormal_scaling(self):
        """exp(Normal(0, 1)) times the value, rounded, nudged by one
        when rounding swallowed the step."""
        param = space()["cut"]
        mutator = TreeChangeLeafMutator(param)
        candidate = fresh_candidate()
        for seed in range(50):
            rng, expected = RNG(seed), RNG(seed)
            config = mutator.mutate(candidate, 16, rng)
            factor = math.exp(expected.normal(0.0, 1.0))
            value = param.coerce(16.0 * factor)
            if value == 16.0:
                value = param.coerce(17.0 if factor > 1.0 else 15.0)
            assert config.lookup("cut", 16) == value
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_switch_changes_value(self):
        mutator = TreeChangeLeafMutator(space()["mode"])
        candidate = fresh_candidate()
        config = mutator.mutate(candidate, 16, RNG())
        assert config["mode"] != candidate.config["mode"]
        assert config["mode"].num_levels == 0
        assert config.lookup("mode", 16) in ("a", "b", "c")

    @pytest.mark.parametrize("name", ["choice", "mode"])
    def test_choice_draws_as_integers_and_as_choice(self, name):
        """One sampler for choice sites and switches: an index from
        ``integers(0, k)`` into the other choices, which is the draw
        ``rng.choice`` makes over them too."""
        param = space()[name]
        mutator = TreeChangeLeafMutator(param)
        candidate = fresh_candidate()
        others = [c for c in param.choices if c != param.default]
        for seed in range(50):
            rng, by_index, by_choice = RNG(seed), RNG(seed), RNG(seed)
            config = mutator.mutate(candidate, 16, rng)
            expected = others[int(by_index.integers(0, len(others)))]
            assert config.lookup(name, 16) == expected
            assert expected == others[int(by_choice.choice(
                len(others)))]
            assert rng.bit_generator.state == \
                by_index.bit_generator.state == \
                by_choice.bit_generator.state


class TestMetaMutators:
    def test_undo_restores_parent_config(self):
        mutator = TreeChangeLeafMutator(space()["choice"])
        parent = fresh_candidate()
        config = mutator.mutate(parent, 16, RNG())
        child = Candidate(config, parent=parent, step=mutator.name)
        undo = UndoMutator()
        assert undo.applies(child, 16)
        restored = undo.mutate(child, 16, RNG())
        assert restored == parent.config

    def test_undo_not_applicable_without_history(self):
        assert not UndoMutator().applies(fresh_candidate(), 16)

    def test_compound_applies_multiple_changes(self):
        base = [TreeChangeLeafMutator(space()["cut"]),
                TreeChangeLeafMutator(space()["mode"])]
        compound = CompoundMutator(base, min_applications=2,
                                   max_applications=2)
        config = compound.mutate(fresh_candidate(), 16, RNG(1))
        assert config != fresh_candidate().config

    def test_compound_builds_no_candidates(self):
        """Sub-mutations chain on the configuration alone."""
        base = [TreeChangeLeafMutator(space()["cut"]),
                TreeChangeLeafMutator(space()["mode"]),
                TreeAddLevelMutator(space()["choice"])]
        compound = CompoundMutator(base, min_applications=3,
                                   max_applications=3)
        parent = fresh_candidate()
        before = Candidate._next_id
        config = compound.mutate(parent, 16, RNG(4))
        assert Candidate._next_id == before
        changed = [name for name in config
                   if config[name] != parent.config[name]]
        assert len(changed) >= 2

    def test_undo_after_compound_restores_parent_config(self):
        base = [TreeChangeLeafMutator(space()["cut"])]
        compound = CompoundMutator(base, min_applications=2,
                                   max_applications=3)
        parent = fresh_candidate()
        config = compound.mutate(parent, 16, RNG(2))
        assert config["cut"] != parent.config["cut"]
        child = Candidate(config, parent=parent, step=compound.name)
        assert UndoMutator().mutate(child, 16, RNG()) == parent.config


class TestPool:
    def test_generated_from_space(self):
        pool = MutatorPool.from_space(space())
        names = {m.name for m in pool}
        assert "tree.change:choice" in names
        assert "tree.addlevel:accvar" in names
        assert "tree.change:cut" in names
        assert "tree.change:mode" in names
        assert "meta.compound" in names
        assert "meta.undo" in names

    def test_flat_tunables_get_change_leaf_only_in_place(self):
        pool = MutatorPool.from_space(space())
        assert [m.name for m in pool] == [
            *(f"tree.{kind}:{name}"
              for name in ("choice", "accvar", "uniformvar")
              for kind in ("change", "addlevel", "removelevel",
                           "scalecutoff")),
            "tree.change:cut", "tree.change:mode",
            "meta.compound", "meta.undo"]

    def test_no_meta_option(self):
        pool = MutatorPool.from_space(space(), include_meta=False)
        assert all(not m.name.startswith("meta.") for m in pool)

    def test_uniform_ablation_replaces_lognormal(self):
        pool = MutatorPool.from_space(space(), lognormal_scaling=False)
        change = next(m for m in pool
                      if m.name == "tree.change:accvar")
        assert change.param.scaling == "uniform"
        # Cutoffs are numeric leaves too: the ablation resamples them.
        cut = next(m for m in pool if m.name == "tree.change:cut")
        assert cut.param.scaling == "uniform"

    def test_random_selection_applicable_only(self):
        pool = MutatorPool.from_space(space())
        candidate = fresh_candidate()
        for seed in range(20):
            mutator = pool.random(candidate, 16, RNG(seed))
            assert mutator is not None
            assert mutator.applies(candidate, 16)

    @pytest.mark.parametrize("prefix, weight", [(None, 1.0),
                                                ("accvar", 4.0),
                                                ("c", 2.7)])
    def test_random_draws_as_choice_with_p(self, prefix, weight):
        """Same pick, and same generator state after, as
        ``rng.choice(p=)`` over the applicable mutators' weights."""
        pool = MutatorPool.from_space(space())
        if prefix is not None:
            pool.prefer(prefix, weight)
        parent = fresh_candidate()
        config = next(m for m in pool if m.name == "tree.change:mode") \
            .mutate(parent, 16, RNG(0))
        child = Candidate(config, parent=parent, step="tree.change:mode")
        for candidate in (parent, child):
            for n in (1, 16, 1000):
                options = pool.applicable(candidate, n)
                weights = np.array([
                    weight if prefix is not None
                    and getattr(m, "param", None) is not None
                    and m.param.name.startswith(prefix) else 1.0
                    for m in options])
                for seed in range(50):
                    rng, expected_rng = RNG(seed), RNG(seed)
                    expected = options[int(expected_rng.choice(
                        len(options), p=weights / weights.sum()))]
                    assert pool.random(candidate, n, rng) is expected
                    assert rng.bit_generator.state == \
                        expected_rng.bit_generator.state

    def test_fixed_parameters_produce_empty_pool(self):
        fixed = ParameterSpace([
            SizeValueParam("v", 5, 5, 5),
            cutoff("c", 2, 2, 2),
            switch("s", ("only",)),
            ChoiceSiteParam("ch", range(1)),
        ])
        pool = MutatorPool.from_space(fixed)
        assert len(pool) == 0
        assert pool.random(fresh_candidate(), 16,
                           np.random.default_rng(0)) is None


class TestMutatedConfigsStayValid:
    def test_random_walk_stays_in_domain(self):
        sp = space()
        pool = MutatorPool.from_space(sp)
        candidate = Candidate(sp.default_config())
        rng = RNG(7)
        for step in range(120):
            mutator = pool.random(candidate, 16, rng)
            try:
                config = mutator.mutate(candidate, 16, rng)
            except MutationFailed:
                continue
            sp.validate(config)
            candidate = Candidate(config, parent=candidate,
                                  step=mutator.name)
