"""The serving subsystem: artifacts, the store, and the engine.

Three contracts are enforced here:

* **Artifact round-trips** — for *every* suite program, serialize →
  deserialize → attach produces identical configurations and identical
  dynamic-bin-lookup decisions for any requested accuracy; schema or
  program mismatches are rejected loudly.
* **Serve/run equivalence** — a large batch of mixed-accuracy
  ``ServeRequest``s through the engine (on the process backend)
  returns bin choices and outputs identical to serial
  single-call ``TunedProgram.run``, with guarantees, escalation
  counts, and latency populated.
* **Observability** — fallbacks and escalations are counted, never
  silent.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Service
from repro.autotuner import Autotuner, ProgramTestHarness, TunerSettings
from repro.compiler.compile import compile_program
from repro.config.decision_tree import SizeDecisionTree
from repro.errors import (
    AccuracyError,
    ArtifactError,
    ConfigError,
    TrainingError,
)
from repro.runtime.backends import (
    ProcessPoolBackend,
    SerialBackend,
)
from repro.runtime.executor import TunedProgram
from repro.runtime.policy import (
    BinDecision,
    escalation_ladder,
    most_accurate_bin,
    plan_request,
    select_bin,
)
from repro.serving import (
    SCHEMA_VERSION,
    ArtifactStore,
    FrontDoor,
    ServeRequest,
    ServingEngine,
    TunedArtifact,
)
from repro.suite import all_benchmarks, get_benchmark

from tests.test_backends import (
    RecordingBackend,
    make_pickmean_transform,
    pickmean_inputs,
    quick_settings,
)

SUITE_NAMES = sorted(all_benchmarks())


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tuned_pickmean():
    """(program, TuningResult) for the picklable mean transform."""
    program, _ = compile_program(make_pickmean_transform())
    harness = ProgramTestHarness(program, pickmean_inputs, base_seed=3)
    result = Autotuner(program, harness, quick_settings()).tune()
    return program, result


@pytest.fixture(scope="module")
def pickmean_artifact(tuned_pickmean):
    _, result = tuned_pickmean
    return result.to_artifact(created_at="2026-07-29T00:00:00Z")


def suite_tuned_program(name: str) -> TunedProgram:
    """A TunedProgram for a suite benchmark without tuning: per-bin
    configurations sampled deterministically from the program's space
    (distinct per bin, so round-trip tests can tell bins apart)."""
    program, _ = get_benchmark(name).compile()
    configs = {}
    for index, target in enumerate(
            program.root_transform.accuracy_bins):
        rng = np.random.default_rng(100 + index)
        configs[target] = program.random_config(rng)
    return TunedProgram(program, configs)


# ----------------------------------------------------------------------
# Bin-selection policy (pure functions)
# ----------------------------------------------------------------------
class TestPolicy:
    from repro.lang.metrics import AccuracyMetric
    higher = AccuracyMetric(lambda o, i: 0.0, higher_is_better=True)
    lower = AccuracyMetric(lambda o, i: 0.0, higher_is_better=False)

    def test_cheapest_satisfying_bin(self):
        decision = select_bin((0.5, 0.9, 0.99), self.higher, 0.7)
        assert decision == BinDecision(target=0.9, fallback=False,
                                       requested=0.7)

    def test_fallback_is_explicit(self):
        decision = select_bin((0.5, 0.9, 0.99), self.higher, 0.999)
        assert decision.target == 0.99
        assert decision.fallback

    def test_lower_is_better_direction(self):
        # Bin Packing style: bins sorted least -> most accurate means
        # descending targets for a lower-is-better metric.
        decision = select_bin((1.5, 1.1, 1.01), self.lower, 1.2)
        assert decision.target == 1.1  # cheapest bin with target <= 1.2
        assert not decision.fallback
        assert select_bin((1.5, 1.1, 1.01), self.lower, 1.001).fallback

    def test_escalation_ladder_is_suffix(self):
        assert escalation_ladder((0.5, 0.9, 0.99), self.higher, 0.9) == \
            (0.9, 0.99)
        assert escalation_ladder((1.5, 1.1, 1.01), self.lower, 1.1) == \
            (1.1, 1.01)

    def test_most_accurate_requires_bins(self):
        assert most_accurate_bin((0.5, 0.9)) == 0.9
        with pytest.raises(ValueError):
            most_accurate_bin(())


@functools.cache
def ladder_program(name: str) -> TunedProgram:
    """One shared untuned program per name: Poisson's metric is higher
    is better, bin packing's lower is better."""
    return suite_tuned_program(name)


@st.composite
def requested_accuracies(draw, name):
    """``None``, a bin, a value between or beyond the bins, or a
    target no bin reaches."""
    bins = ladder_program(name).bins
    low, high = min(bins), max(bins)
    span = high - low
    return draw(st.one_of(
        st.none(), st.sampled_from(bins),
        st.floats(min_value=low - span, max_value=high + span),
        st.sampled_from((-1e9, 1e9))))


class TestPrebuiltLadders:
    """``TunedProgram.plan`` reads ladders built once per bin and
    decides exactly as :func:`plan_request` building them per call."""

    @pytest.mark.parametrize("name", ["poisson", "binpacking"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_plan_equals_plan_request(self, name, data):
        tuned = ladder_program(name)
        ladders = tuned._ladders
        accuracy = data.draw(requested_accuracies(name))
        assert tuned.plan(accuracy) == plan_request(
            tuned.bins, tuned.metric, accuracy=accuracy)
        target = data.draw(st.sampled_from(tuned.bins))
        assert tuned.plan(bin_target=target) == plan_request(
            tuned.bins, tuned.metric, bin_target=target)
        # The plan state is one ladder per bin, whatever was requested.
        assert tuned._ladders is ladders
        assert set(ladders) == set(tuned.bins)

    def test_unknown_bin_target_still_raises(self):
        with pytest.raises(TrainingError, match="no tuned configuration"):
            ladder_program("poisson").plan(bin_target=2.0)

    def test_engine_and_shadow_plan_through_the_ladders(self):
        tuned = ladder_program("poisson")
        ladders = tuned._ladders
        inputs = get_benchmark("poisson").generate(
            7, np.random.default_rng(0))
        requests = [ServeRequest(program="poisson", inputs=inputs, n=7.0,
                                 accuracy=accuracy, verify=True)
                    for accuracy in (None, 0.5, 2.0, 5.0, 8.0, 40.0)]
        engine = ServingEngine()
        responses = engine.serve(requests, [tuned] * len(requests))
        for request, response in zip(requests, responses):
            plan = plan_request(tuned.bins, tuned.metric,
                                accuracy=request.accuracy)
            assert response.bin_target in plan.ladder
            assert response.fallback == plan.fallback
        engine.run_shadow(tuned, requests)
        assert tuned._ladders is ladders and len(ladders) == len(tuned.bins)


# ----------------------------------------------------------------------
# Artifact round-trips across the whole suite
# ----------------------------------------------------------------------
class TestArtifactRoundTrip:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_round_trip_preserves_configs_and_choices(self, name):
        tuned = suite_tuned_program(name)
        artifact = TunedArtifact.from_tuned(tuned)
        assert artifact.provenance == ("benchmark", name)
        # serialize -> JSON text -> deserialize -> attach
        clone = TunedArtifact.from_json(
            json.loads(json.dumps(artifact.to_json())))
        reloaded = clone.to_tuned(tuned.program)
        assert reloaded.bins == tuned.bins
        assert reloaded.bin_configs == tuned.bin_configs
        # Dynamic bin lookup decides identically for any request:
        # probe every bin target, midpoints, and beyond-best requests.
        targets = list(tuned.bins)
        probes = targets + \
            [(a + b) / 2 for a, b in zip(targets, targets[1:])] + \
            [targets[-1] * 1.5, targets[0] * 0.5]
        for requested in probes:
            assert reloaded.select(requested) == tuned.select(requested)

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_provenance_resolves_fresh_program(self, name):
        tuned = suite_tuned_program(name)
        artifact = TunedArtifact.from_tuned(tuned)
        resolved = artifact.resolve()  # rebuilds program by provenance
        assert resolved.program.root == tuned.program.root
        assert resolved.bin_configs == tuned.bin_configs

    def test_schema_version_mismatch_rejected(self, pickmean_artifact):
        payload = pickmean_artifact.to_json()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="schema version"):
            TunedArtifact.from_json(payload)

    def test_wrong_kind_rejected(self, pickmean_artifact):
        payload = pickmean_artifact.to_json()
        payload["kind"] = "something-else"
        with pytest.raises(ArtifactError, match="not a tuned artifact"):
            TunedArtifact.from_json(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ArtifactError):
            TunedArtifact.from_json({"schema_version": SCHEMA_VERSION,
                                     "kind": "repro.tuned-artifact"})

    def test_program_mismatch_rejected(self, pickmean_artifact):
        other = suite_tuned_program("poisson")
        with pytest.raises(ArtifactError, match="tuned for"):
            pickmean_artifact.to_tuned(other.program)

    def test_guarantees_travel_with_the_artifact(self, tuned_pickmean,
                                                 pickmean_artifact):
        program, result = tuned_pickmean
        reloaded = pickmean_artifact.to_tuned(program)
        expected = result.bin_guarantees()
        assert set(reloaded.guarantees) == set(expected)
        for target, guarantee in expected.items():
            assert reloaded.guarantee_for(target) == guarantee

    def test_metadata_records_tuning_provenance(self, pickmean_artifact,
                                                tuned_pickmean):
        _, result = tuned_pickmean
        metadata = pickmean_artifact.metadata
        assert metadata["seed"] == result.settings.seed
        assert metadata["settings_digest"] == result.settings.digest()
        assert metadata["created_at"] == "2026-07-29T00:00:00Z"
        assert metadata["trials_run"] == result.trials_run


class TestPinnedArtifactFormat:
    """The committed Poisson artifact stores omega and precision as
    legacy ``{"kind": "value"}`` entries; it loads as trees."""

    PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "artifact", "poisson", "default.json")

    @pytest.fixture(scope="class")
    def raw(self):
        with open(self.PATH, encoding="utf-8") as handle:
            return json.load(handle)

    def test_legacy_entries_load_as_trees_with_no_levels(self, raw):
        artifact = TunedArtifact.load(self.PATH)
        program, _ = get_benchmark("poisson").compile()
        legacy = 0
        for entry in artifact.bins:
            stored = raw["bins"][repr(entry.target)]["config"]
            for name, item in stored.items():
                if name.endswith((".omega", ".precision")):
                    assert item["kind"] == "value"
                    assert entry.config[name] == \
                        SizeDecisionTree([item["value"]])
                    legacy += 1
            program.space.validate(entry.config)
        assert legacy > 0

    def test_reserialised_json_holds_only_trees(self):
        artifact = TunedArtifact.load(self.PATH)
        payload = json.loads(json.dumps(artifact.to_json()))
        kinds = {item["kind"] for bin_ in payload["bins"].values()
                 for item in bin_["config"].values()}
        assert kinds == {"tree"}
        clone = TunedArtifact.from_json(payload)
        for mine, theirs in zip(artifact.bins, clone.bins):
            assert mine.config.identical(theirs.config)


class TestArtifactAttachValidation:
    """An artifact whose bin configs leave the program's parameter
    space is refused when it attaches, naming the bin and the entry,
    on every load path: it would otherwise serve ``ok=True`` with a
    meaningless result."""

    @staticmethod
    def corrupted(entry, value):
        tuned = suite_tuned_program("poisson")
        artifact = TunedArtifact.from_tuned(tuned)
        bins = list(artifact.bins)
        bins[2] = replace(bins[2], config=bins[2].config.with_entries(
            {entry: value}))
        return tuned.program, replace(artifact, bins=tuple(bins))

    CORRUPTIONS = [
        ("poisson@main.omega", 7.5, "outside"),
        ("poisson@main.rule.u", SizeDecisionTree([7]), "out of range"),
    ]

    @pytest.mark.parametrize("entry, value, why", CORRUPTIONS)
    def test_attach_refuses_a_config_outside_the_space(self, entry, value,
                                                       why):
        program, artifact = self.corrupted(entry, value)
        with pytest.raises(ArtifactError,
                           match=f"bin 5: '{entry}': .*{why}"):
            artifact.to_tuned(program)
        with pytest.raises(ArtifactError, match="bin 5"):
            artifact.resolve()

    @pytest.mark.parametrize("entry, value, why", CORRUPTIONS)
    def test_store_and_service_loads_refuse_it(self, tmp_path, entry,
                                               value, why):
        program, artifact = self.corrupted(entry, value)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        with pytest.raises(ArtifactError, match=why):
            store.load_tuned("poisson")
        with pytest.raises(ArtifactError, match=why):
            store.load_tuned("poisson", compiled=program)
        with pytest.raises(ArtifactError, match=why):
            Service.load(store, program="poisson", compiled=program)
        with FrontDoor([ServingEngine()], store=store) as door:
            with pytest.raises(ArtifactError, match=why):
                door.program_for("poisson")
            assert door.programs == ()

    @pytest.mark.parametrize("entry, value, why", CORRUPTIONS)
    def test_hot_swap_never_takes_an_out_of_space_program(self, entry,
                                                          value, why):
        # The check sits in TunedProgram itself, so a program built
        # outside any artifact is refused before it reaches hot_swap.
        program, artifact = self.corrupted(entry, value)
        configs = {bin_.target: bin_.config for bin_ in artifact.bins}
        good = suite_tuned_program("poisson")
        inputs = get_benchmark("poisson").generate(
            7, np.random.default_rng(0))
        request = ServeRequest(program="poisson", inputs=inputs, n=7.0)
        with FrontDoor([ServingEngine()]) as door:
            door.register("poisson", good)
            with pytest.raises(ConfigError, match=f"bin 5: .*{why}"):
                door.hot_swap("poisson", TunedProgram(program, configs))
            assert door.stats().swaps == 0
            assert door.program_for("poisson") is good
            [response] = door.serve([request])
            assert response.ok

    def test_unreadable_artifact_file_is_an_artifact_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.path_for("poisson")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        with pytest.raises(ArtifactError, match="could not read"):
            store.load_tuned("poisson")


# ----------------------------------------------------------------------
# The artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_save_load_list(self, tmp_path, pickmean_artifact):
        store = ArtifactStore(tmp_path / "artifacts")
        store.save(pickmean_artifact)
        store.save(pickmean_artifact, tag="nightly")
        assert store.list() == {"pickmean": ["default", "nightly"]}
        loaded = store.load("pickmean")
        assert loaded.bin_targets == pickmean_artifact.bin_targets
        assert loaded.metadata == dict(pickmean_artifact.metadata)

    def test_missing_artifact_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError, match="no artifact"):
            store.load("pickmean")

    def test_moved_file_rejected(self, tmp_path, pickmean_artifact):
        """A file smuggled into another program's directory must not
        be served under that program's name."""
        store = ArtifactStore(tmp_path)
        path = store.save(pickmean_artifact)
        other = store.path_for("poisson")
        import os
        import shutil
        os.makedirs(os.path.dirname(other), exist_ok=True)
        shutil.copy(path, other)
        with pytest.raises(ArtifactError, match="mismatched"):
            store.load("poisson")

    def test_path_traversal_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for bad in ("../escape", "a/b", "", ".hidden"):
            with pytest.raises(ArtifactError):
                store.path_for(bad)

    def test_load_tuned_by_provenance(self, tmp_path):
        tuned = suite_tuned_program("poisson")
        store = ArtifactStore(tmp_path)
        store.save(TunedArtifact.from_tuned(tuned))
        fresh = store.load_tuned("poisson")  # no compiled program given
        assert fresh.bin_configs == tuned.bin_configs


# ----------------------------------------------------------------------
# Artifact versioning: monotonic versions, latest pointer, rollback
# ----------------------------------------------------------------------
class TestStoreVersioning:
    def stamped(self, pickmean_artifact, n):
        """The same artifact, distinguishable by metadata."""
        from dataclasses import replace
        return replace(pickmean_artifact,
                       metadata={**pickmean_artifact.metadata,
                                 "revision": n})

    def test_saves_are_monotonic_versions(self, tmp_path,
                                          pickmean_artifact):
        store = ArtifactStore(tmp_path)
        assert store.versions("pickmean") == []
        assert store.latest_version("pickmean") is None
        store.save(self.stamped(pickmean_artifact, 1))
        store.save(self.stamped(pickmean_artifact, 2))
        assert store.versions("pickmean") == [1, 2]
        assert store.latest_version("pickmean") == 2
        assert store.load("pickmean").metadata["revision"] == 2
        assert store.load_version("pickmean", "default",
                                  1).metadata["revision"] == 1

    def test_candidate_save_does_not_move_latest(self, tmp_path,
                                                 pickmean_artifact):
        store = ArtifactStore(tmp_path)
        store.save(self.stamped(pickmean_artifact, 1))
        store.save(self.stamped(pickmean_artifact, 2),
                   set_latest=False)
        assert store.versions("pickmean") == [1, 2]
        assert store.latest_version("pickmean") == 1
        assert store.load("pickmean").metadata["revision"] == 1
        store.promote("pickmean", "default", 2)
        assert store.latest_version("pickmean") == 2
        assert store.load("pickmean").metadata["revision"] == 2

    def test_rollback_repoints_without_deleting(self, tmp_path,
                                                pickmean_artifact):
        store = ArtifactStore(tmp_path)
        for n in (1, 2, 3):
            store.save(self.stamped(pickmean_artifact, n))
        assert store.rollback("pickmean") == 2
        assert store.load("pickmean").metadata["revision"] == 2
        assert store.versions("pickmean") == [1, 2, 3]  # history kept
        assert store.rollback("pickmean", to_version=1) == 1
        assert store.load("pickmean").metadata["revision"] == 1

    def test_rollback_without_history_rejected(self, tmp_path,
                                               pickmean_artifact):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError, match="nothing to roll back"):
            store.rollback("pickmean")
        store.save(pickmean_artifact)
        with pytest.raises(ArtifactError, match="no version older"):
            store.rollback("pickmean")

    def test_missing_version_rejected(self, tmp_path, pickmean_artifact):
        store = ArtifactStore(tmp_path)
        store.save(pickmean_artifact)
        with pytest.raises(ArtifactError, match="no version 9"):
            store.load_version("pickmean", "default", 9)

    def test_retention_prunes_oldest_but_keeps_latest(
            self, tmp_path, pickmean_artifact):
        store = ArtifactStore(tmp_path, retain=2)
        for n in (1, 2, 3, 4):
            store.save(self.stamped(pickmean_artifact, n))
        assert store.versions("pickmean") == [3, 4]
        # The latest-pointed version survives retention even when
        # newer candidates pile up past the bound.
        store.rollback("pickmean")  # latest -> 3
        store.save(self.stamped(pickmean_artifact, 5),
                   set_latest=False)
        store.save(self.stamped(pickmean_artifact, 6),
                   set_latest=False)
        assert 3 in store.versions("pickmean")
        assert store.load("pickmean").metadata["revision"] == 3

    def test_retention_validated(self, tmp_path):
        with pytest.raises(ArtifactError):
            ArtifactStore(tmp_path, retain=0)

    def test_legacy_unversioned_layout_still_loads(
            self, tmp_path, pickmean_artifact):
        """A pre-versioning store (bare <tag>.json) keeps working."""
        store = ArtifactStore(tmp_path)
        import os
        path = store.path_for("pickmean")
        os.makedirs(os.path.dirname(path))
        pickmean_artifact.save(path)
        assert store.load("pickmean").bin_targets == \
            pickmean_artifact.bin_targets
        assert store.versions("pickmean") == []
        assert store.list() == {"pickmean": ["default"]}
        # The first versioned save starts history at v1.
        store.save(pickmean_artifact)
        assert store.versions("pickmean") == [1]

    def test_enumeration_and_stats(self, tmp_path, pickmean_artifact):
        store = ArtifactStore(tmp_path)
        assert store.list_programs() == []
        assert store.list_tags("pickmean") == []
        store.save(pickmean_artifact)
        store.save(pickmean_artifact, tag="nightly")
        store.save(TunedArtifact.from_tuned(
            suite_tuned_program("poisson")))
        assert store.list_programs() == ["pickmean", "poisson"]
        assert store.list_tags("pickmean") == ["default", "nightly"]
        # A candidate-only tag (never materialised) is still listed.
        store.save(pickmean_artifact, tag="candidate",
                   set_latest=False)
        assert "candidate" in store.list_tags("pickmean")
        stats = store.stats()
        assert stats.programs == 2
        assert stats.tags == 4
        assert stats.versions == 4
        assert stats.total_bytes > 0
        assert "2 programs" in str(stats)


# ----------------------------------------------------------------------
# Serving equivalence: the acceptance criterion
# ----------------------------------------------------------------------
def mixed_requests(count: int) -> list[ServeRequest]:
    """``count`` mixed-accuracy requests over varying inputs/seeds,
    including exact bins, midpoints, beyond-best (fallback), and
    verify-escalation traffic."""
    accuracies = [0.5, 0.9, 0.99, 0.7, None, 1.5, 0.95, 0.2]
    requests = []
    for i in range(count):
        rng = np.random.default_rng(1000 + i)
        requests.append(ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(48 + (i % 7), rng),
            n=48 + (i % 7),
            accuracy=accuracies[i % len(accuracies)],
            verify=(i % 3 == 0),
            seed=i % 5))
    return requests


class TestServingEquivalence:
    @pytest.fixture(scope="class")
    def served_setup(self, tuned_pickmean, tmp_path_factory):
        """Artifact saved, then loaded into a *fresh* TunedProgram —
        the tune-once/serve-many path."""
        program, result = tuned_pickmean
        store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
        store.save(result.to_artifact())
        fresh_program, _ = compile_program(make_pickmean_transform())
        tuned = store.load_tuned("pickmean", compiled=fresh_program)
        reference = result.tuned_program()
        return tuned, reference

    def test_batch_matches_serial_single_calls(self, served_setup):
        tuned, reference = served_setup
        requests = mixed_requests(104)
        with ServingEngine(backend=ProcessPoolBackend(max_workers=2),
                           batch_size=32) as engine:
            counters: dict[str, int] = {}
            responses = engine.serve(requests, [tuned] * len(requests),
                                     counters=counters)

        assert len(responses) == len(requests)
        checked_ok = checked_failed = 0
        for request, response in zip(requests, responses):
            kwargs = dict(accuracy=request.accuracy,
                          verify=request.verify, seed=request.seed)
            if response.ok:
                expected = reference.run(request.inputs, request.n,
                                         **kwargs)
                assert response.outputs["est"] == \
                    expected.outputs["est"]
                assert response.bin_target == expected.bin_target
                assert response.fallback == expected.fallback
                assert response.escalations == expected.escalations
                if request.accuracy is not None:
                    assert response.requested_accuracy == \
                        request.accuracy
                assert response.achieved_accuracy is not None
                # Latency is admission-to-response, stamped by the
                # front door; a bare engine does not time requests.
                assert response.latency == 0.0
                checked_ok += 1
            else:
                # The single-call path fails identically.
                with pytest.raises(AccuracyError):
                    reference.run(request.inputs, request.n, **kwargs)
                assert response.achieved_accuracy is not None
                checked_failed += 1
        assert checked_ok >= 90  # the batch is overwhelmingly servable

        # Guarantees ride on responses for bins that have them.
        guaranteed = [r for r in responses
                      if r.ok and r.guarantee is not None]
        assert guaranteed, "no response carried a guarantee"
        for response in guaranteed:
            assert response.guarantee.target == response.bin_target

        # Outcomes are explicit on the responses; every request ran.
        assert checked_ok + checked_failed == len(requests)
        assert sum(r.fallback for r in responses) > 0  # the 1.5s
        assert counters["executions"] >= len(requests)

    def test_serial_and_process_identical(self, served_setup):
        tuned, _ = served_setup
        requests = mixed_requests(24)
        outputs = {}
        for name, factory in (
                ("serial", lambda: SerialBackend()),
                ("process", lambda: ProcessPoolBackend(max_workers=2))):
            with ServingEngine(backend=factory()) as engine:
                responses = engine.serve(requests,
                                         [tuned] * len(requests))
            outputs[name] = [
                (r.ok, r.bin_target, r.escalations,
                 r.outputs["est"] if r.ok else None)
                for r in responses]
        assert outputs["process"] == outputs["serial"]


# ----------------------------------------------------------------------
# Engine behaviour, served through a one-shard front door
# ----------------------------------------------------------------------
def one_shard(tuned: TunedProgram | None = None, name: str = "pickmean",
              **engine_kwargs) -> FrontDoor:
    """A one-shard front door over a fresh engine, serving ``tuned``
    under ``name`` when given."""
    door = FrontDoor([ServingEngine(**engine_kwargs)], shedding=None)
    if tuned is not None:
        door.register(name, tuned)
    return door


class TestServingEngine:
    def test_unknown_program_is_an_error_response(self):
        with one_shard() as door:
            [response] = door.serve([ServeRequest(
                program="nonesuch", inputs={}, n=4.0)])
            stats = door.stats()
        assert not response.ok
        assert "nonesuch" in response.error
        assert stats.executions == 0
        # An explicit error the door answered, not a refusal.
        assert (stats.completed, stats.errors, stats.rejected) == (1, 1, 0)

    def test_store_backed_lazy_load(self, tmp_path):
        tuned = suite_tuned_program("poisson")
        store = ArtifactStore(tmp_path)
        store.save(TunedArtifact.from_tuned(tuned))
        rng = np.random.default_rng(5)
        from repro.suite import get_benchmark
        inputs = get_benchmark("poisson").generate(7, rng)
        with FrontDoor([ServingEngine()], store=store) as door:
            assert door.programs == ()
            [response] = door.serve([ServeRequest(
                program="poisson", inputs=inputs, n=7.0)])
            assert response.ok
            assert door.programs == ("poisson",)

    def test_store_load_never_blocks_the_door(self, tmp_path,
                                              tuned_pickmean):
        """A program loading from the store holds no door lock: stats()
        and admission of a registered program proceed meanwhile, and
        the loaded program then serves its waiting request."""
        import threading
        _, result = tuned_pickmean
        loading, release = threading.Event(), threading.Event()

        class BlockingStore(ArtifactStore):
            def load_tuned(self, name, tag="default", **kwargs):
                loading.set()
                assert release.wait(10.0), "test never released the load"
                return result.tuned_program()

        rng = np.random.default_rng(7)
        request = ServeRequest(program="lazy",
                               inputs=pickmean_inputs(32, rng), n=32.0,
                               accuracy=0.9)
        door = FrontDoor([ServingEngine()], shedding=None,
                         store=BlockingStore(tmp_path))
        try:
            door.register("pickmean", result.tuned_program())
            waiting = threading.Thread(
                target=lambda: door.submit(request), daemon=True)
            waiting.start()
            assert loading.wait(10.0)
            meanwhile: list = []
            other = threading.Thread(target=lambda: meanwhile.extend([
                door.stats(),
                door.submit(replace(request, program="pickmean"))
                .result(10.0)]), daemon=True)
            other.start()
            other.join(5.0)
            assert not other.is_alive(), "the door blocked on a load"
            stats, served = meanwhile
            assert stats.submitted == 0      # the lazy request waits
            assert served.ok
            release.set()
            waiting.join(10.0)
            assert not waiting.is_alive()
            assert door.programs == ("pickmean", "lazy")
        finally:
            release.set()
            door.close()
        stats = door.stats()
        assert (stats.submitted, stats.served) == (2, 2)

    def test_fallback_counted_not_silent(self, tuned_pickmean):
        program, result = tuned_pickmean
        rng = np.random.default_rng(9)
        with one_shard(result.tuned_program()) as door:
            response = door.serve([ServeRequest(
                program="pickmean", inputs=pickmean_inputs(32, rng),
                n=32.0, accuracy=5.0)])[0]  # beyond every bin
            stats = door.stats()
        assert response.ok
        assert response.fallback
        assert response.bin_target == most_accurate_bin(
            result.tuned_program().bins)
        assert stats.fallbacks == 1

    def test_escalations_are_batched_and_counted(self, tuned_pickmean):
        """Verify traffic that must climb the ladder reports its
        escalation count and the front door aggregates them."""
        program, result = tuned_pickmean
        rng = np.random.default_rng(11)
        # Request the least accurate bin exactly, but demand (via
        # verify) an accuracy only higher bins reach; unless bin one
        # already meets it, the engine must escalate.
        requests = [ServeRequest(
            program="pickmean", inputs=pickmean_inputs(64, rng), n=64.0,
            accuracy=0.5, verify=True, seed=s) for s in range(8)]
        with one_shard(result.tuned_program()) as door:
            responses = door.serve(requests)
            stats = door.stats()
        assert stats.requests == 8
        assert stats.escalations == sum(r.escalations for r in responses)
        assert stats.executions == \
            sum(r.escalations + 1 for r in responses)

    def test_crashed_execution_is_terminal_not_escalated(self):
        """A program that raises is a broken deployment: the response
        names the exception and the engine does not silently climb the
        ladder (the single-call path propagates the same exception)."""
        from repro.lang.transform import Transform
        transform = Transform(
            "fragile", inputs=("x",), outputs=("y",),
            accuracy_metric=lambda o, i: 1.0,
            accuracy_bins=(0.5, 0.9))
        transform.rule(outputs=("y",), inputs=("x",), name="boom")(
            lambda ctx, x: 1.0 / 0.0)
        program, _ = compile_program(transform)
        tuned = TunedProgram(program, {
            0.5: program.default_config(),
            0.9: program.default_config()})
        with one_shard(tuned, "fragile") as door:
            [response] = door.serve([ServeRequest(
                program="fragile", inputs={"x": 1.0}, n=4.0,
                accuracy=0.5, verify=True)])
            stats = door.stats()
        assert not response.ok
        assert "ZeroDivisionError" in response.error
        assert response.bin_target == 0.5
        assert response.escalations == 0  # crash did not escalate
        assert stats.executions == 1
        with pytest.raises(ZeroDivisionError):
            tuned.run({"x": 1.0}, 4.0, accuracy=0.5, verify=True)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            ServingEngine(batch_size=0)

    def test_concurrent_serve_calls(self, tuned_pickmean):
        """serve() may be driven from several threads: each call's
        counters stay its own and every response is well-formed."""
        import threading
        _, result = tuned_pickmean
        tuned = result.tuned_program()
        engine = ServingEngine(batch_size=4)
        per_thread = 10
        collected: list[list] = [[], []]
        counters: list[dict[str, int]] = [{}, {}]

        def worker(slot):
            rng = np.random.default_rng(slot)
            requests = [ServeRequest(
                program="pickmean", inputs=pickmean_inputs(32, rng),
                n=32.0, accuracy=0.9, seed=i) for i in range(per_thread)]
            collected[slot] = engine.serve(requests,
                                           [tuned] * per_thread,
                                           counters=counters[slot])

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(len(responses) == per_thread
                   for responses in collected)
        assert all(r.ok for responses in collected for r in responses)
        # One unverified execution per request, none lost to a race.
        assert [c["executions"] for c in counters] == [per_thread] * 2

    def test_programs_must_line_up_with_requests(self, tuned_pickmean):
        _, result = tuned_pickmean
        request = ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(8, np.random.default_rng(0)), n=8.0)
        with pytest.raises(ValueError):
            ServingEngine().serve([request, request],
                                  [result.tuned_program()])


# ----------------------------------------------------------------------
# Hot swap & shadow deployments
# ----------------------------------------------------------------------
def degraded_pickmean(program) -> TunedProgram:
    """Every bin served by the (inaccurate) default configuration."""
    return TunedProgram(program, {
        target: program.default_config()
        for target in program.root_transform.accuracy_bins})


def crashing_pickmean() -> TunedProgram:
    """A candidate whose every execution raises an error that is not a
    trial failure, as a buggy build does."""
    program, _ = compile_program(make_pickmean_transform())

    def execute(*args, **kwargs):
        raise RuntimeError("candidate bug")

    program.execute = execute
    return degraded_pickmean(program)


class TestHotSwapAndShadow:
    def test_hot_swap_is_atomic_and_counted(self, tuned_pickmean):
        program, result = tuned_pickmean
        tuned = result.tuned_program()
        replacement = degraded_pickmean(program)
        rng = np.random.default_rng(4)
        inputs = pickmean_inputs(32, rng)
        with one_shard(tuned) as door:
            previous = door.hot_swap("pickmean", replacement)
            assert previous is tuned
            assert door.program_for("pickmean") is replacement
            assert door.stats().swaps == 1
            # Served traffic now follows the new program's configs.
            [response] = door.serve([ServeRequest(
                program="pickmean", inputs=inputs, n=32.0, seed=5)])
        expected = replacement.run(inputs, 32.0, seed=5)
        assert response.outputs["est"] == expected.outputs["est"]

    def test_one_swap_counts_once_across_shards(self, tuned_pickmean):
        program, result = tuned_pickmean
        with FrontDoor.build("async:2x1", shard_backend="serial",
                             shedding=None) as door:
            door.register("pickmean", result.tuned_program())
            door.hot_swap("pickmean", degraded_pickmean(program))
            assert door.stats().swaps == 1
            door.hot_swap("pickmean", result.tuned_program())
            assert door.stats().swaps == 2

    def test_mismatched_hot_swap_is_refused(self, tuned_pickmean):
        """A replacement compiled from another root raises; the old
        program keeps serving, the swap is not counted and the shadow
        survives."""
        program, result = tuned_pickmean
        tuned = result.tuned_program()
        stranger = suite_tuned_program("binpacking")
        requests = [ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(20 + i)),
            n=32.0, accuracy=0.9, seed=i) for i in range(4)]
        with one_shard(tuned) as door:
            door.start_shadow("pickmean", degraded_pickmean(program),
                              fraction=1.0)
            before = door.serve(requests)
            with pytest.raises(ArtifactError, match="root"):
                door.hot_swap("pickmean", stranger)
            assert door.program_for("pickmean") is tuned
            assert door.stats().swaps == 0
            assert door.shadow_status("pickmean").samples == 4
            assert door.telemetry.snapshots("pickmean")  # not reset
            after = door.serve(requests)
            assert door.shadow_status("pickmean").samples == 8
        assert [r.outputs["est"] for r in after] == \
            [r.outputs["est"] for r in before]

    def test_swap_invalidates_config_digests(self, tuned_pickmean):
        """Same name, different configs: responses must re-digest."""
        program, result = tuned_pickmean
        rng = np.random.default_rng(4)
        inputs = pickmean_inputs(32, rng)
        request = ServeRequest(program="pickmean", inputs=inputs,
                               n=32.0, seed=5)
        replacement = degraded_pickmean(program)
        with one_shard(result.tuned_program()) as door:
            [first] = door.serve([request])
            door.hot_swap("pickmean", replacement)
            [second] = door.serve([request])
        assert second.outputs["est"] == \
            replacement.run(inputs, 32.0, seed=5).outputs["est"]
        assert first.outputs["est"] != second.outputs["est"]

    def test_swapped_requests_carry_the_new_config_digest(
            self, tuned_pickmean):
        """The digest rides on the configuration value itself, so a
        swapped-in program's requests are keyed by its own configs."""
        program, result = tuned_pickmean
        backend = RecordingBackend()
        request = ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(4)),
            n=32.0, seed=5)
        replacement = degraded_pickmean(program)
        with one_shard(result.tuned_program(), backend=backend) as door:
            [first] = door.serve([request])
            door.hot_swap("pickmean", replacement)
            door.serve([request])
        old_config = result.tuned_program().bin_configs[first.bin_target]
        new_config = replacement.bin_configs[first.bin_target]
        digests = [request.digest for request in backend.requests]
        assert digests == [old_config.digest, new_config.digest]
        assert digests[0] != digests[1]

    def test_shadow_samples_fraction_without_changing_responses(
            self, tuned_pickmean):
        program, result = tuned_pickmean
        requests = [ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(50 + i)),
            n=32.0, accuracy=0.9, seed=i) for i in range(12)]
        with one_shard(result.tuned_program()) as door:
            plain = door.serve(requests)
            door.start_shadow("pickmean", degraded_pickmean(program),
                              fraction=0.25)
            shadowed = door.serve(requests)
            # Callers always get the primary's outputs.
            assert [r.outputs["est"] for r in shadowed] == \
                [r.outputs["est"] for r in plain]
            status = door.shadow_status("pickmean")
            assert status.samples == 3  # every 4th of 12 ok requests
            assert status.executions == 3
            [(primary, candidate)] = status.per_bin.values()
            assert len(primary) == len(candidate) == 3
            assert door.stats().shadow_executions == 3

            final = door.stop_shadow("pickmean")
            assert final.samples == 3
            assert door.shadow_status("pickmean") is None

    def test_raising_shadow_candidate_never_fails_live_traffic(
            self, tuned_pickmean):
        """A candidate that raises counts against the shadow — every
        sampled request is a shadow failure — while callers get the
        primary's responses, ok and unchanged."""
        _, result = tuned_pickmean
        requests = [ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(80 + i)),
            n=32.0, accuracy=0.9, seed=i) for i in range(4)]
        with one_shard(result.tuned_program()) as door:
            plain = door.serve(requests)
            door.start_shadow("pickmean", crashing_pickmean(),
                              fraction=1.0)
            shadowed = door.serve(requests)
            status = door.shadow_status("pickmean")
            stats = door.stats()
        assert all(r.ok for r in shadowed)
        assert [(r.bin_target, r.outputs["est"]) for r in shadowed] == \
            [(r.bin_target, r.outputs["est"]) for r in plain]
        assert status.failures == status.executions == len(requests)
        assert status.samples == 0
        assert stats.errors == 0
        assert stats.served == 2 * len(requests)

    def test_shadow_buckets_pairs_by_primary_bin(self, tuned_pickmean):
        """Mixed-accuracy traffic lands in per-bin windows, so a
        drifted bin is judged on its own requests."""
        program, result = tuned_pickmean
        accuracies = [0.5, 0.99]
        requests = [ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(70 + i)),
            n=32.0, accuracy=accuracies[i % 2], seed=i)
            for i in range(10)]
        with one_shard(result.tuned_program()) as door:
            door.start_shadow("pickmean", degraded_pickmean(program),
                              fraction=1.0)
            responses = door.serve(requests)
            status = door.shadow_status("pickmean")
        served_bins = {r.bin_target for r in responses}
        assert set(status.per_bin) == served_bins
        for primary, candidate in status.per_bin.values():
            assert len(primary) == len(candidate) > 0
        assert sum(len(p) for p, _ in status.per_bin.values()) == \
            status.samples

    def test_shadow_fraction_validated(self, tuned_pickmean):
        program, result = tuned_pickmean
        with one_shard(result.tuned_program()) as door:
            for bad in (0.0, -0.5, 1.5):
                with pytest.raises(ValueError):
                    door.start_shadow("pickmean",
                                      degraded_pickmean(program),
                                      fraction=bad)

    def test_hot_swap_ends_shadow_and_resets_telemetry(
            self, tuned_pickmean):
        program, result = tuned_pickmean
        with one_shard(result.tuned_program()) as door:
            telemetry = door.telemetry
            door.serve([ServeRequest(
                program="pickmean",
                inputs=pickmean_inputs(16, np.random.default_rng(1)),
                n=16.0)])
            assert telemetry.snapshots("pickmean")
            door.start_shadow("pickmean", degraded_pickmean(program),
                              fraction=1.0)
            door.hot_swap("pickmean", degraded_pickmean(program))
            assert door.shadow_status("pickmean") is None
        assert telemetry.snapshots("pickmean") == []

    def test_telemetry_records_served_bins(self, tuned_pickmean):
        _, result = tuned_pickmean
        requests = [ServeRequest(
            program="pickmean",
            inputs=pickmean_inputs(32, np.random.default_rng(60 + i)),
            n=32.0, accuracy=0.9, seed=i) for i in range(6)]
        with one_shard(result.tuned_program()) as door:
            responses = door.serve(requests)
            telemetry = door.telemetry
        bin_target = responses[0].bin_target
        snap = telemetry.snapshot("pickmean", bin_target)
        assert snap.served == 6
        assert snap.samples == 6
        assert snap.mean_accuracy == pytest.approx(
            sum(r.achieved_accuracy for r in responses) / 6)
