"""The background evolution loop: mine -> classify -> link -> match -> publish.

Contracts under test:

- **determinism**: two drivers with the same seed over identical stores
  stage identical concepts and relations, cycle for cycle — the
  background thread runs exactly ``run_cycle()``, so scripted tests
  predict what the thread builds;
- **end-to-end visibility**: a mined concept is searchable, interpreted
  and item-linked through the serving API after a publish, without a
  restart;
- **publish policy**: the size trigger ships a full delta immediately,
  the interval trigger ships a stale trickle, and nothing publishes
  below both thresholds until ``drain()``;
- **degradation**: a failing stage retries with backoff and then wedges
  the driver; serving continues on the last good generation, and
  ``resume()`` restarts a wedged loop;
- **atomicity under load**: readers hammering a service while the driver
  publishes only ever observe whole generations.
"""

import threading
import time

import numpy as np
import pytest

from repro.concepts.generation import CandidateGenerator
from repro.errors import ConfigError, DataError
from repro.kg import GenerationalStore, flatten
from repro.kg.ids import ECOMMERCE_PREFIX
from repro.kg.relations import Relation, RelationKind
from repro.pipeline import (
    EVOLUTION_STAGES,
    EvolutionConfig,
    EvolutionDriver,
    EvolutionState,
    classifier_stage,
)
from repro.serving import AliCoCoService, ServiceConfig
from repro.synth.items import item_matches_concept
from repro.utils.rng import spawn_rng

FAST = dict(n_queries=10, n_guides=6, n_good=3, n_bad=2, cycle_interval=0.0)


def _driver(built, target=None, **overrides):
    """A driver (and its service) over a fresh generational twin."""
    stage_kwargs = {
        key: overrides.pop(key)
        for key in ("mine", "classify", "link", "match", "clock")
        if key in overrides
    }
    store = GenerationalStore(built.store)
    service = AliCoCoService(store, config=ServiceConfig(seed=0))
    config = EvolutionConfig(**{**FAST, **overrides})
    driver = EvolutionDriver.from_build(
        built, target if target is not None else service, config=config, **stage_kwargs
    )
    return store, service, driver


def _fresh_spec(built):
    """A good world concept whose text is not yet in the built store."""
    known = {node.text for node in built.store.nodes(ECOMMERCE_PREFIX)}
    for spec in built.world.sample_good_concepts(spawn_rng(123, "fresh"), 20):
        if spec.text not in known:
            return spec
    raise AssertionError("pattern space exhausted")  # pragma: no cover


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestConfigValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_good=0),
            dict(n_queries=0),
            dict(publish_min_nodes=0),
            dict(max_retries=0),
            dict(n_bad=-1),
            dict(backoff_base=-0.1),
            dict(cycle_interval=-1.0),
        ],
    )
    def test_bad_knobs_are_loud(self, bad):
        with pytest.raises(ConfigError):
            EvolutionConfig(**bad)

    def test_classifier_stage_threshold_bounds(self):
        with pytest.raises(ConfigError):
            classifier_stage(object(), threshold=1.5)

    def test_frozen_targets_are_rejected(self, built_tiny):
        # A service over a plain store serves a generational store, so
        # the driver stages into it; a bare store cannot grow.
        service = AliCoCoService(built_tiny.store)
        driver = EvolutionDriver.from_build(built_tiny, service)
        assert driver._store is service.store
        with pytest.raises(ConfigError, match="GenerationalStore"):
            EvolutionDriver.from_build(built_tiny, built_tiny.store)


class TestRunCycle:
    def test_twin_drivers_build_identical_stores(self, built_tiny):
        reports = []
        stores = []
        for _ in range(2):
            store, _, driver = _driver(built_tiny, seed=17, publish_min_nodes=1)
            reports.append([driver.run_cycle() for _ in range(3)])
            stores.append(store)
        assert reports[0] == reports[1]
        left, right = stores
        assert [(n.id, n.text) for n in left.nodes(ECOMMERCE_PREFIX)] == [
            (n.id, n.text) for n in right.nodes(ECOMMERCE_PREFIX)
        ]
        assert list(left.relations()) == list(right.relations())

    def test_indexed_match_stages_what_a_catalog_scan_stages(self, built_tiny):
        """The default match stage retrieves candidates through the
        item-key index; over many cycles it must stage bit-identical
        relations and weights to the whole-catalog scan it replaced,
        which lives on here only as the oracle."""

        def scan_match(store, node, spec, rng):
            matches = 0
            for item in built_tiny.corpus.items:
                item_id = built_tiny.item_ids.get(item.index)
                if item_id is None:
                    continue
                if item_matches_concept(built_tiny.world, item, spec):
                    weight = float(np.clip(rng.normal(0.8, 0.1), 0.05, 1.0))
                    store.add_relation(
                        Relation(
                            RelationKind.ITEM_ECOMMERCE, item_id, node.id, weight=weight
                        )
                    )
                    matches += 1
            return matches

        indexed_store, _, indexed = _driver(built_tiny, seed=29, publish_min_nodes=1)
        scan_store, _, scan = _driver(
            built_tiny, seed=29, publish_min_nodes=1, match=scan_match
        )
        reports = [(indexed.run_cycle(), scan.run_cycle()) for _ in range(24)]
        assert all(left == right for left, right in reports)
        assert sum(left.matches for left, _ in reports) > 0
        assert list(indexed_store.relations()) == list(scan_store.relations())
        assert [n.id for n in indexed_store.nodes()] == [
            n.id for n in scan_store.nodes()
        ]

    def test_default_mine_stages_what_generate_and_drop_staged(self, built_tiny):
        """The default mine stage combines patterns without running the
        phrase miner, whose phrases the pipeline dropped anyway.  The
        miner draws no randomness, so cycles over the default stage read
        exactly like cycles over a stage that mines the batch's text
        and drops the phrases."""
        generator = CandidateGenerator(built_tiny.world)

        def generate_and_drop(batch):
            specs, _mined, _report = generator.generate(
                batch.sentences, batch.rng, FAST["n_good"], FAST["n_bad"], 20
            )
            return specs

        reads = []
        for stages in ({}, {"mine": generate_and_drop}):
            store, _, driver = _driver(
                built_tiny, seed=29, publish_min_nodes=1, **stages
            )
            reports = [driver.run_cycle() for _ in range(6)]
            store.publish()
            flat = flatten(store)
            reads.append(
                (
                    reports,
                    store.generation_id,
                    [vars(node) for node in flat.nodes()],
                    list(flat.relations()),
                    flat.stats(),
                )
            )
        assert sum(report.accepted for report in reads[0][0]) > 0
        assert reads[0] == reads[1]

    def test_mined_concept_is_served_end_to_end(self, built_tiny):
        store, service, driver = _driver(built_tiny, seed=17, publish_min_nodes=1)
        before = len(store)
        report = driver.run_cycle()
        assert report.accepted > 0
        assert report.published_generation == 1
        assert service.generation_id == 1
        new = list(store.nodes(ECOMMERCE_PREFIX))[-report.accepted :]
        for node in new:
            hits = service.search(node.text, k=3)
            assert hits and hits[0][0] == node.id  # searchable, no restart
            assert service.interpretation(node.id)  # linked to primitives
            service.items_for_concept(node.id)  # matched (possibly empty)
        assert len(store) == before + report.accepted

    def test_bad_candidates_are_rejected_not_staged(self, built_tiny):
        _, _, driver = _driver(built_tiny, seed=17)
        report = driver.run_cycle()
        assert report.rejected > 0
        stats = driver.stats()
        assert stats.concepts_rejected == report.rejected
        # Only accepted concepts (and their relations) were staged.
        assert stats.open_nodes == report.accepted

    def test_reject_everything_classifier_stages_nothing(self, built_tiny):
        store, _, driver = _driver(built_tiny, seed=17)
        driver._classify = lambda spec: False
        report = driver.run_cycle()
        assert report.accepted == 0
        assert report.rejected == report.candidates
        assert store.open_counts == (0, 0)

    def test_duplicates_are_skipped_staged_and_published(self, built_tiny):
        spec = _fresh_spec(built_tiny)
        # Staged but unpublished: the second cycle must not re-create it.
        _, _, driver = _driver(
            built_tiny,
            publish_min_nodes=100,
            publish_max_interval=1e9,
            mine=lambda batch: [spec],
        )
        assert driver.run_cycle().accepted == 1
        assert driver.run_cycle().duplicates == 1
        # Published: find_by_name sees it.
        _, _, driver = _driver(
            built_tiny, publish_min_nodes=1, mine=lambda batch: [spec]
        )
        assert driver.run_cycle().published_generation == 1
        assert driver.run_cycle().duplicates == 1

    def test_classifier_stage_wraps_predict_proba(self, built_tiny):
        spec = _fresh_spec(built_tiny)

        class Stub:
            def predict_proba(self, texts):
                return [0.9 if texts[0] == spec.text else 0.1]

        accept = classifier_stage(Stub(), threshold=0.5)
        assert accept(spec) is True
        assert accept(built_tiny.concepts[0]) is False


class TestPublishPolicy:
    def test_size_trigger_ships_immediately(self, built_tiny):
        clock = [0.0]
        _, service, driver = _driver(
            built_tiny,
            seed=17,
            publish_min_nodes=1,
            publish_max_interval=1e9,
            clock=lambda: clock[0],
        )
        report = driver.run_cycle()
        assert report.published_generation == 1
        assert service.generation_id == 1

    def test_interval_trigger_ships_a_stale_trickle(self, built_tiny):
        clock = [0.0]
        store, _, driver = _driver(
            built_tiny,
            seed=17,
            publish_min_nodes=100,
            publish_max_interval=10.0,
            clock=lambda: clock[0],
        )
        assert driver.run_cycle().published_generation is None
        assert store.open_counts[0] > 0  # trickle held open
        clock[0] = 11.0
        assert driver.run_cycle().published_generation == 1
        assert store.open_counts == (0, 0)

    def test_nothing_ships_below_both_thresholds_until_drain(self, built_tiny):
        clock = [0.0]
        store, service, driver = _driver(
            built_tiny,
            seed=17,
            publish_min_nodes=100,
            publish_max_interval=1e9,
            clock=lambda: clock[0],
        )
        for _ in range(3):
            assert driver.run_cycle().published_generation is None
        assert service.generation_id == 0
        assert driver.stats().publishes == 0
        assert driver.drain() == 1  # inline flush: driver never started
        assert service.generation_id == 1
        assert store.open_counts == (0, 0)
        assert driver.state is EvolutionState.STOPPED


class TestLifecycle:
    def test_background_loop_publishes_and_drains(self, built_tiny):
        store, service, driver = _driver(built_tiny, seed=29, publish_min_nodes=2)
        driver.start()
        assert driver.state is EvolutionState.RUNNING
        with pytest.raises(ConfigError, match="already"):
            driver.start()
        assert _wait_for(lambda: driver.stats().publishes >= 2)
        driver.pause()
        assert driver.state is EvolutionState.PAUSED
        time.sleep(0.1)  # the in-flight cycle may still finish
        paused_cycles = driver.stats().cycles
        time.sleep(0.1)
        assert driver.stats().cycles == paused_cycles  # loop really held
        driver.resume()
        assert _wait_for(lambda: driver.stats().cycles > paused_cycles)
        generation = driver.drain()
        assert driver.state is EvolutionState.STOPPED
        assert generation == service.generation_id == store.generation_id
        assert store.open_counts == (0, 0)

    def test_invalid_transitions_are_loud(self, built_tiny):
        _, _, driver = _driver(built_tiny)
        with pytest.raises(ConfigError, match="pause"):
            driver.pause()
        with pytest.raises(ConfigError, match="resume"):
            driver.resume()

    def test_stop_abandons_nothing(self, built_tiny):
        store, _, driver = _driver(
            built_tiny, seed=17, publish_min_nodes=100, publish_max_interval=1e9
        )
        driver.run_cycle()
        driver.stop()  # no final publish...
        assert store.open_counts[0] > 0
        assert driver.drain() == 1  # ...but the work is still shippable


class TestDegradation:
    def test_failing_stage_backs_off_then_wedges(self, built_tiny):
        _, service, driver = _driver(
            built_tiny, seed=17, max_retries=3, backoff_base=0.0, publish_min_nodes=1
        )
        healthy = service.search(built_tiny.concepts[0].text)
        generation = service.generation_id

        def broken(batch):
            raise DataError("miner fell over")

        driver._mine = broken
        driver.start()
        assert _wait_for(lambda: driver.state is EvolutionState.WEDGED)
        stats = driver.stats()
        assert stats.consecutive_failures == 3
        assert stats.failures == 3
        assert "DataError" in stats.last_error
        # Degraded, not down: the last good generation keeps serving.
        assert service.generation_id == generation
        assert service.search(built_tiny.concepts[0].text) == healthy

    def test_resume_restarts_a_wedged_loop(self, built_tiny):
        _, service, driver = _driver(
            built_tiny, seed=17, max_retries=2, backoff_base=0.0, publish_min_nodes=1
        )
        default_mine = driver._mine
        calls = []

        def flaky(batch):
            calls.append(batch.cycle_index)
            if len(calls) <= 2:
                raise DataError("transient")
            return default_mine(batch)

        driver._mine = flaky
        driver.start()
        assert _wait_for(lambda: driver.state is EvolutionState.WEDGED)
        driver.resume()
        assert driver.stats().consecutive_failures == 0
        assert _wait_for(lambda: driver.stats().publishes >= 1)
        driver.drain()
        assert service.generation_id >= 1

    def test_transient_failures_recover_without_wedging(self, built_tiny):
        _, _, driver = _driver(
            built_tiny, seed=17, max_retries=5, backoff_base=0.0, publish_min_nodes=1
        )
        default_mine = driver._mine
        calls = []

        def flaky(batch):
            calls.append(batch.cycle_index)
            if len(calls) == 1:
                raise DataError("one bad batch")
            return default_mine(batch)

        driver._mine = flaky
        driver.start()
        assert _wait_for(lambda: driver.stats().publishes >= 1)
        driver.drain()
        stats = driver.stats()
        assert stats.failures == 1
        assert stats.consecutive_failures == 0
        assert stats.state is EvolutionState.STOPPED


class TestStageLatency:
    def test_every_stage_is_metered(self, built_tiny):
        _, _, driver = _driver(built_tiny, seed=17, publish_min_nodes=1)
        report = driver.run_cycle()
        assert report.accepted > 0 and report.published_generation == 1
        stats = driver.stats()
        by_stage = {entry.stage: entry for entry in stats.stage_latency}
        assert tuple(by_stage) == EVOLUTION_STAGES
        assert by_stage["mine"].calls == 1
        assert by_stage["classify"].calls == report.candidates
        assert by_stage["link"].calls == report.accepted
        assert by_stage["match"].calls == report.accepted
        assert by_stage["publish"].calls == 1
        for entry in stats.stage_latency:
            assert entry.p50_ms >= 0.0
            assert entry.p50_ms <= entry.p95_ms <= entry.p99_ms

    def test_skipped_publish_checks_do_not_record(self, built_tiny):
        _, _, driver = _driver(
            built_tiny, seed=17, publish_min_nodes=10_000, publish_max_interval=10_000.0
        )
        driver.run_cycle()
        stats = driver.stats()
        by_stage = {entry.stage: entry for entry in stats.stage_latency}
        assert by_stage["publish"].calls == 0

    def test_format_table_reports_stages_and_wedge(self, built_tiny):
        _, _, driver = _driver(built_tiny, seed=17, publish_min_nodes=1)
        driver.run_cycle()
        stats = driver.stats()
        assert not stats.wedged
        table = stats.format_table()
        for stage in EVOLUTION_STAGES:
            assert f"stage {stage}" in table
        assert "wedge: clear (0/" in table
        assert "serving generation 1" in table

    def test_format_table_surfaces_a_wedged_loop(self, built_tiny):
        _, _, driver = _driver(
            built_tiny, seed=17, max_retries=2, backoff_base=0.0, publish_min_nodes=1
        )

        def broken(batch):
            raise DataError("miner fell over")

        driver._mine = broken
        driver.start()
        assert _wait_for(lambda: driver.state is EvolutionState.WEDGED)
        stats = driver.stats()
        assert stats.wedged
        table = stats.format_table()
        assert "wedge: WEDGED after 2 consecutive failures (budget 2)" in table
        assert "DataError: miner fell over" in table


class TestPipelineUnderLoad:
    """Readers never observe a torn generation while the driver publishes."""

    N_THREADS = 4

    def test_every_answer_is_a_whole_generation(self, built_tiny):
        overrides = dict(seed=41, publish_min_nodes=1, cycle_interval=0.02)
        # Reference: the same driver run synchronously predicts every
        # generation's answers (cycles are seeded by cycle index), so
        # first discover which concepts the later generations mint...
        probe_store, reference, twin = _driver(built_tiny, **overrides)
        max_generation = 12
        while reference.generation_id < max_generation:
            twin.run_cycle()
        probes = [
            (node.text, node.id) for node in probe_store.nodes(ECOMMERCE_PREFIX)
        ][-3:]

        def observe(service):
            results = []
            for text, concept_id in probes:
                results.append(service.search(text, k=3))
                try:
                    results.append(service.items_for_concept(concept_id, 5))
                except Exception:
                    results.append("absent")
            return tuple(results)

        # ...then re-run it, recording every generation's answers.
        answers = {}
        _, reference, twin = _driver(built_tiny, **overrides)
        answers[0] = observe(reference)
        while reference.generation_id < max_generation:
            twin.run_cycle()
            answers[reference.generation_id] = observe(reference)

        store, service, driver = _driver(built_tiny, **overrides)
        errors = []
        stop = threading.Event()
        barrier = threading.Barrier(self.N_THREADS + 1)

        def hammer():
            try:
                barrier.wait()
                while not stop.is_set():
                    observed = observe(service)
                    for index, value in enumerate(observed):
                        allowed = {answer[index] for answer in answers.values()}
                        assert value in allowed, (index, value)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        driver.start()
        barrier.wait()
        assert _wait_for(lambda: service.generation_id >= 4)
        stop.set()
        driver.stop()
        for thread in threads:
            thread.join(5.0)
        assert not errors, errors[0]
        assert service.generation_id <= max_generation


class TestClusterTarget:
    """The driver advances a sharded cluster in parity with one service."""

    def test_cluster_and_service_evolve_identically(self, built_tiny):
        from repro.serving import AliCoCoCluster, ClusterConfig

        _, service, service_driver = _driver(built_tiny, seed=53, publish_min_nodes=1)
        cluster_store = GenerationalStore(built_tiny.store)
        cluster = AliCoCoCluster(cluster_store, config=ClusterConfig(n_shards=3))
        cluster_driver = EvolutionDriver.from_build(
            built_tiny,
            cluster,
            config=EvolutionConfig(**FAST, seed=53, publish_min_nodes=1),
        )
        for _ in range(3):
            left = service_driver.run_cycle()
            right = cluster_driver.run_cycle()
            assert left == right
        assert service_driver.drain() == cluster_driver.drain()
        assert cluster.generation_id == service.generation_id
        store = service_driver._store
        for node in list(store.nodes(ECOMMERCE_PREFIX))[-6:]:
            assert cluster.search(node.text) == service.search(node.text)
            assert cluster.items_for_concept(node.id) == (
                service.items_for_concept(node.id)
            )
            assert cluster.interpretation(node.id) == (
                service.interpretation(node.id)
            )
