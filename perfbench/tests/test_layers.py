"""The traced run's wrappers change no answer and leave nothing behind."""

import numpy as np
from repro.kg import GenerationalStore, Relation, RelationKind
from repro.serving import AliCoCoCluster, AliCoCoService

import layers
from spans import Tracer
from system import SERVICE_CONFIG
from traffic import Catalog, hot_keys, tail_cycle


def _battery(built):
    catalog = Catalog.of(built)
    rng = np.random.default_rng(5)
    return hot_keys(catalog, rng, 4) + tail_cycle(catalog, rng, 80)


def _answers(built, models, battery):
    """Every battery answer from a fresh service, a fresh cluster and a
    generational service before and after one publish."""
    service = AliCoCoService(
        built.store,
        config=SERVICE_CONFIG,
        tagger=models.tagger,
        reranker=models.reranker,
    )
    cluster = AliCoCoCluster(
        built.store,
        service_config=SERVICE_CONFIG,
        tagger=models.tagger,
        reranker=models.reranker,
    )
    store = GenerationalStore(built.store, compact_after_segments=1)
    evolving = AliCoCoService(
        store, config=SERVICE_CONFIG, tagger=models.tagger, reranker=models.reranker
    )
    answers = []
    try:
        for system in (service, cluster, evolving):
            answers.append([getattr(system, ep)(*args) for ep, args in battery])
        for generation in (1, 2):
            concept = store.create_ecommerce(f"traced evolve {generation} gift")
            item = store.create_item(f"traced evolve {generation} gift title")
            store.add_relation(
                Relation(RelationKind.ITEM_ECOMMERCE, item.id, concept.id, weight=0.9)
            )
            evolving.publish()
            answers.append([getattr(evolving, ep)(*args) for ep, args in battery])
    finally:
        cluster.close()
    return answers


def test_wrappers_leave_every_answer_bit_identical(smoke_setup):
    built, models = smoke_setup.built, smoke_setup.models
    battery = _battery(built)
    table = layers._patch_table(Tracer())
    originals = [vars(owner)[attr] for owner, attr, _ in table]

    plain = _answers(built, models, battery)
    tracer = Tracer()
    with layers.installed(tracer):
        traced = _answers(built, models, battery)
    after = _answers(built, models, battery)

    assert traced == plain == after
    assert len(tracer) > 0 and tracer.counts["compacts"] > 0
    assert [vars(owner)[attr] for owner, attr, _ in table] == originals


def test_layer_metrics_report_every_metric(smoke_setup):
    tracer = Tracer()
    service = smoke_setup.reference
    with layers.installed(tracer):
        for endpoint, args in _battery(smoke_setup.built):
            tracer.call(layers.READ, getattr(service, endpoint), *args)
    metrics = layers.layer_metrics(
        tracer,
        counters={},
        build_stages=smoke_setup.built.timings.stages,
        train_seconds=smoke_setup.train_s,
        lateness={},
        traced_qps=1.0,
        untraced_qps=2.0,
    )
    assert list(metrics) == list(layers.LAYER_METRICS)
    assert metrics["trace.overhead"] == 0.5
    assert 0.5 < metrics["trace.layer_sum_share"] <= 1.0
    assert metrics["serving.models.pool_size"] > 0
    assert metrics["serving.service.self_us"] > 0
