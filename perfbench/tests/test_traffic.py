"""The workload seed drives the request stream and nothing else."""

from itertools import islice

from system import SMOKE, setup
from workloads import WORKLOADS, _traffic


def _stream(workload, seed, built, count=500):
    traffic = _traffic(WORKLOADS[workload], SMOKE, seed, built)
    indices = list(islice(traffic.stream, count))
    return [traffic.keys[index] for index in indices], traffic.evolve_seed


def test_same_seed_gives_an_identical_stream(smoke_setup):
    for workload in WORKLOADS:
        assert _stream(workload, 7, smoke_setup.built) == _stream(
            workload, 7, smoke_setup.built
        )


def test_another_seed_gives_another_stream(smoke_setup):
    for workload in WORKLOADS:
        assert _stream(workload, 7, smoke_setup.built) != _stream(
            workload, 8, smoke_setup.built
        )


def test_set_up_work_does_not_depend_on_the_seed(smoke_setup):
    # setup() takes no seed: a second set-up rebuilds the same net and
    # trains the same models, whatever traffic follows.
    again = setup(SMOKE, "service")
    assert list(again.built.store.relations()) == list(
        smoke_setup.built.store.relations()
    )
    for mine, theirs in zip(
        again.models.reranker.parameters(), smoke_setup.models.reranker.parameters()
    ):
        assert (mine.data == theirs.data).all()
    assert again.unsearchable == smoke_setup.unsearchable == 0


def test_tail_cycle_keys_are_distinct(smoke_setup):
    traffic = _traffic(WORKLOADS["cluster_tail"], SMOKE, 3, smoke_setup.built)
    assert len(set(traffic.keys)) == len(traffic.keys)
    endpoints = {endpoint for endpoint, _ in traffic.keys}
    assert len(endpoints) == 8
