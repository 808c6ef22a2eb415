"""Bench — construction profile: stage timings, indexed vs brute force.

Builds the net at the scaling study's largest preset (480 items) twice —
once through the inverted candidate indexes (the build's only path) and
once through the all-pairs candidates of the test oracle
``tests.conftest.oracle_build`` — then checks that (a) both builds
produce the identical store and (b) the indexed hot path (item-concept
matching plus concept-isA discovery, read off the stage timers) is at
least twice as fast.
"""

from dataclasses import replace

from repro.pipeline.build import build_alicoco
from repro.synth.index import ConceptCandidateIndex
from tests.conftest import oracle_build

from conftest import BENCH_SCALE, SMOKE

_N_ITEMS = 160 if SMOKE else 480
_N_CONCEPTS = 40 if SMOKE else 60
#: At smoke scale constant factors dominate, so only parity is asserted.
_MIN_SPEEDUP = 1.0 if SMOKE else 2.0


def _hot_path_seconds(result) -> float:
    timings = result.timings
    return timings.seconds("item-matching") + timings.seconds("concept-isa")


def test_build_profile(benchmark, report):
    scale = replace(BENCH_SCALE, n_items=_N_ITEMS)
    indexed = benchmark.pedantic(
        lambda: build_alicoco(scale, n_concepts=_N_CONCEPTS), rounds=1, iterations=1
    )
    brute = oracle_build(scale, n_concepts=_N_CONCEPTS)

    # Parity: the fast path is an acceleration, not an approximation.
    assert sorted(n.id for n in indexed.store.nodes()) == sorted(
        n.id for n in brute.store.nodes()
    )
    assert list(indexed.store.relations()) == list(brute.store.relations())

    speedup = _hot_path_seconds(brute) / max(_hot_path_seconds(indexed), 1e-9)
    assert speedup >= _MIN_SPEEDUP, (
        f"indexed hot path should be >={_MIN_SPEEDUP}x brute force, "
        f"got {speedup:.2f}x"
    )

    index_stats = ConceptCandidateIndex(indexed.concepts).stats()
    selectivity = ", ".join(f"{key}={value}" for key, value in index_stats.items())
    lines = [
        f"Build profile at {_N_ITEMS} items / {_N_CONCEPTS} concepts",
        f"  hot-path speedup (match + isA): {speedup:.2f}x",
        f"  candidate index: {selectivity}",
        "",
    ]
    for tag, result in (("indexed", indexed), ("brute-force", brute)):
        lines.append(result.timings.format_table(f"{tag} stage timings"))
        lines.append("")
    report("\n".join(lines))
