"""Scaling study: construction cost and net statistics vs catalog size.

Not a paper table, but the paper's deployment story (billions of items,
98% linked) raises the obvious systems question: how do build time and
relation counts grow with the catalog?  Linear-ish growth in items and
item-relations validates that the construction pipeline has no
super-linear bottleneck at reproduction scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..config import RunScale
from ..pipeline.build import build_alicoco
from .common import format_rows


@dataclass(frozen=True)
class ScalePoint:
    """Measurements for one catalog size.

    ``match_seconds`` / ``isa_seconds`` come from the build's stage
    timers and isolate the two construction hot paths (item-concept
    matching and concept-isA discovery) from corpus generation.  The
    ``"item-matching"`` stage times matching and the weight draw only;
    item nodes and every item edge land in ``"item-nodes"``.
    """

    n_items: int
    build_seconds: float
    relations_total: int
    item_relations: int
    linked_fraction: float
    match_seconds: float = 0.0
    isa_seconds: float = 0.0


@dataclass
class ScalingResult:
    points: list[ScalePoint]

    def items_axis(self) -> list[int]:
        return [p.n_items for p in self.points]


def run(
    base: RunScale,
    item_counts: tuple[int, ...] = (60, 120, 240, 480),
    n_concepts: int = 60,
) -> ScalingResult:
    """Build the net at several catalog sizes and record cost/shape.

    Every build routes through the inverted candidate indexes, the
    configuration construction runs by default.
    """
    points: list[ScalePoint] = []
    for n_items in item_counts:
        scale = replace(base, n_items=n_items)
        start = time.perf_counter()
        built = build_alicoco(scale, n_concepts=n_concepts)
        elapsed = time.perf_counter() - start
        stats = built.store.stats()
        points.append(
            ScalePoint(
                n_items=n_items,
                build_seconds=elapsed,
                relations_total=stats.relations_total,
                item_relations=stats.item_primitive + stats.item_ecommerce,
                linked_fraction=stats.linked_item_fraction,
                match_seconds=built.timings.seconds("item-matching"),
                isa_seconds=built.timings.seconds("concept-isa"),
            )
        )
    return ScalingResult(points=points)


def format_report(result: ScalingResult) -> str:
    rows = [
        (
            p.n_items,
            f"{p.build_seconds:.2f}s",
            f"{p.match_seconds * 1e3:.0f}ms",
            f"{p.isa_seconds * 1e3:.1f}ms",
            p.relations_total,
            p.item_relations,
            f"{p.linked_fraction:.0%}",
        )
        for p in result.points
    ]
    return format_rows(
        "Scaling — construction cost vs catalog size",
        (
            "items",
            "build time",
            "match stage",
            "isA stage",
            "relations",
            "item relations",
            "linked",
        ),
        rows,
        paper_note="the paper links 98% of >3B items; growth must stay "
        "linear-ish in the catalog (matching runs indexed "
        "retrieval-then-verify)",
    )
