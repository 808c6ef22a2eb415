"""Build the full four-layer net for a run scale.

The paper constructs AliCoCo semi-automatically: models propose, humans
verify, verified data enters the net.  This orchestrator plays the same
movie at synthetic scale — the proposal stage can come from the world's
ground truth (fast, default: it corresponds to model output *after* the
paper's human-verification gate) and the relations are materialised into
an :class:`~repro.kg.store.AliCoCoStore`:

1. the 20-domain taxonomy (Section 3);
2. primitive concepts for every lexicon sense, with INSTANCE_OF edges and
   isA edges inside Category (Section 4);
3. e-commerce concepts with INTERPRETED_BY edges to the correct
   primitive-concept *senses* (Section 5);
4. items with ITEM_PRIMITIVE edges from their attributes and
   ITEM_ECOMMERCE edges from scenario membership (Section 6), weighted by
   simulated click-through rates.

Stage 4 and the concept-isA pass are the hot paths at scale.  Both run
retrieval-then-verify over the inverted indexes in
:mod:`repro.synth.index` (near-linear in items).  Each stage creates its
nodes first and then adds its edges as one ``add_relations`` batch; the
item layer runs one matching pass over the catalog, draws every weight
at once and adds every item edge in one batch.  Every build records
per-stage wall times in a :class:`~repro.utils.timing.StageTimer`
exposed as ``BuildResult.timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import RunScale
from ..kg.relations import Relation, RelationKind
from ..kg.store import AliCoCoStore
from ..synth.corpus import Corpus, build_corpus
from ..synth.index import ConceptCandidateIndex, PartSignatureIndex
from ..synth.items import SynthItem, concept_matcher
from ..synth.lexicon import Lexicon, build_lexicon
from ..synth.world import ConceptSpec, World
from ..taxonomy.builder import build_taxonomy, TaxonomyIndex
from ..utils.rng import spawn_rng
from ..utils.timing import StageTimer


@dataclass
class BuildResult:
    """Everything produced by one construction run.

    Attributes:
        store: The populated net.
        world: The ground-truth world behind it.
        lexicon: The world's lexicon.
        corpus: Generated corpus (items, queries, reviews, guides).
        concepts: The good e-commerce concepts that were admitted.
        taxonomy: Class-name index.
        primitive_ids: (surface, domain) -> primitive-concept node id.
        concept_ids: concept text -> e-commerce node id.
        item_ids: catalog index -> item node id.
        timings: Per-stage wall-clock seconds for this build.
    """

    store: AliCoCoStore
    world: World
    lexicon: Lexicon
    corpus: Corpus
    concepts: list[ConceptSpec]
    taxonomy: TaxonomyIndex
    primitive_ids: dict[tuple[str, str], str] = field(default_factory=dict)
    concept_ids: dict[str, str] = field(default_factory=dict)
    item_ids: dict[int, str] = field(default_factory=dict)
    timings: StageTimer = field(default_factory=StageTimer)


def build_alicoco(
    scale: RunScale,
    n_concepts: int | None = None,
    mine_implicit: bool = True,
    timer: StageTimer | None = None,
) -> BuildResult:
    """Construct the net at the given scale.

    Args:
        scale: Size preset (items/corpus/concept counts derive from it).
        n_concepts: Override for the number of e-commerce concepts.
        mine_implicit: Also mine probabilistic commonsense relations
            ("T-shirt suitable_when summer") per the paper's future work.
        timer: Stage timer to record into (a fresh one is created when
            omitted); also exposed as ``BuildResult.timings``.
    """
    timer = timer if timer is not None else StageTimer()
    with timer.stage("world"):
        lexicon = build_lexicon(
            seed=scale.seed, n_brands=scale.n_brands, n_ips=scale.n_ips
        )
        world = World(lexicon, seed=scale.seed)
        rng = spawn_rng(scale.seed, "build")
        if n_concepts is None:
            n_concepts = max(40, scale.n_items // 8)
        concepts = world.sample_good_concepts(rng, n_concepts)
    with timer.stage("corpus"):
        corpus = build_corpus(world, concepts, scale)

    store = AliCoCoStore()
    with timer.stage("taxonomy"):
        taxonomy = build_taxonomy(store)
    result = BuildResult(
        store, world, lexicon, corpus, concepts, taxonomy, timings=timer
    )

    with timer.stage("primitive-layer"):
        _add_primitive_layer(result)
    with timer.stage("concept-layer"):
        _add_concept_layer(result)
    with timer.stage("item-layer"):
        _add_item_layer(result, rng)
    if mine_implicit:
        with timer.stage("implicit-relations"):
            _add_implicit_relations(result)
    return result


def _add_implicit_relations(result: BuildResult) -> None:
    """Mine probabilistic commonsense relations between primitive concepts
    (the paper's future-work items 1 and 2)."""
    from ..mining.implicit import ImplicitRelationMiner

    miner = ImplicitRelationMiner(min_probability=0.6, min_support=3)
    kind, primitive_ids = RelationKind.RELATED_PRIMITIVE, result.primitive_ids
    relations = []
    for mined in miner.mine(result.corpus.items):
        source = primitive_ids.get((mined.source, "Category"))
        target = primitive_ids.get((mined.target, mined.target_domain))
        if source is None or target is None:
            continue
        relations.append(Relation(kind, source, target, mined.probability, mined.name))
    result.store.add_relations(relations)


def _add_primitive_layer(result: BuildResult) -> None:
    """Primitive concepts for every lexicon sense + Category isA edges."""
    store, taxonomy, primitive_ids = result.store, result.taxonomy, result.primitive_ids
    for entry in result.lexicon.entries:
        class_id = taxonomy.by_name.get(entry.class_name)
        if class_id is None:
            class_id = taxonomy.leaf_class_of_domain[entry.domain]
        node = store.create_primitive(entry.surface, class_id)
        primitive_ids[(entry.surface, entry.domain)] = node.id
    relations = []
    for hyponym, hypernym in result.lexicon.hypernym_pairs("Category"):
        source = primitive_ids[(hyponym, "Category")]
        target = primitive_ids[(hypernym, "Category")]
        relations.append(Relation(RelationKind.ISA_PRIMITIVE, source, target))
    store.add_relations(relations)


def _add_concept_layer(result: BuildResult) -> None:
    """E-commerce concepts + interpretation links to the correct senses.
    Every concept node exists before the links go in as one batch."""
    store, primitive_ids = result.store, result.primitive_ids
    kind = RelationKind.INTERPRETED_BY
    relations = []
    for spec in result.concepts:
        node = store.create_ecommerce(spec.text, source=spec.pattern)
        result.concept_ids[spec.text] = node.id
        for part in spec.parts:
            target = primitive_ids.get((part.surface, part.domain))
            if target is not None:
                relations.append(Relation(kind, node.id, target, name=part.domain))
    store.add_relations(relations)
    with result.timings.stage("concept-isa"):
        _add_concept_isa_indexed(result)


def _add_concept_isa_indexed(result: BuildResult) -> None:
    """isA discovery by subset lookups over a part-signature index: a
    concept whose parts are a strict superset of another's (same senses)
    is the more specific one."""
    index = PartSignatureIndex(result.concepts)
    kind, ids = RelationKind.ISA_ECOMMERCE, result.concept_ids
    relations = [
        Relation(kind, ids[spec.text], ids[broad])
        for spec in result.concepts
        for broad in index.broader_than(spec.text)
    ]
    result.store.add_relations(relations)


def _add_item_layer(result: BuildResult, rng: np.random.Generator) -> None:
    """Items, their primitive tags, and scenario associations.

    Scenario matching (the items x concepts hot path) runs retrieval-then-
    verify: an inverted index proposes candidate concepts per item and
    only those are verified with their concept's ``concept_matcher``.
    One matching pass (``"item-matching"``) collects every item's matched
    concepts in catalog order and draws all their weights at once;
    candidates come back in original concept order, so that one draw
    holds the values of one scalar draw per matched (item, concept) pair.
    One node pass (``"item-nodes"``) creates each item and stages its
    ITEM_PRIMITIVE edges, then its ITEM_ECOMMERCE edges; every item edge
    goes in as one ``add_relations`` batch.
    """
    store, timer, items = result.store, result.timings, result.corpus.items
    index = ConceptCandidateIndex(result.concepts)
    matchers = {
        id(spec): (concept_matcher(result.world, spec), result.concept_ids[spec.text])
        for spec in result.concepts
    }
    with timer.stage("item-matching"):
        matched = []
        for item in items:
            concept_ids = []
            for spec in index.candidates(item):
                matches, concept_id = matchers[id(spec)]
                if matches(item):
                    concept_ids.append(concept_id)
            matched.append(concept_ids)
        # One array draw gives the same values, in the same order, as one
        # scalar draw per matched concept inside the verify loop.
        draws = rng.normal(0.8, 0.1, size=sum(map(len, matched)))
        weights = iter(np.clip(draws, 0.05, 1.0).tolist())
    tag, association = RelationKind.ITEM_PRIMITIVE, RelationKind.ITEM_ECOMMERCE
    with timer.stage("item-nodes"):
        relations = []
        for item, concept_ids in zip(items, matched):
            shop, properties = f"shop_{item.index % 20}", _properties_of(item)
            node = store.create_item(item.title, shop=shop, properties=properties)
            result.item_ids[item.index] = node.id
            for key in item.primitive_surfaces():
                target = result.primitive_ids.get(key)
                if target is not None:
                    relations.append(Relation(tag, node.id, target))
            for target in concept_ids:
                relations.append(Relation(association, node.id, target, next(weights)))
        store.add_relations(relations)


def _properties_of(item: SynthItem) -> dict[str, str]:
    properties = {"Category": item.category}
    for key, value in (
        ("Brand", item.brand),
        ("Color", item.color),
        ("Material", item.material),
        ("Style", item.style),
        ("Pattern", item.pattern),
        ("Quantity", item.quantity),
    ):
        if value is not None:
            properties[key] = value
    return properties
