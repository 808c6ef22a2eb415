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

Stage 4 and the concept-isA pass are the hot paths at scale.  By default
they run retrieval-then-verify over the inverted indexes in
:mod:`repro.synth.index` (near-linear in items); the brute-force
all-pairs scans stay callable via ``use_candidate_index=False`` and are
guaranteed — and tested — to produce an identical store.  Every build
records per-stage wall times in a :class:`~repro.utils.timing.StageTimer`
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


def build_alicoco(scale: RunScale, n_concepts: int | None = None,
                  mine_implicit: bool = True,
                  use_candidate_index: bool = True,
                  timer: StageTimer | None = None) -> BuildResult:
    """Construct the net at the given scale.

    Args:
        scale: Size preset (items/corpus/concept counts derive from it).
        n_concepts: Override for the number of e-commerce concepts.
        mine_implicit: Also mine probabilistic commonsense relations
            ("T-shirt suitable_when summer") per the paper's future work.
        use_candidate_index: Route item-concept matching and concept-isA
            discovery through the inverted candidate indexes (default).
            ``False`` keeps the brute-force all-pairs scans, which produce
            an identical store — useful for parity tests and benchmarks.
        timer: Stage timer to record into (a fresh one is created when
            omitted); also exposed as ``BuildResult.timings``.
    """
    timer = timer if timer is not None else StageTimer()
    with timer.stage("world"):
        lexicon = build_lexicon(seed=scale.seed, n_brands=scale.n_brands,
                                n_ips=scale.n_ips)
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
    result = BuildResult(store=store, world=world, lexicon=lexicon,
                         corpus=corpus, concepts=concepts, taxonomy=taxonomy,
                         timings=timer)

    with timer.stage("primitive-layer"):
        _add_primitive_layer(result)
    with timer.stage("concept-layer"):
        _add_concept_layer(result, use_candidate_index)
    with timer.stage("item-layer"):
        _add_item_layer(result, rng, use_candidate_index)
    if mine_implicit:
        with timer.stage("implicit-relations"):
            _add_implicit_relations(result)
    return result


def _add_implicit_relations(result: BuildResult) -> None:
    """Mine probabilistic commonsense relations between primitive concepts
    (the paper's future-work items 1 and 2)."""
    from ..mining.implicit import ImplicitRelationMiner

    miner = ImplicitRelationMiner(min_probability=0.6, min_support=3)
    for mined in miner.mine(result.corpus.items):
        source = result.primitive_ids.get((mined.source, "Category"))
        target = result.primitive_ids.get((mined.target, mined.target_domain))
        if source is None or target is None:
            continue
        result.store.add_relation(Relation(
            RelationKind.RELATED_PRIMITIVE, source, target,
            weight=mined.probability, name=mined.name))


def _add_primitive_layer(result: BuildResult) -> None:
    """Primitive concepts for every lexicon sense + Category isA edges."""
    store, taxonomy = result.store, result.taxonomy
    for entry in result.lexicon.entries:
        class_id = taxonomy.by_name.get(entry.class_name)
        if class_id is None:
            class_id = taxonomy.leaf_class_of_domain[entry.domain]
        node = store.create_primitive(entry.surface, class_id)
        result.primitive_ids[(entry.surface, entry.domain)] = node.id
    for hyponym, hypernym in result.lexicon.hypernym_pairs("Category"):
        source = result.primitive_ids[(hyponym, "Category")]
        target = result.primitive_ids[(hypernym, "Category")]
        store.add_relation(Relation(RelationKind.ISA_PRIMITIVE, source, target))


def _add_concept_layer(result: BuildResult, use_candidate_index: bool) -> None:
    """E-commerce concepts + interpretation links to the correct senses."""
    store = result.store
    for spec in result.concepts:
        node = store.create_ecommerce(spec.text, source=spec.pattern)
        result.concept_ids[spec.text] = node.id
        for part in spec.parts:
            primitive_id = result.primitive_ids.get((part.surface, part.domain))
            if primitive_id is not None:
                store.add_relation(Relation(
                    RelationKind.INTERPRETED_BY, node.id, primitive_id,
                    name=part.domain))
    with result.timings.stage("concept-isa"):
        if use_candidate_index:
            _add_concept_isa_indexed(result)
        else:
            _add_concept_isa(result)


def _add_concept_isa(result: BuildResult) -> None:
    """Brute-force isA discovery: compare every concept pair.  A concept
    whose parts are a strict superset of another's (same senses) is the
    more specific one."""
    store = result.store
    signatures: dict[str, frozenset[tuple[str, str]]] = {}
    for spec in result.concepts:
        signatures[spec.text] = frozenset(
            (p.surface, p.domain) for p in spec.parts)
    texts = list(signatures)
    for narrow in texts:
        for broad in texts:
            if narrow == broad:
                continue
            if signatures[broad] and signatures[broad] < signatures[narrow]:
                store.add_relation(Relation(
                    RelationKind.ISA_ECOMMERCE,
                    result.concept_ids[narrow], result.concept_ids[broad]))


def _add_concept_isa_indexed(result: BuildResult) -> None:
    """Subset-lookup isA discovery over a part-signature index; produces
    the same edges as :func:`_add_concept_isa` in the same order."""
    store = result.store
    index = PartSignatureIndex(result.concepts)
    for spec in result.concepts:
        for broad in index.broader_than(spec.text):
            store.add_relation(Relation(
                RelationKind.ISA_ECOMMERCE,
                result.concept_ids[spec.text], result.concept_ids[broad]))


def _add_item_layer(result: BuildResult, rng: np.random.Generator,
                    use_candidate_index: bool) -> None:
    """Items, their primitive tags, and scenario associations.

    Scenario matching (the items x concepts hot path) runs retrieval-then-
    verify by default: an inverted index proposes candidate concepts per
    item and only those are verified with their concept's
    ``concept_matcher``.  Candidates come back in original concept order,
    so the weight RNG is consumed identically to the brute-force scan and
    both paths build the exact same store.  Each item's ITEM_PRIMITIVE
    and ITEM_ECOMMERCE edges go in as one ``add_relations`` batch each.
    """
    store, world = result.store, result.world
    timer = result.timings
    index = (ConceptCandidateIndex(result.concepts)
             if use_candidate_index else None)
    matchers = {id(spec): (concept_matcher(world, spec),
                           result.concept_ids[spec.text])
                for spec in result.concepts}
    for item in result.corpus.items:
        with timer.stage("item-nodes"):
            node = store.create_item(item.title,
                                     shop=f"shop_{item.index % 20}",
                                     properties=_properties_of(item))
            result.item_ids[item.index] = node.id
            primitive_ids = (
                result.primitive_ids.get(key)
                for key in item.primitive_surfaces())
            store.add_relations([
                Relation(RelationKind.ITEM_PRIMITIVE, node.id, primitive_id)
                for primitive_id in primitive_ids if primitive_id is not None])
        with timer.stage("item-matching"):
            pool = (index.candidates(item) if index is not None
                    else result.concepts)
            concept_ids = []
            for spec in pool:
                matches, concept_id = matchers[id(spec)]
                if matches(item):
                    concept_ids.append(concept_id)
            # One array draw gives the same values, in the same order, as
            # one scalar draw per matched concept inside the verify loop.
            weights = np.clip(
                rng.normal(0.8, 0.1, size=len(concept_ids)), 0.05, 1.0)
            store.add_relations([
                Relation(RelationKind.ITEM_ECOMMERCE, node.id, concept_id,
                         weight=weight)
                for concept_id, weight in zip(concept_ids, weights.tolist())])


def _properties_of(item: SynthItem) -> dict[str, str]:
    properties = {"Category": item.category}
    for key, value in (("Brand", item.brand), ("Color", item.color),
                       ("Material", item.material), ("Style", item.style),
                       ("Pattern", item.pattern), ("Quantity", item.quantity)):
        if value is not None:
            properties[key] = value
    return properties
