"""The concept tagger's tape-free emissions against its taped ones.

``ConceptTagger.predict`` (and so the served ``tag`` endpoint) decodes
emissions computed on plain arrays through the tagger's inference
session; ``ConceptTagger.emissions`` keeps the taped forward for
training.  Both must give the same arrays bit for bit, and so the same
labels and tag spans.
"""

import numpy as np
import pytest

from repro.concepts import ConceptTagger
from repro.concepts.tagging import build_text_matrix
from repro.errors import DataError
from repro.ml import no_grad
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.serving.models import prepare_serving_module, tag_spans
from repro.synth import World, build_lexicon

#: A word whose characters never occur in the training vocabulary.
UNSEEN = "qx#9"


@pytest.fixture(scope="module")
def world():
    lexicon = build_lexicon(seed=3)
    rng = np.random.default_rng(3)
    specs = World(lexicon, seed=3).sample_good_concepts(rng, 40)
    sentences = [list(spec.tokens) for spec in specs]
    words = {word for sentence in sentences for word in sentence}
    text_matrix = build_text_matrix(sentences, words, dim=6, seed=0)
    # A known word without a text-matrix row.
    missing = sorted(text_matrix)[0]
    del text_matrix[missing]
    return {
        "lexicon": lexicon,
        "specs": specs,
        "vocab": Vocab.from_corpus(sentences),
        "text_matrix": text_matrix,
        "missing": missing,
    }


VARIANTS = {
    "strict": {"use_fuzzy": False, "knowledge": False},
    "fuzzy": {"use_fuzzy": True, "knowledge": False},
    "fuzzy-knowledge": {"use_fuzzy": True, "knowledge": True},
}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def tagger(request, world):
    variant = VARIANTS[request.param]
    tagger = ConceptTagger(
        world["vocab"],
        world["lexicon"],
        PosTagger(world["lexicon"].pos_lexicon()),
        text_matrix=world["text_matrix"] if variant["knowledge"] else None,
        text_dim=6,
        use_fuzzy=variant["use_fuzzy"],
        word_dim=8,
        char_dim=4,
        hidden_dim=5,
        seed=2,
    )
    tagger.fit(world["specs"][:30], epochs=1, lr=0.02, seed=1)
    return tagger


def concepts(world):
    """Every sampled concept plus the edge cases."""
    token_lists = [list(spec.tokens) for spec in world["specs"]]
    one_token = token_lists[0][:1]
    return token_lists + [
        one_token,
        [UNSEEN],
        [world["missing"], UNSEEN, token_lists[1][0]],
    ]


def taped_emissions(tagger, tokens):
    with no_grad():
        return tagger.emissions(tokens).data


def test_edge_cases_are_what_they_claim(world, tagger):
    assert not set(UNSEEN) & set(tagger.char_vocab.tokens())
    assert world["missing"] in world["vocab"].tokens()
    assert world["missing"] not in world["text_matrix"]


def test_tape_free_emissions_and_labels_equal_taped(world, tagger):
    for tokens in concepts(world):
        taped = taped_emissions(tagger, tokens)
        fast = tagger.emission_scores(tokens)
        assert fast.shape == taped.shape == (len(tokens), len(tagger.labels))
        assert np.array_equal(fast, taped), tokens
        labels = [tagger.labels.label(i) for i in tagger.crf.decode(taped)]
        assert tagger.predict(tokens) == labels


def test_predict_rejects_an_empty_concept(tagger):
    with pytest.raises(DataError):
        tagger.predict([])


def test_served_tag_spans_are_unchanged(world, tagger, monkeypatch):
    prepare_serving_module(tagger, "tagger")
    surfaces = {token for tokens in concepts(world) for token in tokens}
    domains = [tagger.labels.label(i)[2:] for i in range(1, len(tagger.labels))]
    index = {
        (surface, domain): f"p-{surface}-{domain}"
        for surface in surfaces
        for domain in domains
    }
    served = [tag_spans(tagger, tokens, index) for tokens in concepts(world)]
    monkeypatch.setattr(
        tagger, "emission_scores", lambda tokens: taped_emissions(tagger, tokens)
    )
    taped = [tag_spans(tagger, tokens, index) for tokens in concepts(world)]
    assert served == taped
    assert any(span.primitive_id for spans in served for span in spans)
