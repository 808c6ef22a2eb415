"""Model-backed serving: inference-mode guards, tag spans, model bundles.

The paper serves its models online (Sections 5.3 and 6): concept tagging
and concept-item matching answer live traffic, not just offline
experiment scripts.  This module is the glue between trained
:class:`~repro.ml.module.Module` models and
:class:`~repro.serving.AliCoCoService`:

- **the eval-mode guard** — a module enters the service through
  :func:`prepare_serving_module`, which requires it to be fitted, puts it
  in eval mode once, and leaves it there; every inference then passes
  :func:`ensure_inference_mode`, which refuses to serve a module someone
  has flipped back to training mode (training-mode layers such as
  :class:`~repro.ml.Dropout` are stochastic *and* mutate RNG state, which
  would break both determinism and thread safety); the check runs over
  the submodule list flattened at preparation, not a recursive walk;
- **tag spans** — :func:`tag_spans` runs the
  :class:`~repro.concepts.tagging.ConceptTagger` tape-free (its emissions
  on plain arrays through the inference session extracted at
  preparation, then Viterbi decoding) and links each IOB span to a
  primitive-concept node of the served net;
- **model bundles** — :func:`model_bundle_state` /
  :func:`restore_serving_module` wrap
  :func:`repro.ml.serialize.module_state_record` with a model *kind* so a
  snapshot's tagger weights can never be restored into a reranker (and
  vice versa), on top of the record's own architecture-fingerprint check.

Thread-safety contract: a prepared module's forward pass is read-only
(weights are never written outside training), and graph recording is
context-local (:mod:`repro.ml.tensor`), so one prepared module may serve
any number of threads concurrently — provided nobody trains it at the
same time, which :func:`ensure_inference_mode` makes loud instead of
silent whenever the trainer flipped ``training`` back on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..concepts.tagging import ConceptTagger, iob_spans
from ..errors import ConfigError, DataError, NotFittedError
from ..ml.module import Module
from ..ml.serialize import load_module_state, module_state_record

#: Bundle kind for the concept tagger (Section 5.3's model).
TAGGER_KIND = "concept-tagger"
#: Bundle kind for text-pair rerankers (Section 6's matchers).
RERANKER_KIND = "reranker"


@dataclass(frozen=True)
class TagSpan:
    """One tagged mention of a concept phrase, linked into the net.

    Attributes:
        surface: The mention text (tokens joined by spaces).
        domain: Predicted primitive-concept domain (e.g. ``Event``).
        start: Token index where the span starts (inclusive).
        stop: Token index where the span ends (exclusive).
        primitive_id: Id of the served net's primitive concept with this
            (surface, domain), or ``None`` when the mention has no node —
            the model generalises beyond the net's vocabulary.
    """

    surface: str
    domain: str
    start: int
    stop: int
    primitive_id: str | None


def prepare_serving_module(module: Module, name: str) -> Module:
    """Admit a model into the service: must be fitted; enters eval mode.

    Raises:
        NotFittedError: If the module reports it has not been trained.
    """
    if not getattr(module, "_fitted", True):
        raise NotFittedError(
            f"cannot serve untrained model {name!r}; fit it first "
            "(or restore trained weights from a snapshot bundle)"
        )
    _enter_eval(module)
    # Extract the tape-free inference session (weight views,
    # repro.ml.inference) eagerly, before the first query arrives, so the
    # hot path never pays the named_parameters walk.
    module.inference_session()
    return module


def _enter_eval(module: Module) -> None:
    """Put a served module in eval mode and flatten its submodule tree.

    :func:`ensure_inference_mode` then checks the flat set on every call
    instead of walking the tree.  A frozenset, not a tuple:
    ``Module.modules()`` walks tuple and list attributes, so it would
    recurse into a tuple of the module's own submodules.
    """
    module.eval()
    module._served_submodules = frozenset(module.modules())


def ensure_inference_mode(module: Module, name: str) -> None:
    """Refuse to serve a module that has left eval mode.

    Raises:
        ConfigError: If any submodule is in training mode — serving a
            training-mode model is nondeterministic (dropout) and mutates
            shared RNG state under concurrent traffic.
    """
    submodules = module.__dict__.get("_served_submodules")
    if submodules is None:
        submodules = module.modules()
    if any(submodule.training for submodule in submodules):
        raise ConfigError(
            f"served model {name!r} is in training mode; call .eval() "
            "before serving (a service prepares its models once — this "
            "means someone called .train() on a live served module)"
        )


def tag_spans(
    tagger: ConceptTagger,
    tokens: Sequence[str],
    primitive_index: Mapping[tuple[str, str], str],
) -> tuple[TagSpan, ...]:
    """Tag a token sequence and link spans to primitive-concept nodes.

    :meth:`~repro.concepts.tagging.ConceptTagger.predict` computes the
    emissions without a tape and Viterbi-decodes them; linking is a pure
    lookup into ``primitive_index``
    ((surface, domain) -> node id over the served net's primitive layer).
    """
    ensure_inference_mode(tagger, "tagger")
    labels = tagger.predict(list(tokens))
    spans = []
    for start, stop, domain in iob_spans(labels):
        surface = " ".join(tokens[start:stop])
        spans.append(
            TagSpan(
                surface=surface,
                domain=domain,
                start=start,
                stop=stop,
                primitive_id=primitive_index.get((surface, domain)),
            )
        )
    return tuple(spans)


def rerank_pool(
    model: Module,
    query_tokens: Sequence[str],
    doc_token_lists: Sequence[Sequence[str]],
    doc_encodings: Sequence[Any] | None = None,
    query_state: Any = None,
):
    """Model match probabilities for one query against a candidate pool.

    :meth:`~repro.matching.base.NeuralMatcher.score_pool` encodes the
    query side once and reuses it across every candidate, running
    fast-path matchers entirely on the tape-free kernels of
    :mod:`repro.ml.inference`.  ``doc_encodings`` lets the service pass
    cached doc-side encodings through (aligned with ``doc_token_lists``,
    ``None`` slots encoded on the fly), and ``query_state`` the request's
    one ``encode_query`` result.

    Returns:
        A float array, one probability per candidate.
    """
    ensure_inference_mode(model, "reranker")
    return model.score_pool(
        query_tokens,
        doc_token_lists,
        doc_encodings=doc_encodings,
        query_state=query_state,
    )


def dense_query_vector(
    model: Module, query_tokens: Sequence[str], encoding: Any = None
):
    """Query-side retrieval embedding from a served vector-capable matcher.

    The dense first stage's query entry point: the vector lives in the
    same space as :func:`dense_doc_vector`, so a dense index over doc
    vectors ranks candidates by the served matcher's own similarity.
    ``encoding`` accepts the request's ``encode_query`` result for the
    same tokens, which the vector is then read from.
    """
    ensure_inference_mode(model, "reranker")
    return model.query_vector(query_tokens, encoding=encoding)


def dense_doc_vector(model: Module, doc_tokens: Sequence[str], encoding: Any = None):
    """Doc-side retrieval embedding, optionally from a cached encoding.

    ``encoding`` accepts an ``encode_doc`` result for the same tokens —
    the service feeds its frozen-catalog doc-encoding cache through here
    when building a dense index, so index construction re-encodes nothing
    the cache already holds.
    """
    ensure_inference_mode(model, "reranker")
    return model.doc_vector(doc_tokens, encoding=encoding)


# ------------------------------------------------------------- model bundles
def model_bundle_state(module: Module, kind: str) -> dict[str, Any]:
    """A snapshot-embeddable record of a served model's trained weights.

    The record's config carries the bundle ``kind`` (and the module's
    class name), both folded into the architecture fingerprint — so a
    restore validates *what* the weights are for, not just their shapes.
    """
    return module_state_record(
        module, config={"kind": kind, "class": type(module).__name__}
    )


def restore_serving_module(
    module: Module, state: Mapping[str, Any], kind: str, name: str
) -> Module:
    """Load a bundle record into a freshly built architecture and serve it.

    The module comes in untrained (weights are about to be replaced); it
    leaves fitted, in eval mode, ready for :func:`ensure_inference_mode`.

    Raises:
        DataError: If the record's kind disagrees with ``kind``, or the
            fingerprint/shape validation in
            :func:`repro.ml.serialize.load_module_state` fails.
    """
    recorded_kind = (state.get("config") or {}).get("kind")
    if recorded_kind != kind:
        raise DataError(
            f"model bundle {name!r} holds a {recorded_kind!r} model, "
            f"expected {kind!r}"
        )
    load_module_state(module, state)
    module._fitted = True
    _enter_eval(module)
    return module
