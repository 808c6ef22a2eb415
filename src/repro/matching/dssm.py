"""DSSM baseline [13] (Table 6).

Two independent towers project mean-pooled text embeddings into a shared
semantic space; relevance is the (scaled) cosine between the two vectors.
"""

from __future__ import annotations

import numpy as np

from ..ml import MLP
from ..ml.module import Parameter
from ..ml.tensor import Tensor
from ..nlp.vocab import Vocab
from .base import NeuralMatcher
from .dataset import MatchingExample


class DSSMMatcher(NeuralMatcher):
    """Deep Structured Semantic Model.

    Args:
        vocab: Shared vocabulary.
        dim: Embedding width.
        hidden: Tower hidden width.
        seed: Weight-init seed.
    """

    fast_path = True
    dense_vectors = True

    def __init__(self, vocab: Vocab, dim: int = 16, hidden: int = 16,
                 seed: int = 0, pretrained: np.ndarray | None = None):
        super().__init__(vocab, dim, seed, "dssm", pretrained)
        self.query_tower = MLP([dim, hidden, hidden], self.rng,
                               activation="tanh")
        self.title_tower = MLP([dim, hidden, hidden], self.rng,
                               activation="tanh")
        # Learned cosine scale/offset turning similarity into a logit.
        self.scale = Parameter(np.array([4.0]))
        self.offset = Parameter(np.array([0.0]))

    def _tower(self, tokens, tower) -> Tensor:
        pooled = self._embed(tokens).mean(axis=1)[0]
        return tower(pooled)

    def logit(self, example: MatchingExample) -> Tensor:
        query = self._tower(example.concept.tokens, self.query_tower)
        title = self._tower(example.item.title_tokens, self.title_tower)
        dot = (query * title).sum()
        norm = ((query * query).sum() ** 0.5) * ((title * title).sum() ** 0.5)
        cosine = dot / (norm + 1e-8)
        return (cosine * self.scale + self.offset).reshape(())

    # -------------------------------------------------- inference fast path
    def _tower_array(self, tokens, name: str) -> tuple[np.ndarray, float]:
        """Functional tower forward: ``(vector, vector_norm)``.

        Mirrors :meth:`_tower`'s taped arithmetic — mean pooling computed
        as ``sum * (1/T)`` exactly like ``Tensor.mean`` — so fast-path
        cosines match the oracle bit for bit.
        """
        session = self.inference_session()
        embedded = session.embed("embedding.weight", self._token_ids(tokens))
        pooled = embedded.sum(axis=0) * (1.0 / embedded.shape[0])
        vector = session.mlp(pooled, name, "tanh")
        return vector, float((vector * vector).sum() ** 0.5)

    def encode_query(self, query_tokens) -> tuple[np.ndarray, float]:
        return self._tower_array(query_tokens, "query_tower")

    def encode_doc(self, doc_tokens) -> tuple[np.ndarray, float]:
        return self._tower_array(doc_tokens, "title_tower")

    def query_vector(self, query_tokens, encoding=None) -> np.ndarray:
        """Query-tower embedding; cosine against :meth:`doc_vector` is the
        similarity the matcher itself ranks by, so a cosine ANN index over
        doc vectors is a faithful first stage for this model."""
        state = encoding if encoding is not None else self.encode_query(query_tokens)
        return state[0]

    def doc_vector(self, doc_tokens, encoding=None) -> np.ndarray:
        state = encoding if encoding is not None else self.encode_doc(doc_tokens)
        return state[0]

    def _pool_logits(self, query_state, doc_encodings) -> np.ndarray:
        """The whole pool's logits as array operations.

        Dot products are row sums of ``titles * query``: each row reduces
        exactly like the oracle's ``(query * title).sum()``, so the logits
        match it bit for bit (a BLAS ``titles @ query`` may not).
        """
        query, query_norm = query_state
        titles = np.stack([title for title, _ in doc_encodings])
        title_norms = np.array([title_norm for _, title_norm in doc_encodings])
        cosines = (titles * query).sum(axis=1) / (query_norm * title_norms + 1e-8)
        return cosines * self.scale.data[0] + self.offset.data[0]
