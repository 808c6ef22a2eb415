"""E-commerce concept tagging (Section 5.3, Figures 6-7, Table 5).

Links a mined e-commerce concept to the primitive-concept layer by
labelling each word with its domain — short-text NER.  The model is the
paper's: word features (pretrained embedding + char-CNN + POS embedding)
through a BiLSTM; each hidden state is concatenated with a *text-augmented*
embedding (Doc2vec over the word's corpus contexts) and self-attended; a
*fuzzy CRF* (Eq. 8) trains against all valid label sequences for ambiguous
words like "village" (Location or Style).

Ablation flags map to Table 5's rows:

- Baseline: ``use_fuzzy=False, text_matrix=None``
- +Fuzzy CRF: ``use_fuzzy=True``
- +Fuzzy CRF & Knowledge: additionally pass ``text_matrix``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError, NotFittedError
from ..ml import (
    AdditiveSelfAttention, Adam, BiLSTM, Conv1d, Embedding, Linear, Module,
)
from ..ml.tensor import Tensor, concat
from ..nlp.crf import LinearChainCRF
from ..nlp.doc2vec import Doc2Vec
from ..nlp.pos import PosTagger
from ..nlp.vocab import Vocab
from ..synth.lexicon import Lexicon
from ..synth.world import ConceptSpec
from ..utils.rng import spawn_rng


def build_text_matrix(corpus_sentences: list[list[str]], words: set[str],
                      dim: int = 16, window: int = 3, max_contexts: int = 20,
                      seed: int = 0) -> dict[str, np.ndarray]:
    """The TM of Figure 6: per-word Doc2vec vectors of corpus contexts.

    Each word's occurrences contribute a window of surrounding tokens; the
    concatenated windows form one document per word, encoded with PV-DBOW.
    """
    contexts: dict[str, list[str]] = {word: [] for word in words}
    counts: dict[str, int] = {word: 0 for word in words}
    for sentence in corpus_sentences:
        for position, token in enumerate(sentence):
            if token not in contexts or counts[token] >= max_contexts:
                continue
            counts[token] += 1
            lo = max(0, position - window)
            hi = min(len(sentence), position + window + 1)
            contexts[token].extend(
                sentence[i] for i in range(lo, hi) if i != position)
    ordered = sorted(word for word in contexts if contexts[word])
    documents = [contexts[word] for word in ordered]
    if not documents:
        return {}
    model = Doc2Vec(dim=dim, epochs=8, seed=seed).fit(documents)
    return {word: model.document_vector(i).copy()
            for i, word in enumerate(ordered)}


class TaggingLabels:
    """IOB label set over the lexicon's domains."""

    def __init__(self, domains: Sequence[str]):
        labels = ["O"]
        for domain in sorted(set(domains)):
            labels.append(f"B-{domain}")
            labels.append(f"I-{domain}")
        self._itos = labels
        self._stoi = {label: i for i, label in enumerate(labels)}

    def __len__(self) -> int:
        return len(self._itos)

    def id(self, label: str) -> int:
        try:
            return self._stoi[label]
        except KeyError:
            raise DataError(f"unknown tagging label {label!r}") from None

    def label(self, label_id: int) -> str:
        return self._itos[label_id]


class ConceptTagger(Module):
    """The Figure 6 model.

    Args:
        word_vocab: Vocabulary over concept words.
        lexicon: Used for the fuzzy CRF's allowed-label sets (which senses
            each surface can take).
        pos_tagger: POS feature channel.
        text_matrix: Word -> Doc2vec context vector, or ``None`` to disable
            the knowledge/text augmentation.
        text_dim: Dimension of the text-matrix vectors.
        use_fuzzy: Train with the fuzzy CRF instead of the strict CRF.
        word_dim / char_dim / hidden_dim: Widths.
        pretrained_words: Optional pretrained word-embedding matrix.
        seed: Weight-init seed.
    """

    def __init__(self, word_vocab: Vocab, lexicon: Lexicon,
                 pos_tagger: PosTagger,
                 text_matrix: dict[str, np.ndarray] | None = None,
                 text_dim: int = 16, use_fuzzy: bool = True,
                 word_dim: int = 16, char_dim: int = 8, hidden_dim: int = 12,
                 pretrained_words: np.ndarray | None = None, seed: int = 0):
        super().__init__()
        rng = spawn_rng(seed, "concept-tagger")
        self.word_vocab = word_vocab
        self.lexicon = lexicon
        self.pos_tagger = pos_tagger
        self.use_fuzzy = use_fuzzy
        self.use_knowledge = text_matrix is not None
        self._text_matrix = text_matrix or {}
        self.text_dim = text_dim
        domains = sorted({entry.domain for entry in lexicon.entries})
        self.labels = TaggingLabels(domains)

        chars = sorted({c for token in word_vocab.tokens() for c in token})
        self.char_vocab = Vocab(chars)
        self.char_embedding = Embedding(len(self.char_vocab), char_dim, rng)
        self.char_cnn = Conv1d(char_dim, char_dim, 3, rng)

        pos_dim = 4
        self.word_embedding = Embedding(len(word_vocab), word_dim, rng,
                                        pretrained=pretrained_words)
        self.pos_embedding = Embedding(PosTagger.num_tags(), pos_dim, rng)
        encoder_input = word_dim + char_dim + pos_dim
        self.encoder = BiLSTM(encoder_input, hidden_dim, rng)
        attention_input = 2 * hidden_dim + (text_dim if self.use_knowledge else 0)
        self.attention = AdditiveSelfAttention(attention_input, hidden_dim, rng)
        self.projection = Linear(attention_input, len(self.labels), rng)
        self.crf = LinearChainCRF(len(self.labels), rng)
        self._fitted = False

    # -------------------------------------------------------------- encoding
    def _inputs(self, tokens: Sequence[str]):
        """Word ids, POS ids, per-token char ids (each with a leading
        batch axis of 1) and the text-matrix rows (``None`` without
        knowledge) of a concept."""
        if not tokens:
            raise DataError("cannot tag an empty concept")
        tokens = list(tokens)
        word_ids = np.asarray(self.word_vocab.ids(tokens))[None, :]
        pos_ids = np.asarray([PosTagger.tag_id(t)
                              for t in self.pos_tagger.tag(tokens)])[None, :]
        char_ids = [np.asarray([self.char_vocab.id(c) for c in token])[None, :]
                    for token in tokens]
        augmented = None
        if self.use_knowledge:
            vectors = []
            for token in tokens:
                vector = self._text_matrix.get(token)
                if vector is None:
                    vector = np.zeros(self.text_dim)
                vectors.append(np.asarray(vector, dtype=np.float64))
            augmented = np.stack(vectors)[None, :, :]
        return word_ids, pos_ids, char_ids, augmented

    def emissions(self, tokens: Sequence[str]) -> Tensor:
        """Per-token emission scores over the IOB label set, on the tape
        (what :meth:`loss` trains through)."""
        word_ids, pos_ids, char_ids, augmented = self._inputs(tokens)
        # One conv call per token: one GEMM over all tokens would sum the
        # weight gradient in another order.
        char_features = concat(
            [self.char_cnn(self.char_embedding(ids)).max(axis=1)[0].reshape(1, 1, -1)
             for ids in char_ids], axis=1)
        word_input = concat([self.word_embedding(word_ids), char_features,
                             self.pos_embedding(pos_ids)], axis=2)
        hidden = self.encoder(word_input)
        if augmented is not None:
            hidden = concat([hidden, Tensor(augmented)], axis=2)
        attended = self.attention(hidden)
        return self.projection(attended)[0]

    def emission_scores(self, tokens: Sequence[str]) -> np.ndarray:
        """:meth:`emissions` computed on plain arrays, without a tape.

        The same layer functions on the same shapes (the leading batch
        axis of 1 included, since a 2-D and a 3-D matmul can round
        differently), so the scores equal the taped ``emissions(...).data``
        bit for bit.
        """
        session = self.inference_session()
        word_ids, pos_ids, char_ids, augmented = self._inputs(tokens)
        char_features = np.concatenate(
            [session.conv1d(session.embed("char_embedding.weight", ids),
                            "char_cnn").max(axis=1)[0].reshape(1, 1, -1)
             for ids in char_ids], axis=1)
        word_input = np.concatenate(
            [session.embed("word_embedding.weight", word_ids), char_features,
             session.embed("pos_embedding.weight", pos_ids)], axis=2)
        hidden = session.bilstm(word_input, "encoder")
        if augmented is not None:
            hidden = np.concatenate([hidden, augmented], axis=2)
        attended = session.self_attention(hidden, "attention")
        return session.linear(attended, "projection")[0]

    # ------------------------------------------------------------- training
    def allowed_labels(self, tokens: Sequence[str],
                       gold: Sequence[str]) -> list[list[int]]:
        """Fuzzy allowed-label sets (Fig 7): the gold label plus, for
        surfaces with several lexicon senses, the same position in each
        alternative domain."""
        allowed: list[list[int]] = []
        for token, label in zip(tokens, gold):
            options = {self.labels.id(label)}
            if label != "O":
                prefix = label[:2]
                for entry in self.lexicon.senses(token):
                    options.add(self.labels.id(f"{prefix}{entry.domain}"))
            allowed.append(sorted(options))
        return allowed

    def loss(self, spec: ConceptSpec) -> Tensor:
        """CRF loss of one gold-tagged concept (fuzzy when enabled)."""
        tokens = list(spec.tokens)
        gold = spec.iob_labels()
        emissions = self.emissions(tokens)
        if self.use_fuzzy:
            return self.crf.fuzzy_nll(emissions,
                                      self.allowed_labels(tokens, gold))
        return self.crf.nll(emissions, [self.labels.id(label) for label in gold])

    def fit(self, specs: Sequence[ConceptSpec], epochs: int = 4,
            lr: float = 0.01, seed: int = 0) -> list[float]:
        """Train on gold-tagged concepts; returns mean loss per epoch."""
        specs = [s for s in specs if s.parts]
        if not specs:
            raise DataError("tagger needs concepts with gold parts")
        rng = spawn_rng(seed, "concept-tagger-train")
        optimizer = Adam(self.parameters(), lr=lr)
        history: list[float] = []
        for _ in range(epochs):
            order = rng.permutation(len(specs))
            total = 0.0
            for index in order:
                optimizer.zero_grad()
                loss = self.loss(specs[index])
                loss.backward()
                optimizer.clip_grad_norm(5.0)
                optimizer.step()
                total += loss.item()
            history.append(total / len(specs))
        self._fitted = True
        return history

    def predict(self, tokens: Sequence[str]) -> list[str]:
        """Viterbi-decode IOB labels for a concept (tape-free)."""
        if not self._fitted:
            raise NotFittedError("tagger has not been trained")
        emissions = self.emission_scores(tokens)
        return [self.labels.label(i) for i in self.crf.decode(emissions)]

    def evaluate(self, specs: Sequence[ConceptSpec]) -> dict[str, float]:
        """Micro span precision/recall/F1 against gold parts (Table 5)."""
        tp = fp = fn = 0
        for spec in specs:
            gold_spans = set(_spans(spec.iob_labels()))
            predicted_spans = set(_spans(self.predict(list(spec.tokens))))
            tp += len(gold_spans & predicted_spans)
            fp += len(predicted_spans - gold_spans)
            fn += len(gold_spans - predicted_spans)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = 2 * precision * recall / (precision + recall) \
            if (precision + recall) else 0.0
        return {"precision": precision, "recall": recall, "f1": f1}


def iob_spans(labels: Sequence[str]) -> list[tuple[int, int, str]]:
    """(start, stop, domain) spans of an IOB label sequence.

    Public face of the span parser — the serving layer turns predicted
    labels into linked concept mentions through this.
    """
    return _spans(labels)


def _spans(labels: Sequence[str]) -> list[tuple[int, int, str]]:
    """(start, stop, domain) spans of an IOB sequence."""
    spans: list[tuple[int, int, str]] = []
    start = -1
    domain = ""
    for position, label in enumerate(labels):
        if label.startswith("B-"):
            if start >= 0:
                spans.append((start, position, domain))
            start = position
            domain = label[2:]
        elif label.startswith("I-") and start >= 0 and label[2:] == domain:
            continue
        else:
            if start >= 0:
                spans.append((start, position, domain))
            start = -1
            domain = ""
    if start >= 0:
        spans.append((start, len(labels), domain))
    return spans


def span_f1(gold: Sequence[str], predicted: Sequence[str]) -> float:
    """Span-level F1 between two IOB sequences (helper for tests)."""
    gold_spans = set(_spans(gold))
    predicted_spans = set(_spans(predicted))
    tp = len(gold_spans & predicted_spans)
    fp = len(predicted_spans - gold_spans)
    fn = len(gold_spans - predicted_spans)
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
