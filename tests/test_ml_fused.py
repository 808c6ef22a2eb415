"""The fused kernels against their composed oracles.

``LSTM.forward``, ``LinearChainCRF._log_partition``,
``AdditiveSelfAttention.forward`` and ``Tensor.softmax`` each record one
tape node with a hand-written backward.  The composed forms below are the
same computations built from primitive ``Tensor`` ops, which they
replace.  Every fused output and gradient must equal the composed one bit
for bit, and so must whole training runs of the models that use them.
"""

import contextlib

import numpy as np
import pytest

from repro.concepts import ConceptClassifier, ConceptTagger
from repro.concepts.classifier import lexicon_ner_lookup
from repro.concepts.tagging import build_text_matrix
from repro.config import TINY
from repro.errors import DataError
from repro.mining import BiLSTMCRFMiner, DistantSupervisionBuilder
from repro.mining.bilstm_crf import LabelSet
from repro.ml import LSTM, AdditiveSelfAttention, BiLSTM, Tensor, no_grad, stack
from repro.ml.gradcheck import check_gradients
from repro.nlp import LinearChainCRF
from repro.nlp.crf import _NEG_INF
from repro.nlp.pos import PosTagger
from repro.nlp.vocab import Vocab
from repro.synth import World, build_lexicon


# ---------------------------------------------------------------- oracles
def composed_lstm_forward(self, x: Tensor) -> Tensor:
    """``LSTM.forward`` as a per-timestep loop of primitive tape ops."""
    batch, time, _ = x.shape
    h_dim = self.hidden_dim
    h = Tensor(np.zeros((batch, h_dim)))
    c = Tensor(np.zeros((batch, h_dim)))
    outputs = []
    for t in range(time):
        x_t = x[:, t, :]
        z = x_t @ self.w_input + h @ self.w_hidden + self.bias
        i_gate = z[:, 0:h_dim].sigmoid()
        f_gate = z[:, h_dim : 2 * h_dim].sigmoid()
        g_cell = z[:, 2 * h_dim : 3 * h_dim].tanh()
        o_gate = z[:, 3 * h_dim : 4 * h_dim].sigmoid()
        c = f_gate * c + i_gate * g_cell
        h = o_gate * c.tanh()
        outputs.append(h)
    return stack(outputs, axis=1)


def composed_log_partition(self, emissions: Tensor, allowed=None) -> Tensor:
    """``LinearChainCRF._log_partition`` through ``Tensor.logsumexp``."""
    time = emissions.shape[0]
    masks = None
    if allowed is not None:
        masks = np.full((time, self.num_labels), _NEG_INF)
        for t, labels in enumerate(allowed):
            if not labels:
                raise DataError(f"empty allowed-label set at position {t}")
            masks[t, list(labels)] = 0.0
    alpha = self.start_scores + emissions[0, :]
    if masks is not None:
        alpha = alpha + Tensor(masks[0])
    for t in range(1, time):
        step = emissions[t, :]
        if masks is not None:
            step = step + Tensor(masks[t])
        scores = alpha.reshape(self.num_labels, 1) + self.transitions + step
        alpha = scores.logsumexp(axis=0)
    return (alpha + self.end_scores).logsumexp(axis=0)


def composed_softmax(self, axis=-1):
    """``Tensor.softmax`` as ``exp(x - logsumexp(x))`` in three tape ops."""
    return (self - self.logsumexp(axis=axis, keepdims=True)).exp()


def composed_self_attention(self, hidden: Tensor) -> Tensor:
    """``AdditiveSelfAttention.forward`` from primitive tape ops."""
    batch, time, _ = hidden.shape
    queries = self.query(hidden)
    keys = self.key(hidden)
    attn_dim = queries.shape[2]
    q_expanded = queries.reshape(batch, time, 1, attn_dim)
    k_expanded = keys.reshape(batch, 1, time, attn_dim)
    energies = self.score((q_expanded + k_expanded).tanh())
    weights = energies.reshape(batch, time, time).softmax(axis=2)
    return weights @ hidden


@contextlib.contextmanager
def composed_kernels():
    """Run the block with the composed oracles patched in."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LSTM, "forward", composed_lstm_forward)
        patch.setattr(LinearChainCRF, "_log_partition", composed_log_partition)
        patch.setattr(AdditiveSelfAttention, "forward", composed_self_attention)
        patch.setattr(Tensor, "softmax", composed_softmax)
        yield


def assert_same(fused, oracle):
    """Both ``None``, or arrays equal element for element."""
    if oracle is None:
        assert fused is None
    else:
        assert fused is not None and np.array_equal(fused, oracle)


# ------------------------------------------------------------------- LSTM
def run_module(module, inputs, upstreams, x_requires_grad):
    """Backpropagate through two calls of ``module`` in one graph, so the
    second call's parameter gradients add onto the first's."""
    module.zero_grad()
    xs = [Tensor(data.copy(), requires_grad=x_requires_grad) for data in inputs]
    outs = [module(x) for x in xs]
    loss = sum((out * Tensor(up)).sum() for out, up in zip(outs, upstreams))
    loss.backward()
    params = [param.grad for param in module.parameters()]
    return [out.data for out in outs] + [x.grad for x in xs] + params


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("time", [1, 5])
@pytest.mark.parametrize("x_requires_grad", [True, False])
@pytest.mark.parametrize("module_class", [LSTM, BiLSTM])
def test_lstm_matches_composed_oracle(batch, time, x_requires_grad, module_class):
    rng = np.random.default_rng(batch * 10 + time)
    module = module_class(4, 3, rng)
    inputs = rng.normal(size=(2, batch, time, 4))
    out_width = 6 if module_class is BiLSTM else 3
    upstreams = rng.normal(size=(2, batch, time, out_width))
    fused = run_module(module, inputs, upstreams, x_requires_grad)
    with composed_kernels():
        oracle = run_module(module, inputs, upstreams, x_requires_grad)
    for fused_array, oracle_array in zip(fused, oracle):
        assert_same(fused_array, oracle_array)


def test_lstm_records_one_node_and_no_cache_under_no_grad():
    rng = np.random.default_rng(0)
    lstm = LSTM(2, 3, rng)
    x = Tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
    out = lstm(x)
    assert out._parents == (x, lstm.w_input, lstm.w_hidden, lstm.bias)
    with no_grad():
        served = lstm(x)
    assert served._backward is None and not served.requires_grad
    assert np.array_equal(served.data, out.data)


def test_lstm_gradcheck():
    rng = np.random.default_rng(1)
    lstm = LSTM(2, 3, rng)
    x = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    upstream = Tensor(rng.normal(size=(3, 4, 3)))
    report = check_gradients(
        lambda: (lstm(x) * upstream).sum(), [x] + lstm.parameters(), tolerance=1e-4
    )
    assert report, report


# ------------------------------------------------ attention and softmax
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("time", [1, 4])
@pytest.mark.parametrize("x_requires_grad", [True, False])
def test_self_attention_matches_composed_oracle(batch, time, x_requires_grad):
    rng = np.random.default_rng(batch * 10 + time)
    module = AdditiveSelfAttention(5, 3, rng)
    inputs = rng.normal(size=(2, batch, time, 5))
    upstreams = rng.normal(size=(2, batch, time, 5))
    fused = run_module(module, inputs, upstreams, x_requires_grad)
    with composed_kernels():
        oracle = run_module(module, inputs, upstreams, x_requires_grad)
    for fused_array, oracle_array in zip(fused, oracle):
        assert_same(fused_array, oracle_array)


def test_self_attention_adds_input_gradient_after_other_consumers():
    # The input's earlier gradient parts must be summed in the tape's
    # order, so feed it to another op first.
    rng = np.random.default_rng(5)
    module = AdditiveSelfAttention(4, 3, rng)
    data = rng.normal(size=(1, 3, 4))
    upstream = rng.normal(size=(1, 3, 4))

    def run():
        module.zero_grad()
        x = Tensor(data.copy(), requires_grad=True)
        loss = (module(x) * Tensor(upstream)).sum() + (x * x).sum()
        loss.backward()
        return [x.grad] + [param.grad for param in module.parameters()]

    fused = run()
    with composed_kernels():
        oracle = run()
    for fused_array, oracle_array in zip(fused, oracle):
        assert_same(fused_array, oracle_array)


def test_self_attention_gradcheck():
    rng = np.random.default_rng(6)
    module = AdditiveSelfAttention(4, 3, rng)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    upstream = Tensor(rng.normal(size=(2, 3, 4)))
    report = check_gradients(
        lambda: (module(x) * upstream).sum(),
        [x] + module.parameters(),
        tolerance=1e-4,
    )
    assert report, report


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_softmax_matches_composed_oracle(axis):
    rng = np.random.default_rng(7)
    data = rng.normal(size=(3, 4)) * 5
    upstream = rng.normal(size=(3, 4))

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        out = x.softmax(axis=axis)
        (out * Tensor(upstream)).sum().backward()
        return out.data, x.grad

    fused = run()
    with composed_kernels():
        oracle = run()
    for fused_array, oracle_array in zip(fused, oracle):
        assert_same(fused_array, oracle_array)


def test_softmax_gradcheck():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    upstream = Tensor(rng.normal(size=(3, 4)))
    report = check_gradients(
        lambda: (x.softmax(axis=1) * upstream).sum(), [x], tolerance=1e-4
    )
    assert report, report


# -------------------------------------------------------------------- CRF
ALLOWED = [[0, 2], [1], [0, 1, 3], [3], [2, 3]]


def run_partition(crf, emissions_data, allowed):
    crf.zero_grad()
    emissions = Tensor(emissions_data.copy(), requires_grad=True)
    out = crf._log_partition(emissions, allowed=allowed)
    out.backward(np.asarray(1.7))
    grads = [param.grad for param in crf.parameters()]
    return out.data, emissions.grad, grads


@pytest.mark.parametrize("time", [1, 5])
@pytest.mark.parametrize("restricted", [False, True])
def test_log_partition_matches_composed_oracle(time, restricted):
    rng = np.random.default_rng(time)
    crf = LinearChainCRF(4, rng)
    emissions = rng.normal(size=(time, 4))
    allowed = ALLOWED[:time] if restricted else None
    fused = run_partition(crf, emissions, allowed)
    with composed_kernels():
        oracle = run_partition(crf, emissions, allowed)
    assert np.array_equal(fused[0], oracle[0])
    assert np.array_equal(fused[1], oracle[1])
    for fused_grad, oracle_grad in zip(fused[2], oracle[2]):
        assert_same(fused_grad, oracle_grad)


@pytest.mark.parametrize("fuzzy", [False, True])
def test_losses_match_composed_oracle(fuzzy):
    rng = np.random.default_rng(3)
    crf = LinearChainCRF(4, rng)
    emissions_data = rng.normal(size=(5, 4))

    def run():
        crf.zero_grad()
        emissions = Tensor(emissions_data.copy(), requires_grad=True)
        if fuzzy:
            loss = crf.fuzzy_nll(emissions, ALLOWED)
        else:
            loss = crf.nll(emissions, [0, 1, 3, 3, 2])
        loss.backward()
        return [loss.data, emissions.grad] + [p.grad for p in crf.parameters()]

    fused = run()
    with composed_kernels():
        oracle = run()
    for fused_array, oracle_array in zip(fused, oracle):
        assert np.array_equal(fused_array, oracle_array)


@pytest.mark.parametrize("restricted", [False, True])
def test_log_partition_gradcheck(restricted):
    rng = np.random.default_rng(4)
    crf = LinearChainCRF(4, rng)
    emissions = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    allowed = ALLOWED if restricted else None
    report = check_gradients(
        lambda: crf._log_partition(emissions, allowed=allowed),
        [emissions] + crf.parameters(),
        tolerance=1e-4,
    )
    assert report, report


def test_log_partition_rejects_empty_allowed_set():
    crf = LinearChainCRF(3, np.random.default_rng(0))
    with pytest.raises(DataError):
        crf._log_partition(Tensor(np.zeros((2, 3))), allowed=[[0], []])


# -------------------------------------------------------- training parity
@pytest.fixture(scope="module")
def tiny():
    lexicon = build_lexicon(seed=TINY.seed)
    world = World(lexicon, seed=TINY.seed)
    rng = np.random.default_rng(TINY.seed)
    good = world.sample_good_concepts(rng, 36)
    candidates = world.sample_concepts(rng, 20, 20)
    sentences = [list(spec.tokens) for spec in good + candidates]
    return {
        "lexicon": lexicon,
        "pos": PosTagger(lexicon.pos_lexicon()),
        "good": good,
        "candidates": candidates,
        "sentences": sentences,
        "vocab": Vocab.from_corpus(sentences),
    }


def train_tagger(tiny, use_fuzzy, use_knowledge):
    text_matrix = None
    if use_knowledge:
        words = {word for sentence in tiny["sentences"] for word in sentence}
        text_matrix = build_text_matrix(tiny["sentences"], words, dim=6, seed=0)
    tagger = ConceptTagger(
        tiny["vocab"],
        tiny["lexicon"],
        tiny["pos"],
        text_matrix=text_matrix,
        text_dim=6,
        use_fuzzy=use_fuzzy,
        word_dim=8,
        char_dim=4,
        hidden_dim=5,
        seed=2,
    )
    tagger.fit(tiny["good"][:28], epochs=2, lr=0.02, seed=1)
    predictions = [tagger.predict(list(spec.tokens)) for spec in tiny["good"]]
    return tagger.state_dict(), predictions


def train_miner(tiny):
    data, _ = DistantSupervisionBuilder(tiny["lexicon"]).build(tiny["sentences"])
    miner = BiLSTMCRFMiner(
        tiny["vocab"], LabelSet.from_data(data), embedding_dim=6, hidden_dim=5
    )
    miner.fit(data[:30], epochs=2, lr=0.02, seed=1)
    predictions = [miner.predict(sentence.tokens) for sentence in data]
    return miner.state_dict(), predictions


def train_classifier(tiny):
    ner_lookup, num_ner = lexicon_ner_lookup(tiny["lexicon"])
    classifier = ConceptClassifier(
        tiny["vocab"],
        tiny["pos"],
        ner_lookup,
        num_ner,
        word_dim=6,
        char_dim=4,
        hidden_dim=5,
        seed=1,
    )
    texts = [spec.text for spec in tiny["candidates"]]
    labels = [int(spec.good) for spec in tiny["candidates"]]
    classifier.fit(texts[:32], labels[:32], epochs=2, lr=0.02, seed=1)
    return classifier.state_dict(), [classifier.predict_proba(texts)]


TRAINERS = {
    "tagger-strict": lambda tiny: train_tagger(tiny, False, False),
    "tagger-fuzzy": lambda tiny: train_tagger(tiny, True, False),
    "tagger-fuzzy-knowledge": lambda tiny: train_tagger(tiny, True, True),
    "miner": train_miner,
    "classifier": train_classifier,
}


@pytest.mark.parametrize("model", sorted(TRAINERS))
def test_training_is_bit_identical_to_composed_oracle(tiny, model):
    fused_state, fused_predictions = TRAINERS[model](tiny)
    with composed_kernels():
        oracle_state, oracle_predictions = TRAINERS[model](tiny)
    assert fused_state.keys() == oracle_state.keys()
    for name, oracle_array in oracle_state.items():
        assert np.array_equal(fused_state[name], oracle_array), name
    assert len(fused_predictions) == len(oracle_predictions)
    for fused_output, oracle_output in zip(fused_predictions, oracle_predictions):
        assert np.array_equal(fused_output, oracle_output)
