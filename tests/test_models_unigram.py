import base64
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from identminer.filters import CLASS_ORDER, ClassLabel
from identminer.models import load_model, save_model
from identminer.models.baselines import (MajorityBaseline, RandomBaseline,
                                         baseline_majority)
from identminer.models.features import (build_vocab, featurize_user,
                                        read_embeddings, user_word_counts,
                                        word_chunks)
from identminer.models.namecnn import name_meta_features
from identminer.models.training import (decode_array,
                                        effective_weight_histogram,
                                        encode_array, example_weights,
                                        inverse_class_weights, label_indices,
                                        minibatches, one_hot, softmax)
from identminer.models.unigram import (UnigramModel, train_unigram,
                                       weighted_ce_loss)

from identminer.ingest import newest_tweets

from helpers import (payload_line, train_config, training_arrays,
                     tweet_payload, user_payload)

W, B, HL, A = CLASS_ORDER


# the vocab of the count rows separable_items(dense=False) gives
VOCAB4 = {"alpha": 0, "beta": 1, "gamma": 2, "delta": 3}


def count_row(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The count row (sorted nonzero columns, their values) of a dense row."""
    cols = np.flatnonzero(row)
    return cols, row[cols].astype(np.float64)


def separable_items(per_class=10, dense=True, source="crowd"):
    items = []
    for c, label in enumerate(CLASS_ORDER):
        for _ in range(per_class):
            row = np.zeros(4)
            row[c] = 1.0
            if not dense:
                row = count_row(row)
            items.append((row, label, source))
    return items


def fit(items, config, vocab=None, instance_downweight=1.0):
    """train_unigram on (row, label, source) items, weighted as `train`
    weighs them."""
    y_idx, weights = training_arrays([item[1] for item in items],
                                     [item[2] for item in items],
                                     instance_downweight)
    return train_unigram([item[0] for item in items], y_idx, weights, config,
                         vocab or {})


# ---------------------------------------------------------------------------
# weighting helpers

def test_label_indices_follow_class_order():
    assert label_indices([W, A, B, HL]).tolist() == [0, 3, 1, 2]


def test_inverse_class_weights_hand_value():
    labels = [W] * 4 + [B] * 2 + [HL] * 1 + [A] * 1
    weights = inverse_class_weights(labels)
    # raw 8/4, 8/2, 8/1, 8/1 normalized by their mean 5.5
    assert np.allclose(weights, [4 / 11, 8 / 11, 16 / 11, 16 / 11])
    assert weights.mean() == pytest.approx(1.0)


def test_inverse_class_weights_absent_class_is_zero():
    weights = inverse_class_weights([W, W, B])
    assert weights[2] == 0.0 and weights[3] == 0.0
    present = weights[weights > 0]
    assert present.mean() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        inverse_class_weights([])


def test_example_weights_downweight_auto_sources_only():
    labels = [W, W, B]
    class_weights = inverse_class_weights(labels)
    weights = example_weights(labels, ["crowd", "HF", "CB"], class_weights,
                              instance_downweight=0.25)
    assert weights[0] == class_weights[0]
    assert weights[1] == class_weights[0] * 0.25
    assert weights[2] == class_weights[1] * 0.25
    with pytest.raises(ValueError):
        example_weights(labels, ["crowd"], class_weights, 1.0)


def test_effective_weight_histogram_uses_exact_reprs():
    hist = effective_weight_histogram([0.5, 0.5, 1.0, 0.1 + 0.2])
    assert hist == {"0.30000000000000004": 1, "0.5": 2, "1.0": 1}
    assert list(hist) == sorted(hist)


def test_minibatches_slice_one_seeded_permutation_per_epoch():
    # a permutation per epoch from one generator seeded with config.seed,
    # cut into batch_size slices, the last one short
    rng = np.random.default_rng(9)
    expected = []
    for _ in range(3):
        order = rng.permutation(10)
        expected += [order[0:4], order[4:8], order[8:10]]
    got = list(minibatches(10, train_config(epochs=3, batch_size=4, seed=9)))
    assert [batch.tolist() for batch in got] == \
        [batch.tolist() for batch in expected]
    assert [len(batch) for batch in got] == [4, 4, 2] * 3
    # fewer examples than batch_size: one batch per epoch
    one = list(minibatches(3, train_config(epochs=2, batch_size=64, seed=9)))
    rng = np.random.default_rng(9)
    assert [batch.tolist() for batch in one] == \
        [rng.permutation(3).tolist() for _ in range(2)]


def test_softmax_rows_sum_to_one_and_survive_big_logits():
    logits = np.array([[1000.0, 0.0, -1000.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
    probs = softmax(logits)
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[1].tolist() == [0.25] * 4


def test_one_hot():
    out = one_hot(np.array([0, 2]))
    assert out.shape == (2, 4)
    assert out[0].tolist() == [1, 0, 0, 0]
    assert out[1].tolist() == [0, 0, 1, 0]


# ---------------------------------------------------------------------------
# logistic regression training

def test_train_unigram_fits_separable_data():
    config = train_config(learning_rate=0.5, epochs=60, seed=0, batch_size=8)
    model = fit(separable_items(), config)
    correct = 0
    for features, label, _ in separable_items():
        predicted, probs = model.predict(features)
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) < 1e-9
        correct += predicted is label
    assert correct == 40


@pytest.mark.parametrize("dense", [True, False])
def test_unigram_predict_batch_matches_per_row_predict(dense):
    config = train_config(learning_rate=0.5, epochs=5, seed=0, batch_size=8)
    model = fit(separable_items(dense=dense), config, vocab=VOCAB4)
    rng = np.random.default_rng(1)
    rows = [rng.poisson(1.0, size=4).astype(float) for _ in range(30)]
    if not dense:
        rows = [count_row(row) for row in rows]
    assert model.predict_batch(rows) == [model.predict(row)[0] for row in rows]


def test_train_unigram_seed_reproducible():
    config = train_config(epochs=5, seed=11, batch_size=8)
    a = fit(separable_items(), config)
    b = fit(separable_items(), config)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    c = fit(separable_items(), train_config(epochs=5, seed=12, batch_size=8))
    assert not np.array_equal(a.weights, c.weights)


def test_train_unigram_downweight_is_noop_when_all_rows_are_auto():
    items = separable_items(source="HF")
    config = train_config(epochs=4, batch_size=16)
    a = fit(items, config, instance_downweight=1.0)
    # a power-of-two rescale cancels exactly; any other constant cancels up
    # to float rounding
    b = fit(items, config, instance_downweight=0.5)
    assert np.array_equal(a.weights, b.weights)
    c = fit(items, config, instance_downweight=0.3)
    assert np.allclose(a.weights, c.weights)


def test_train_unigram_downweight_matters_with_mixed_sources():
    items = separable_items(source="HF")
    items[0] = (items[0][0], items[0][1], "crowd")
    config = train_config(epochs=4, batch_size=16)
    a = fit(items, config, instance_downweight=1.0)
    b = fit(items, config, instance_downweight=0.3)
    assert not np.array_equal(a.weights, b.weights)


def test_train_unigram_sparse_matches_dense():
    config = train_config(epochs=10, batch_size=8, seed=3)
    dense = fit(separable_items(dense=True), config)
    sp = fit(separable_items(dense=False), config, vocab=VOCAB4)
    assert np.allclose(dense.weights, sp.weights)
    assert np.allclose(dense.bias, sp.bias)


def test_full_batch_loss_decreases():
    items = separable_items()
    X = np.vstack([item[0] for item in items])
    y_idx = label_indices([item[1] for item in items])
    sample_weights = np.ones(len(items))
    losses = []
    for epochs in (1, 2, 4, 8, 16):
        config = train_config(learning_rate=0.1, epochs=epochs, batch_size=64,
                              l2_strength=1e-4)
        model = fit(items, config)
        losses.append(weighted_ce_loss(model.weights, model.bias, X, y_idx,
                                       sample_weights, config.l2_strength))
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-12


def test_unigram_model_round_trip(tmp_path):
    config = train_config(epochs=3, batch_size=8)
    vocab = {"alpha": 0, "beta": 1, "gamma": 2, "delta": 3}
    model = fit(separable_items(), config, vocab=vocab)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, UnigramModel)
    assert back.vocab == vocab
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.bias, model.bias)
    row = np.array([3.0, 0.0, 0.0, 1.0])
    assert back.predict(row)[0] is model.predict(row)[0]


# ---------------------------------------------------------------------------
# model files: arrays as base64 of their float64 bytes

# bit patterns a model file must keep exactly: +0.0, -0.0, the smallest and
# the largest-magnitude negative subnormal, the largest finite value
SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000, 0x0000000000000001,
                0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF)
# and those no trained model holds, which a model file may not: +inf, -inf,
# the quiet NaN, a negative NaN with a payload, a signalling NaN
NON_FINITE_BITS = (0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                   0xFFF8000000000ABC, 0x7FF0000000000001)


def is_finite_bits(bits: int) -> bool:
    # the exponent field of a non-finite float64 is all ones
    return (bits >> 52) & 0x7FF != 0x7FF


def float64_arrays(shape):
    """Any finite float64 bit pattern, in the given shape or shape
    strategy."""
    return hnp.arrays(
        np.uint64, shape,
        elements=st.one_of(st.sampled_from(SPECIAL_BITS),
                           st.integers(0, 2 ** 64 - 1).filter(is_finite_bits)),
    ).map(lambda bits: bits.view(np.float64))


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == np.float64 and got.shape == want.shape
            and got.tobytes() == want.tobytes())


@settings(max_examples=200)
@given(array=float64_arrays(hnp.array_shapes(min_dims=1, max_dims=2,
                                             min_side=0, max_side=6)),
       weights=float64_arrays(st.tuples(st.just(4), st.integers(0, 6))),
       bias=float64_arrays(4))
@example(array=np.array(SPECIAL_BITS, dtype=np.uint64).view(np.float64),
         weights=np.zeros((4, 0)), bias=np.zeros(4))
@example(array=np.zeros((0, 3)), weights=np.zeros((4, 1)), bias=np.zeros(4))
def test_model_arrays_round_trip_bitwise(array, weights, bias):
    # the codec, in empty, 1-D and 2-D shapes
    back = decode_array(json.loads(json.dumps(encode_array(array))))
    assert same_bits(back, array) and back.flags.writeable
    # a unigram model file, whose arrays have the model's shapes
    vocab = {f"w{i}": i for i in range(weights.shape[1])}
    model = UnigramModel(vocab=vocab, weights=weights, bias=bias)
    back = UnigramModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert same_bits(back.weights, weights) and same_bits(back.bias, bias)
    # decoded arrays own their memory, as trained ones do
    assert back.weights.flags.writeable and back.bias.flags.writeable


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@pytest.mark.parametrize("entry, error, message", [
    ({"shape": [2], "data": b64(bytes(16))[:-2]}, ValueError, "padding"),
    # a line break, which a lenient decoder would skip
    ({"shape": [2], "data": "AAAA\n" + b64(bytes(16))[4:]}, ValueError,
     "base64"),
    ({"shape": [2], "data": "\u00c4" * 24}, ValueError, "ASCII"),
    ({"shape": [3], "data": b64(bytes(16))}, ValueError, "needs 24 bytes"),
    ({"shape": [2, 0], "data": b64(bytes(16))}, ValueError, "needs 0 bytes"),
    ({"shape": [-1], "data": b64(bytes(16))}, ValueError, "list of sizes"),
    ({"shape": [-1, -2], "data": b64(bytes(16))}, ValueError, "list of sizes"),
    ({"shape": [True, 2], "data": b64(bytes(16))}, ValueError, "list of sizes"),
    ({"shape": [2.0], "data": b64(bytes(16))}, ValueError, "list of sizes"),
    ({"shape": 2, "data": b64(bytes(16))}, ValueError, "list of sizes"),
    ({"shape": [2], "data": [0.0, 0.0]}, TypeError, "base64 string"),
    ({"shape": [2], "data": None}, TypeError, "base64 string"),
    ({"shape": [2]}, KeyError, "data"),
])
def test_decode_array_rejects_malformed_entries(entry, error, message):
    with pytest.raises(error, match=message):
        decode_array(entry)


@pytest.mark.parametrize("bits", NON_FINITE_BITS)
def test_decode_array_rejects_non_finite_values(bits):
    values = np.array([0, bits, 0], dtype=np.uint64).view(np.float64)
    entry = json.loads(json.dumps(encode_array(values)))
    with pytest.raises(ValueError, match=r"shape \[3\] holds a non-finite"):
        decode_array(entry)
    model = UnigramModel(vocab={"a": 0, "b": 1, "c": 2},
                         weights=np.zeros((4, 3)), bias=np.zeros(4))
    payload = {**model.to_dict(), "weights": encode_array(
        np.vstack([np.zeros((3, 3)), values]))}
    with pytest.raises(ValueError, match="non-finite"):
        UnigramModel.from_dict(json.loads(json.dumps(payload)))


def test_model_file_holds_base64_arrays(tmp_path):
    model = UnigramModel(vocab={"a": 0}, weights=np.full((4, 1), 0.5),
                         bias=np.array([1.0, -0.0, 2.0, 3.0]))
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n") and text.count("\n") == 1
    payload = json.loads(text)
    assert payload["version"] == 2
    # little-endian IEEE-754 bytes in C order, whatever the host byte order
    assert payload["weights"] == {
        "shape": [4, 1], "data": b64(np.full(4, 0.5, dtype="<f8").tobytes())}
    assert payload["bias"] == {
        "shape": [4],
        "data": b64(np.array([1.0, -0.0, 2.0, 3.0], dtype="<f8").tobytes())}


@pytest.mark.parametrize("kind, version", [
    ("unigram", 1), ("unigram", None), ("unigram", 3), ("unigram", 2.0),
    ("namecnn", 1), ("baseline_majority", 2), ("baseline_majority", True),
    ("baseline_random", "1"),
])
def test_load_model_reads_only_the_current_format_version(tmp_path, kind,
                                                          version):
    payload = {"kind": kind, "seed": 0, "majority": "W"}
    if version is not None:
        payload["version"] = version
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=f"{kind} model file has format "
                       f"version {version!r}.*retrain the model"):
        load_model(path)


# ---------------------------------------------------------------------------
# feature extraction

def vocab_corpus():
    """Two users' tweet texts, newest first."""
    return [["brunch brunch gaming the", "garden time"],
            ["gaming garden brunch"]]


def vocab_counts():
    table = word_chunks()
    return [user_word_counts(texts, table) for texts in vocab_corpus()]


def test_user_word_counts_words_and_contractions_only():
    assert user_word_counts(["i'm happy happy #tag @mike https://x.co :)"],
                            word_chunks()) == {"i'm": 1, "happy": 2}


def test_build_vocab_lexicographic_with_min_count():
    vocab = build_vocab(vocab_counts(), min_count=2,
                        stopwords=frozenset({"the"}))
    assert vocab == {"brunch": 0, "gaming": 1, "garden": 2}
    # min_count 1 admits the rest, still sorted
    vocab = build_vocab(vocab_counts(), min_count=1,
                        stopwords=frozenset({"the"}))
    assert list(vocab) == sorted(vocab)
    assert "time" in vocab


def test_build_vocab_respects_max_tweets():
    # the newest max_tweets 1 tweets are the newest tweet only
    line = payload_line(user_payload("v1", tweets=(
        tweet_payload("older older", hours=-2),
        tweet_payload("newest newest", hours=-1))))
    texts = [tweet["text"] for _, tweet in newest_tweets(line, 1)]
    vocab = build_vocab([user_word_counts(texts, word_chunks())],
                        min_count=2, stopwords=frozenset())
    assert "newest" in vocab and "older" not in vocab


def test_featurize_user_counts():
    vocab = build_vocab(vocab_counts(), min_count=2,
                        stopwords=frozenset({"the"}))
    first, second = vocab_counts()
    cols, counts = featurize_user(first, vocab)
    assert cols.dtype == np.int64 and counts.dtype == np.float64
    assert cols.tolist() == [0, 1, 2] and counts.tolist() == [2.0, 1.0, 1.0]
    cols, counts = featurize_user(second, vocab)
    assert cols.tolist() == [0, 1, 2] and counts.tolist() == [1.0, 1.0, 1.0]
    # columns come sorted, whatever order the counter holds the words in
    cols, counts = featurize_user({"gaming": 3, "brunch": 4}, vocab)
    assert cols.tolist() == [0, 1] and counts.tolist() == [4.0, 3.0]


def test_featurize_user_ignores_oov():
    counts = user_word_counts(["nothing known"], word_chunks())
    cols, counts = featurize_user(counts, {"brunch": 0})
    assert cols.dtype == np.int64 and counts.dtype == np.float64
    assert cols.size == 0 and counts.size == 0


def test_name_meta_features_vector():
    line = payload_line(user_payload("x", profile={
        "statuses_count": 99, "followers_count": 10, "has_profile_url": True,
        "geo_enabled": False, "has_custom_image": True}))
    got = name_meta_features(line)
    assert got.tolist() == [math.log1p(10), math.log1p(99), 1.0, 1.0, 0.0]
    # an absent count is 0 and an absent flag false
    bare = name_meta_features(payload_line(user_payload("x")))
    assert bare.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_read_embeddings_checks_dimension(tmp_path):
    path = tmp_path / "emb.tsv"
    vec = " ".join(str(i / 768) for i in range(768))
    path.write_text(f"u1\t{vec}\nu2\t{vec}\n", encoding="utf-8")
    table = read_embeddings(path)
    assert set(table) == {"u1", "u2"}
    assert table["u1"].shape == (768,)
    assert table["u1"].tolist() == [i / 768 for i in range(768)]
    bad = tmp_path / "bad.tsv"
    bad.write_text("u1\t0.5 0.25\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_embeddings(bad)


def test_read_embeddings_rejects_repeated_user_id(tmp_path):
    path = tmp_path / "emb.tsv"
    rows = [" ".join([value] * 768) for value in ("1", "0.5", "2")]
    path.write_text(f"u1\t{rows[0]}\nu2\t{rows[1]}\nu1\t{rows[2]}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"emb.tsv:3: repeated user id 'u1'"):
        read_embeddings(path)


# ---------------------------------------------------------------------------
# baselines

def test_majority_baseline():
    model = baseline_majority([W, B, B, A])
    assert isinstance(model, MajorityBaseline)
    assert model.majority is B
    label, probs = model.predict(None)
    assert label is B
    assert probs[1] == 1.0 and probs.sum() == 1.0


def test_majority_baseline_tie_uses_class_order():
    assert baseline_majority([B, W]).majority is W
    assert baseline_majority([A, HL]).majority is HL


def test_random_baseline_seeded():
    a = RandomBaseline(7)
    b = RandomBaseline(7)
    seq_a = [a.predict(None)[0] for _ in range(20)]
    seq_b = [b.predict(None)[0] for _ in range(20)]
    assert seq_a == seq_b
    assert len(set(seq_a)) > 1


def test_baseline_predict_batch_matches_repeated_predict():
    features = [None] * 40
    batched, single = RandomBaseline(5), RandomBaseline(5)
    assert batched.predict_batch(features) == \
           [single.predict(None)[0] for _ in features]
    # the same draws were consumed, so the streams continue in step
    assert batched.predict_batch(features[:5]) == \
           [single.predict(None)[0] for _ in range(5)]
    assert batched.predict_batch([]) == []
    majority = baseline_majority([HL, HL, W])
    assert majority.predict_batch(features) == \
           [majority.predict(None)[0] for _ in features]
    assert majority.predict_batch([]) == []


def test_save_and_load_reject_unknown_models(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()
    odd = tmp_path / "odd.json"
    odd.write_text('{"kind": "svm"}', encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(odd)


def test_baseline_round_trip(tmp_path):
    save_model(baseline_majority([W]), tmp_path / "maj.json")
    maj = load_model(tmp_path / "maj.json")
    assert isinstance(maj, MajorityBaseline) and maj.majority is W
    save_model(RandomBaseline(3), tmp_path / "rand.json")
    rand = load_model(tmp_path / "rand.json")
    assert isinstance(rand, RandomBaseline)
    fresh = RandomBaseline(3)
    assert [rand.predict(None)[0] for _ in range(10)] == \
           [fresh.predict(None)[0] for _ in range(10)]
