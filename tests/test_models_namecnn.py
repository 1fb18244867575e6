import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer.filters import CLASS_ORDER
from identminer.models import load_model, save_model
from identminer.models.namecnn import (EMBED_DIM, FILTER_WIDTH, MAX_NAME_LEN,
                                       OOV_INDEX, PAD_INDEX, NameModel,
                                       build_char_vocab, encode_names,
                                       init_params, loss_and_grads,
                                       train_name_cnn)
from identminer.models.training import label_indices, one_hot, softmax

from helpers import (default, gradient_check, loss_only, train_config,
                     training_arrays)

W, B, HL, A = CLASS_ORDER


def toy_items(per_class=8):
    """Separable: each class uses its own repeated letter."""
    items = []
    for label, ch in zip(CLASS_ORDER, "abcd"):
        for i in range(per_class):
            items.append((ch * (4 + i), np.zeros(5), label, "crowd"))
    return items


def fit(items, config, min_char_count=default("min_char_count")):
    """train_name_cnn on (name, meta, label, source) items, weighted as
    `train` weighs them."""
    y_idx, weights = training_arrays([item[2] for item in items],
                                     [item[3] for item in items])
    return train_name_cnn([item[0] for item in items],
                          np.vstack([item[1] for item in items]), y_idx,
                          weights, config, min_char_count)


def mixed_length_names(count, min_len, max_len, seed):
    """Random names over a small alphabet with lengths drawn from
    [min_len, max_len], the first one at max_len so the batch is padded."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_len, max_len + 1, size=count)
    lengths[0] = max_len
    return ["".join(rng.choice(list("abcdefgh xyz"), size=n)) for n in lengths]


def tiny_model(names=("ab", "cd", "ee"), seed=1):
    vocab = build_char_vocab(list(names), min_count=1)
    params = init_params(len(vocab) + 2, 5, seed=seed)
    return NameModel(char_vocab=vocab, params=params, meta_dim=5)


# ---------------------------------------------------------------------------
# encoding

def test_build_char_vocab_ids_and_order():
    vocab = build_char_vocab(["banana", "bandana"], min_count=2)
    # a:6 b:2 n:4 d:1 -> d dropped; codepoint order a < b < n
    assert vocab == {"a": 2, "b": 3, "n": 4}
    assert PAD_INDEX == 0 and OOV_INDEX == 1


def test_build_char_vocab_counts_truncated_names():
    vocab = build_char_vocab(["ab" + "z" * 100], min_count=5)
    # only the first 50 chars count: 48 z, 1 a, 1 b
    assert vocab == {"z": 2}


def test_encode_names_padding_and_oov():
    vocab = {"a": 2, "b": 3}
    ids = encode_names(["ab", "ax", ""], vocab)
    assert ids.shape == (3, FILTER_WIDTH)
    assert ids[0].tolist() == [2, 3, PAD_INDEX]
    assert ids[1].tolist() == [2, OOV_INDEX, PAD_INDEX]
    assert ids[2].tolist() == [PAD_INDEX] * 3


def test_encode_names_truncates_to_max_len():
    vocab = {"a": 2}
    ids = encode_names(["a" * 200], vocab)
    assert ids.shape == (1, MAX_NAME_LEN)
    assert ids[0].tolist() == [2] * MAX_NAME_LEN


# ---------------------------------------------------------------------------
# gradients

def test_gradient_check_on_three_example_batch():
    model = tiny_model()
    rng = np.random.default_rng(0)
    metas = rng.normal(size=(3, 5))
    err = gradient_check(model, ["ab", "cd", "ee"], metas, [W, B, HL],
                         step=1e-5)
    assert err < 1e-4


def test_gradient_check_with_sample_weights():
    model = tiny_model(seed=7)
    rng = np.random.default_rng(3)
    metas = rng.normal(size=(3, 5))
    err = gradient_check(model, ["ab", "cd", "ee"], metas, [W, W, A],
                         sample_weights=[0.2, 1.0, 2.0], step=1e-5)
    assert err < 1e-4


def test_gradient_check_at_realistic_shape():
    # 16 names of 3-50 characters: up to 48 windows per name, padded windows
    # in every row but the longest, so a batch/position mix-up in the
    # flattened GEMMs would show
    names = mixed_length_names(16, 3, MAX_NAME_LEN, seed=4)
    model = tiny_model(names, seed=2)
    rng = np.random.default_rng(5)
    metas = rng.normal(size=(16, 5))
    labels = [CLASS_ORDER[i % 4] for i in range(16)]
    weights = rng.uniform(0.2, 2.0, size=16)
    err = gradient_check(model, names, metas, labels, sample_weights=weights,
                         step=1e-5, coords_per_tensor=15)
    assert err < 1e-4


def reference_loss_and_grads(params, ids, metas, y_idx, weights, l2):
    """Per-batch 3D formulation: window concatenation, batched matmul,
    einsum filter gradient and np.add.at embedding scatter, with the same
    padding mask as the model."""
    positions = ids.shape[1] - FILTER_WIDTH + 1
    X = params["E"][ids]
    X_win = np.concatenate([X[:, k:positions + k] for k in range(FILTER_WIDTH)],
                           axis=2)
    Z = X_win @ params["Wc"].T + params["bc"]
    lengths = (ids != PAD_INDEX).sum(axis=1)
    last_start = np.maximum(lengths, FILTER_WIDTH) - FILTER_WIDTH
    valid = np.arange(positions)[None, :] <= last_start[:, None]
    A = np.where(valid[:, :, None], np.maximum(Z, 0.0), 0.0)
    amax = A.argmax(axis=1)
    H = np.take_along_axis(A, amax[:, None, :], axis=1)[:, 0, :]
    G = np.concatenate([H, metas], axis=1)
    U = G @ params["W1"] + params["b1"]
    A1 = np.maximum(U, 0.0)
    probs = softmax(A1 @ params["W2"] + params["b2"])
    total = weights.sum()
    loss = (-(weights * np.log(probs[np.arange(len(y_idx)), y_idx])).sum()
            / total
            + 0.5 * l2 * sum((params[k] ** 2).sum() for k in ("Wc", "W1", "W2")))

    grads = {}
    dlogits = (probs - one_hot(y_idx)) * (weights / total)[:, None]
    grads["W2"] = A1.T @ dlogits + l2 * params["W2"]
    grads["b2"] = dlogits.sum(axis=0)
    dU = (dlogits @ params["W2"].T) * (U > 0)
    grads["W1"] = G.T @ dU + l2 * params["W1"]
    grads["b1"] = dU.sum(axis=0)
    dH = (dU @ params["W1"].T)[:, :H.shape[1]]
    dA = np.zeros_like(Z)
    np.put_along_axis(dA, amax[:, None, :], dH[:, None, :], axis=1)
    dZ = dA * (Z > 0)
    grads["bc"] = dZ.sum(axis=(0, 1))
    grads["Wc"] = np.einsum("bpf,bpd->fd", dZ, X_win) + l2 * params["Wc"]
    dX_win = dZ @ params["Wc"]
    dX = np.zeros(X.shape)
    for k in range(FILTER_WIDTH):
        dX[:, k:positions + k] += dX_win[:, :, k * EMBED_DIM:(k + 1) * EMBED_DIM]
    grads["E"] = np.zeros_like(params["E"])
    np.add.at(grads["E"], ids.ravel(), dX.reshape(-1, EMBED_DIM))
    return loss, grads


def test_loss_and_grads_matches_reference_formulation():
    # lengths 0-50: names shorter than the filter width, padded windows, and
    # the full 48 windows
    names = mixed_length_names(24, 0, MAX_NAME_LEN, seed=6)
    model = tiny_model(names, seed=3)
    ids = encode_names(names, model.char_vocab)
    rng = np.random.default_rng(7)
    metas = rng.normal(size=(24, 5))
    y_idx = rng.integers(0, 4, size=24)
    weights = rng.uniform(0.2, 2.0, size=24)
    loss, grads = loss_and_grads(model.params, ids, metas, y_idx, weights,
                                 l2=1e-4)
    ref_loss, ref_grads = reference_loss_and_grads(model.params, ids, metas,
                                                   y_idx, weights, 1e-4)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-10)
    assert set(grads) == set(ref_grads)
    for key, ref in ref_grads.items():
        np.testing.assert_allclose(grads[key], ref, rtol=1e-10, err_msg=key)


# the batch draws its names from BATCH_CHARS; the vocabulary also holds
# characters no batch uses, and "x" is out of vocabulary
BATCH_CHARS = "abcdefgh x"
VOCAB_CHARS = "abcdefgh ijklmnop"


@settings(max_examples=40)
@given(st.lists(st.text(BATCH_CHARS, max_size=MAX_NAME_LEN), min_size=1,
                max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_loss_and_grads_matches_reference_on_random_batches(names, seed):
    # the first name is shorter than the filter width and holds the OOV
    # character, so every batch has OOV and PAD in its windows
    names = [names[0][:1] + "x", *names[1:]]
    vocab = {ch: i + 2 for i, ch in enumerate(sorted(VOCAB_CHARS))}
    params = init_params(len(vocab) + 2, 5, seed=seed % 1000)
    ids = encode_names(names, vocab)
    rng = np.random.default_rng(seed)
    metas = rng.normal(size=(len(names), 5))
    y_idx = rng.integers(0, 4, size=len(names))
    weights = rng.uniform(0.2, 2.0, size=len(names))
    loss, grads = loss_and_grads(params, ids, metas, y_idx, weights, l2=1e-4)
    ref_loss, ref_grads = reference_loss_and_grads(params, ids, metas, y_idx,
                                                   weights, 1e-4)
    np.testing.assert_allclose(loss, ref_loss, rtol=1e-10)
    assert set(grads) == set(ref_grads)
    for key, ref in ref_grads.items():
        np.testing.assert_allclose(grads[key], ref, rtol=1e-10,
                                   atol=1e-13 * np.abs(ref).max(),
                                   err_msg=key)
    absent = np.setdiff1d(np.arange(len(vocab) + 2), ids)
    assert len(absent) > 0
    assert (grads["E"][absent] == 0.0).all()


def test_loss_and_grads_matches_loss_only():
    model = tiny_model()
    ids = encode_names(["ab", "cd"], model.char_vocab)
    metas = np.zeros((2, 5))
    y_idx = label_indices([W, B])
    weights = np.ones(2)
    loss, grads = loss_and_grads(model.params, ids, metas, y_idx, weights,
                                 l2=1e-4)
    assert loss == loss_only(model.params, ids, metas, y_idx, weights, 1e-4)
    assert set(grads) == set(model.params)
    for key, grad in grads.items():
        assert grad.shape == model.params[key].shape


# ---------------------------------------------------------------------------
# training

def test_train_name_cnn_fits_separable_names():
    items = toy_items()
    config = train_config(learning_rate=0.1, epochs=50, batch_size=8, seed=0)
    model = fit(items, config)
    correct = sum(model.predict((name, meta))[0] is label
                  for name, meta, label, _ in items)
    assert correct == len(items)


def test_train_name_cnn_is_seed_reproducible():
    items = toy_items(per_class=3)
    config = train_config(epochs=2, batch_size=4, seed=5)
    a = fit(items, config)
    b = fit(items, config)
    for key in a.params:
        assert np.array_equal(a.params[key], b.params[key])


def test_train_name_cnn_min_char_count_shrinks_vocab():
    items = toy_items(per_class=2)  # each letter appears ~9 times
    model = fit(items, train_config(epochs=1, batch_size=8), min_char_count=100)
    assert model.char_vocab == {}
    model = fit(items, train_config(epochs=1, batch_size=8), min_char_count=1)
    assert set(model.char_vocab) == {"a", "b", "c", "d"}


def test_name_model_round_trip(tmp_path):
    items = toy_items(per_class=2)
    model = fit(items, train_config(epochs=1, batch_size=8))
    save_model(model, tmp_path / "name.json")
    back = load_model(tmp_path / "name.json")
    assert isinstance(back, NameModel)
    assert back.char_vocab == model.char_vocab
    assert back.meta_dim == model.meta_dim
    for key in model.params:
        assert back.params[key].tobytes() == model.params[key].tobytes()
    probs_a = model.predict(("abc", np.zeros(5)))[1]
    probs_b = back.predict(("abc", np.zeros(5)))[1]
    assert np.array_equal(probs_a, probs_b)


def test_name_model_file_with_max_len_loads_and_predicts(tmp_path):
    # files of format 2 written before names were always cut at
    # MAX_NAME_LEN hold a "max_len" key; it is ignored
    items = toy_items(per_class=2)
    model = fit(items, train_config(epochs=1, batch_size=8))
    path = tmp_path / "name.json"
    path.write_text(json.dumps({**model.to_dict(), "max_len": 50}),
                    encoding="utf-8")
    back = load_model(path)
    assert isinstance(back, NameModel)
    for key in model.params:
        assert back.params[key].tobytes() == model.params[key].tobytes()
    label, probs = back.predict(("abc", np.zeros(5)))
    assert label is model.predict(("abc", np.zeros(5)))[0]
    assert np.array_equal(probs, model.predict(("abc", np.zeros(5)))[1])


def test_predict_proba_batch_matches_single():
    # windows in the padding must stay out of the max-pool: through the
    # trained pad embedding they would make a name's probabilities depend on
    # the longest name in its batch
    names = mixed_length_names(200, 0, 40, seed=8)
    rng = np.random.default_rng(9)
    items = [(name, rng.normal(size=5), CLASS_ORDER[len(name) % 4], "crowd")
             for name in names]
    model = fit(items, train_config(epochs=3, batch_size=64, seed=1),
                min_char_count=1)
    probe = names[:40] + ["", "a", "ab", "abc"]
    metas = np.vstack([item[1] for item in items[:40]] + [np.zeros((4, 5))])
    batch = model.predict_proba_batch(probe, metas)
    single = np.vstack([model.predict((name, meta))[1]
                        for name, meta in zip(probe, metas)])
    np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)
    assert model.predict_batch(list(zip(probe, metas))) == \
        [model.predict((name, meta))[0] for name, meta in zip(probe, metas)]
