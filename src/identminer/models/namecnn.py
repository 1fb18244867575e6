"""Character-level CNN over display names with profile metadata features.

Architecture: 256-dim character embeddings -> 256 convolution filters of width
3 -> ReLU -> max-pool over positions -> concatenate metadata -> two fully
connected layers -> softmax over the four classes. Names are truncated at 50
characters before encoding. Forward, backward, and the update loop are plain
numpy with manual gradients; the tests check them against central finite
differences.

The convolution works on the batch's distinct characters, not its padded
windows: Wc holds one (De,) row per filter and slot, so one GEMM projects
each distinct character through every filter's three slots, and a window's
pre-activation is the sum of three gathered projections. Backward, the max-pool
leaves one gradient per (name, filter); a bincount adds them per character
and slot, and two GEMMs over the distinct characters give the filter and
embedding gradients. A batch is padded to its longest name, but windows that
start in the padding are masked out of the max-pool, so a name's
probabilities do not depend on the other names in its batch.

Training, loading and predicting need numpy alone. The profile metadata
vector (name_meta_features) and a user's (name, vector) input (name_input)
are read here too, straight from the checked ingest.UserLine.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..labels import CLASS_ORDER, ClassLabel
from ..ingest import UserLine
from .training import (N_CLASSES, TrainConfig, argmax_labels, decode_array,
                       encode_array, minibatches, one_hot, softmax,
                       weighted_cross_entropy)

EMBED_DIM = 256
N_FILTERS = 256
FILTER_WIDTH = 3
HIDDEN = 256
MAX_NAME_LEN = 50
# names per forward pass when predicting; bounds the (B, P, F) activations
PREDICT_CHUNK = 16
PAD_INDEX = 0
OOV_INDEX = 1
META_DIM = 5  # the width of the profile vector of name_meta_features

# L2 applies to the weight matrices below; embeddings and biases are unpenalized
_REGULARIZED = ("Wc", "W1", "W2")


def name_meta_features(line: UserLine) -> np.ndarray:
    """The META_DIM-feature profile vector for the name model: log1p
    followers, log1p statuses, and the three profile flags of the checked
    profile; an absent count is 0 and an absent flag false."""
    profile = line.profile
    return np.array([
        math.log1p(profile.get("followers_count", 0)),
        math.log1p(profile.get("statuses_count", 0)),
        float(profile.get("has_profile_url", False)),
        float(profile.get("has_custom_image", False)),
        float(profile.get("geo_enabled", False)),
    ], dtype=np.float64).reshape(META_DIM)  # any other length fails here


def name_input(line: UserLine) -> tuple[str, np.ndarray]:
    """What the name model reads of a user: the display name and its
    profile vector."""
    return line.name, name_meta_features(line)


def build_char_vocab(names: Sequence[str], min_count: int) -> dict[str, int]:
    """Characters seen at least min_count times in the (truncated) training
    names, in codepoint order; 0 is padding, 1 is out-of-vocabulary."""
    counts: Counter[str] = Counter()
    for name in names:
        counts.update(name[:MAX_NAME_LEN])
    kept = sorted(ch for ch, count in counts.items() if count >= min_count)
    return {ch: i + 2 for i, ch in enumerate(kept)}


def encode_names(names: Sequence[str], char_vocab: dict[str, int]
                 ) -> np.ndarray:
    """(B, L) id matrix, padded to the batch maximum but never below the
    filter width."""
    clipped = [name[:MAX_NAME_LEN] for name in names]
    length = max(FILTER_WIDTH, max((len(name) for name in clipped), default=0))
    ids = np.full((len(names), length), PAD_INDEX, dtype=np.int64)
    for row, name in enumerate(clipped):
        for col, ch in enumerate(name):
            ids[row, col] = char_vocab.get(ch, OOV_INDEX)
    return ids


def param_shapes(vocab_size: int, meta_dim: int) -> dict[str, tuple]:
    """The shape of each of the seven parameter tensors."""
    return {
        "E": (vocab_size, EMBED_DIM),
        "Wc": (N_FILTERS, FILTER_WIDTH * EMBED_DIM),
        "bc": (N_FILTERS,),
        "W1": (N_FILTERS + meta_dim, HIDDEN),
        "b1": (HIDDEN,),
        "W2": (HIDDEN, N_CLASSES),
        "b2": (N_CLASSES,),
    }


def init_params(vocab_size: int, meta_dim: int, seed: int) -> dict[str, np.ndarray]:
    """Zero biases, and normal weights drawn in param_shapes order, each
    matrix but the embeddings scaled by sqrt(2 / fan-in)."""
    shapes = param_shapes(vocab_size, meta_dim)
    scales = {"E": 0.1, "Wc": math.sqrt(2.0 / shapes["Wc"][1]),
              "W1": math.sqrt(2.0 / shapes["W1"][0]),
              "W2": math.sqrt(2.0 / shapes["W2"][0])}
    rng = np.random.default_rng(seed)
    return {key: rng.normal(0.0, scales[key], shape) if key in scales
            else np.zeros(shape) for key, shape in shapes.items()}


def _forward(params: dict[str, np.ndarray], ids: np.ndarray,
             metas: np.ndarray) -> tuple[np.ndarray, dict]:
    positions = ids.shape[1] - FILTER_WIDTH + 1
    # each distinct character is projected once per filter slot: row
    # 3 * f + k of Wc viewed as (3F, De) is filter f's weights for slot k, and
    # row 3 * u + k of proj is character chars[u] through slot k
    chars, slots = np.unique(ids, return_inverse=True)
    slots = slots.reshape(ids.shape)
    Ec = params["E"][chars]
    proj = (Ec @ params["Wc"].reshape(-1, EMBED_DIM).T).reshape(
        -1, N_FILTERS, FILTER_WIDTH).transpose(0, 2, 1).reshape(-1, N_FILTERS)
    # a window's pre-activation is the sum of its three slot projections
    A = proj[FILTER_WIDTH * slots[:, :positions]]
    for k in range(1, FILTER_WIDTH):
        A += proj[FILTER_WIDTH * slots[:, k:k + positions] + k]
    A += params["bc"]
    np.maximum(A, 0.0, out=A)  # ReLU in place: Z itself is not needed later
    # windows starting in the padding would make a name's pooled features
    # depend on the longest name in its batch; ReLU output is >= 0 and the
    # pooled window is the first maximum, so zeroing them pools exactly the
    # windows a one-row batch has
    lengths = np.count_nonzero(ids != PAD_INDEX, axis=1)
    n_windows = np.maximum(lengths, FILTER_WIDTH) - FILTER_WIDTH + 1
    A[np.arange(positions) >= n_windows[:, None]] = 0.0
    H = A.max(axis=1)  # (B, F)
    # the first window holding each maximum: argmax over the strided middle
    # axis of a boolean array costs less than over the float array
    amax = (A == H[:, None, :]).argmax(axis=1)
    G = np.concatenate([H, metas], axis=1)
    U = G @ params["W1"] + params["b1"]
    A1 = np.maximum(U, 0.0)
    logits = A1 @ params["W2"] + params["b2"]
    cache = {"slots": slots, "chars": chars, "Ec": Ec, "amax": amax,
             "G": G, "U": U, "A1": A1}
    return logits, cache


def _loss_from_logits(logits: np.ndarray, y_idx: np.ndarray,
                      sample_weights: np.ndarray, params: dict, l2: float
                      ) -> tuple[float, np.ndarray]:
    probs = softmax(logits)
    ce = weighted_cross_entropy(probs, y_idx, sample_weights)
    reg = 0.5 * l2 * sum(float(np.vdot(params[k], params[k]))
                         for k in _REGULARIZED)
    return float(ce + reg), probs


def loss_and_grads(params: dict, ids: np.ndarray, metas: np.ndarray,
                   y_idx: np.ndarray, sample_weights: np.ndarray,
                   l2: float) -> tuple[float, dict[str, np.ndarray]]:
    logits, cache = _forward(params, ids, metas)
    loss, probs = _loss_from_logits(logits, y_idx, sample_weights, params, l2)

    total = sample_weights.sum()
    dlogits = (probs - one_hot(y_idx)) * (sample_weights / total)[:, None]
    grads: dict[str, np.ndarray] = {}
    grads["W2"] = cache["A1"].T @ dlogits + l2 * params["W2"]
    grads["b2"] = dlogits.sum(axis=0)
    dA1 = dlogits @ params["W2"].T
    dU = dA1 * (cache["U"] > 0)
    grads["W1"] = cache["G"].T @ dU + l2 * params["W1"]
    grads["b1"] = dU.sum(axis=0)
    dG = dU @ params["W1"].T
    dH = dG[:, :N_FILTERS]

    # route pooled gradient to the argmax windows only; ReLU passes it where
    # the pooled value is positive. C[u, f, k] sums it over the argmax
    # windows of filter f whose slot k holds character chars[u]
    dH_active = dH * (cache["G"][:, :N_FILTERS] > 0)
    chars, slot_k = cache["chars"], np.arange(FILTER_WIDTH)[:, None]
    # (B, 3, F): the character index u in slot k of filter f's argmax window
    u = np.take_along_axis(cache["slots"][:, None, :],
                           cache["amax"][:, None, :] + slot_k, axis=2)
    cells = (u * N_FILTERS + np.arange(N_FILTERS)) * FILTER_WIDTH + slot_k
    width = N_FILTERS * FILTER_WIDTH
    C = np.bincount(cells.ravel(),
                    weights=np.broadcast_to(dH_active[:, None, :],
                                            cells.shape).ravel(),
                    minlength=len(chars) * width).reshape(len(chars), width)
    grads["bc"] = dH_active.sum(axis=0)
    grads["Wc"] = (C.T @ cache["Ec"]).reshape(N_FILTERS, -1) \
        + l2 * params["Wc"]
    # only the batch's characters get an embedding gradient
    grads["E"] = np.zeros_like(params["E"])
    grads["E"][chars] = C @ params["Wc"].reshape(-1, EMBED_DIM)
    return loss, grads


@dataclass
class NameModel:
    char_vocab: dict[str, int]
    params: dict[str, np.ndarray]
    meta_dim: int

    def predict_proba_batch(self, names: Sequence[str],
                            metas: np.ndarray) -> np.ndarray:
        metas = np.atleast_2d(metas)
        probs = []
        for start in range(0, len(names), PREDICT_CHUNK):
            chunk = slice(start, start + PREDICT_CHUNK)
            ids = encode_names(names[chunk], self.char_vocab)
            logits, _ = _forward(self.params, ids, metas[chunk])
            probs.append(softmax(logits))
        return np.concatenate(probs) if probs else np.zeros((0, N_CLASSES))

    def predict(self, features: tuple[str, np.ndarray]
                ) -> tuple[ClassLabel, np.ndarray]:
        name, meta = features
        probs = self.predict_proba_batch([name], np.atleast_2d(meta))[0]
        return CLASS_ORDER[int(np.argmax(probs))], probs

    def predict_batch(self, features: Sequence[tuple[str, np.ndarray]]
                      ) -> list[ClassLabel]:
        names = [name for name, _ in features]
        metas = np.vstack([meta for _, meta in features])
        return argmax_labels(self.predict_proba_batch(names, metas))

    FORMAT_VERSION = 2

    def to_dict(self) -> dict:
        return {
            "kind": "namecnn",
            "version": self.FORMAT_VERSION,
            "char_vocab": self.char_vocab,
            "meta_dim": self.meta_dim,
            "params": {key: encode_array(value)
                       for key, value in self.params.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NameModel":
        """The model of a to_dict payload. A meta_dim other than the JSON
        integer META_DIM, params other than the seven tensors in their shapes
        or char_vocab ids other than 2 .. n + 1 (one embedding row each) is a
        ValueError. A "max_len" key, which files of this format held before
        names were always cut at MAX_NAME_LEN, is ignored."""
        char_vocab, meta_dim = payload["char_vocab"], payload["meta_dim"]
        if type(meta_dim) is not int:
            raise ValueError(f"meta_dim must be an integer, got {meta_dim!r}")
        if meta_dim != META_DIM:
            raise ValueError(f"meta_dim must be {META_DIM}, got {meta_dim}")
        params = {key: decode_array(entry)
                  for key, entry in payload["params"].items()}
        shapes = {key: list(shape) for key, shape in
                  param_shapes(len(char_vocab) + 2, meta_dim).items()}
        got = {key: list(array.shape) for key, array in params.items()}
        if got != shapes:
            raise ValueError(f"params have shapes {got}, expected {shapes}")
        ids = list(char_vocab.values())
        if not all(type(i) is int for i in ids) or \
                sorted(ids) != list(range(2, len(ids) + 2)):
            raise ValueError(f"char_vocab ids must be 2 to {len(ids) + 1}, "
                             f"each once")
        return cls(char_vocab=char_vocab, params=params, meta_dim=meta_dim)


def train_name_cnn(names: Sequence[str], metas: np.ndarray, y_idx: np.ndarray,
                   sample_weights: np.ndarray, config: TrainConfig,
                   min_char_count: int) -> NameModel:
    """Weighted mini-batch gradient descent for config.epochs epochs over
    names and their (n, meta_dim) metadata rows; y_idx holds their class
    indices (training.label_indices) and sample_weights their example
    weights (training.example_weights). The character vocabulary keeps the
    characters seen at least min_char_count times."""
    char_vocab = build_char_vocab(names, min_count=min_char_count)
    ids = encode_names(names, char_vocab)
    params = init_params(len(char_vocab) + 2, metas.shape[1], config.seed)
    for batch in minibatches(len(names), config):
        _, grads = loss_and_grads(params, ids[batch], metas[batch],
                                  y_idx[batch], sample_weights[batch],
                                  config.l2_strength)
        for key, grad in grads.items():
            params[key] -= config.learning_rate * grad
    return NameModel(char_vocab=char_vocab, params=params,
                     meta_dim=metas.shape[1])
