"""Shared training plumbing: config, the one seeded mini-batch loop, class
reweighting and instance down-weighting (which the CLI applies once per
training set; the trainers take the resulting arrays), numerically stable
softmax helpers, the weighted cross-entropy both models minimize, and the
array codec of model files."""
from __future__ import annotations

import base64
import math
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ..labels import AUTO_SOURCES, CLASS_ORDER, ClassLabel

N_CLASSES = len(CLASS_ORDER)


class TrainConfig(NamedTuple):
    learning_rate: float
    epochs: int
    l2_strength: float
    seed: int
    batch_size: int


def minibatches(n: int, config: TrainConfig) -> Iterator[np.ndarray]:
    """The row indices of each mini-batch of config.epochs epochs over n
    examples: each epoch draws a permutation of range(n) from one
    default_rng(config.seed) and cuts it into config.batch_size slices, the
    last of which may be shorter."""
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            yield order[start:start + config.batch_size]


def label_indices(labels: Sequence[ClassLabel]) -> np.ndarray:
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    return np.array([index[label] for label in labels], dtype=np.int64)


def inverse_class_weights(labels: Sequence[ClassLabel]) -> np.ndarray:
    """Inverse empirical class frequency, normalized so present-class weights
    average 1. Absent classes get weight 0 (no examples to weigh)."""
    counts = Counter(labels)
    n = len(labels)
    if n == 0:
        raise ValueError("no labels")
    weights = np.zeros(N_CLASSES, dtype=np.float64)
    present = []
    for i, label in enumerate(CLASS_ORDER):
        if counts[label]:
            weights[i] = n / counts[label]
            present.append(i)
    weights[present] /= weights[present].mean()
    return weights


def example_weights(labels: Sequence[ClassLabel], sources: Sequence[str],
                    class_weights: np.ndarray,
                    instance_downweight: float) -> np.ndarray:
    """Per-example weight = class weight x (downweight if the example came
    from an automatically labeled source, else 1)."""
    if len(sources) != len(labels):
        raise ValueError("sources and labels length mismatch")
    idx = label_indices(labels)
    weights = np.asarray(class_weights, dtype=np.float64)[idx].copy()
    for i, source in enumerate(sources):
        if source in AUTO_SOURCES:
            weights[i] *= instance_downweight
    return weights


def effective_weight_histogram(weights: Sequence[float]) -> dict[str, int]:
    """repr(weight) -> count; emitted by training so the applied weighting is
    auditable from run outputs."""
    counter = Counter(repr(float(w)) for w in weights)
    return dict(sorted(counter.items()))


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def weighted_cross_entropy(probs: np.ndarray, y_idx: np.ndarray,
                           sample_weights: np.ndarray) -> np.float64:
    """Weighted mean of -log p(true class) over the rows of probs; a
    probability below 1e-300 counts as 1e-300."""
    picked = np.clip(probs[np.arange(len(y_idx)), y_idx], 1e-300, None)
    return -(sample_weights * np.log(picked)).sum() / sample_weights.sum()


def argmax_labels(probs: np.ndarray) -> list[ClassLabel]:
    """Most probable class of each row; ties break toward the fixed class
    order because argmax picks the first maximum."""
    return [CLASS_ORDER[int(i)] for i in probs.argmax(axis=1)]


def one_hot(indices: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    out = np.zeros((len(indices), n_classes), dtype=np.float64)
    out[np.arange(len(indices)), indices] = 1.0
    return out


def encode_array(array: np.ndarray) -> dict:
    """{"shape": [...], "data": base64} holding the exact bytes of a float64
    array: RFC 4648 base64 of its C-order little-endian IEEE-754 values."""
    data = np.asarray(array, dtype="<f8").tobytes()
    return {"shape": list(array.shape),
            "data": base64.b64encode(data).decode("ascii")}


def decode_array(entry: dict) -> np.ndarray:
    """The float64 array encode_array stored, bit for bit. A shape that is
    not a list of sizes, malformed base64, a byte count that does not match
    the shape or a value that is not finite (no trained model holds one) is
    a ValueError; data that is not a string is a TypeError."""
    shape, data = entry["shape"], entry["data"]
    if not isinstance(data, str):
        raise TypeError(f"array data must be a base64 string, not "
                        f"{type(data).__name__}")
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"array shape {shape!r} is not a list of sizes")
    raw = base64.b64decode(data, validate=True)
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise ValueError(f"array of shape {shape} needs {size} bytes, "
                         f"got {len(raw)}")
    array = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.isfinite(array).all():
        raise ValueError(f"array of shape {shape} holds a non-finite value")
    # astype copies, so the array is writable and owns its memory
    return array.astype(np.float64)
