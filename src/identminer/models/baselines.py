"""Random and majority baselines with the same predict interface as the
trained models. numpy loads only for the probabilities that predict returns;
predict_batch returns labels alone, so evaluating a baseline builds no
array."""
from __future__ import annotations

import random
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from ..labels import CLASS_ORDER, ClassLabel

if TYPE_CHECKING:
    import numpy as np


class RandomBaseline:
    """Uniform over the four classes, seeded."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def predict(self, features) -> tuple[ClassLabel, np.ndarray]:
        import numpy as np
        return (self._rng.choice(CLASS_ORDER),
                np.full(len(CLASS_ORDER), 1.0 / len(CLASS_ORDER)))

    def predict_batch(self, features: Sequence) -> list[ClassLabel]:
        """One draw per example, in order: the same labels as calling
        predict on each."""
        return [self._rng.choice(CLASS_ORDER) for _ in features]

    FORMAT_VERSION = 1

    def to_dict(self) -> dict:
        return {"kind": "baseline_random", "version": self.FORMAT_VERSION,
                "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomBaseline":
        """A seed that is not a JSON integer is a ValueError: random.Random
        would seed null from the OS and accept a float, bool or string."""
        seed = payload["seed"]
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        return cls(seed=seed)


class MajorityBaseline:
    """Constant most-frequent training label; ties break by fixed class order."""

    def __init__(self, majority: ClassLabel):
        self.majority = majority

    def predict(self, features) -> tuple[ClassLabel, np.ndarray]:
        import numpy as np
        probs = np.zeros(len(CLASS_ORDER))
        probs[CLASS_ORDER.index(self.majority)] = 1.0
        return self.majority, probs

    def predict_batch(self, features: Sequence) -> list[ClassLabel]:
        return [self.majority] * len(features)

    FORMAT_VERSION = 1

    def to_dict(self) -> dict:
        return {"kind": "baseline_majority", "version": self.FORMAT_VERSION,
                "majority": self.majority.value}

    @classmethod
    def from_dict(cls, payload: dict) -> "MajorityBaseline":
        return cls(majority=ClassLabel.from_code(payload["majority"]))


def baseline_majority(train_labels: Sequence[ClassLabel]) -> MajorityBaseline:
    if not train_labels:
        raise ValueError("empty training labels")
    counts = Counter(train_labels)
    best = max(CLASS_ORDER, key=lambda label: (counts[label], -CLASS_ORDER.index(label)))
    return MajorityBaseline(best)
