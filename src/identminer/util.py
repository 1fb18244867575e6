"""Small shared helpers: input rows and numbers, canonical JSON, config hashing, seeds, ordered map."""
from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
U = TypeVar("U")


class DataError(Exception):
    """Problem with input data (missing file, bad record, impossible request)."""


class Sentinel:
    """A named marker value, compared with `is`; its repr is its name."""

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


def read_rows(path, parse: Callable[[list[str]], T], comments: bool = False,
              unique: str | None = None) -> list[T]:
    """parse(fields) of each non-empty line of a UTF-8 file, in order, where
    fields is the line, without its LF or CRLF, split at tabs. With comments,
    lines are trimmed and # lines skipped; with unique, a repeated first field
    is an error. Any ValueError of a line, non-UTF-8 bytes included, is raised
    again as "PATH:LINE: reason"."""
    rows, seen = [], set()
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
                if comments:
                    line = line.strip()
                if not line or comments and line.startswith("#"):
                    continue
                fields = line.split("\t")
                rows.append(parse(fields))
                if unique is not None:
                    if fields[0] in seen:
                        raise ValueError(f"repeated {unique} {fields[0]!r}")
                    seen.add(fields[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return rows


# an ASCII decimal float literal: sign, digits with an optional point, an
# optional exponent; or inf or nan. repr(float) writes nothing else.
_DECIMAL = r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|nan)"


def decimal_float(text: str, name: str) -> float:
    """float(text) if text is an ASCII decimal literal (see _DECIMAL), else
    a ValueError naming the value. float() alone also takes digit-group
    underscores, surrounding whitespace and non-ASCII digits."""
    if re.fullmatch(_DECIMAL, text) is None:
        raise ValueError(f"{name} {text!r} is not a decimal number")
    return float(text)


def canonical_json(obj) -> str:
    """Serialize deterministically: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def stage_seed(root_seed: int, stage: str) -> int:
    """Derive a per-stage seed from one root seed; stable across runs and platforms."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode("utf-8")).digest()
    # keep below 2**32 so any RNG backend accepts it
    return int.from_bytes(digest[:4], "big")


def pmap_ordered(fn: Callable[[T], U], items: Iterable[T], workers: int = 1) -> list[U]:
    """Serial ordered map; workers is ignored. Nothing in the pipeline calls
    it (a thread pool over pure-Python parsing and tagging measured slower
    than this loop); the benchmark tracer (perfbench/spans.py) wraps it by
    name."""
    return [fn(x) for x in items]


def write_json(path, obj) -> None:
    """obj as sorted, indented JSON. A non-finite float is a ValueError,
    raised before the file is opened: Infinity and NaN are not JSON."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def mean(values: Sequence[float]) -> float:
    """The mean of values, 0.0 for none. Finite values whose sum overflows
    to infinity are averaged as the sum of each value / n instead."""
    if not values:
        return 0.0
    total = sum(values)
    if math.isinf(total):
        return sum(value / len(values) for value in values)
    return total / len(values)
