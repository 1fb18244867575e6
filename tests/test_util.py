import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from identminer.util import (DataError, canonical_json, config_hash,
                             decimal_float, mean, pmap_ordered, stage_seed,
                             write_json)


def test_canonical_json_is_key_order_invariant():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b


def test_canonical_json_keeps_unicode():
    assert "é" in canonical_json({"k": "é"})


def test_config_hash_changes_with_values():
    base = {"window": 5, "threshold": 0.35}
    assert config_hash(base) == config_hash(dict(reversed(base.items())))
    assert config_hash(base) != config_hash({"window": 6, "threshold": 0.35})


def test_stage_seed_is_stable_and_stage_dependent():
    assert stage_seed(0, "split") == stage_seed(0, "split")
    assert stage_seed(0, "split") != stage_seed(0, "train")
    assert stage_seed(1, "split") != stage_seed(0, "split")
    seed = stage_seed(0, "split")
    assert 0 <= seed < 2 ** 32


@pytest.mark.parametrize("workers", [1, 4])
def test_pmap_ordered_preserves_order(workers):
    items = list(range(50))
    assert pmap_ordered(lambda x: x * x, items, workers) == [x * x for x in items]


def test_pmap_ordered_propagates_errors():
    def boom(x):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        pmap_ordered(boom, [1], 4)


def test_write_json_is_stable(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 2, "a": 1})
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    assert text.index('"a"') < text.index('"b"')


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert math.isclose(mean([0.1] * 10), 0.1)


def test_mean_of_finite_values_whose_sum_overflows_is_finite():
    assert mean([1e308, 1e308]) == 1e308
    assert mean([1.7e308, 1.7e308, 0.0]) == 1.7e308 / 3 + 1.7e308 / 3
    big = [1.7976931348623157e308] * 5
    assert mean(big) == 1.7976931348623157e308


@given(st.lists(st.floats(0, 1e300), min_size=1, max_size=20))
def test_mean_without_overflow_is_the_plain_sum_over_n(values):
    assert mean(values) == sum(values) / len(values)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_json_refuses_non_json_numbers_and_writes_nothing(tmp_path,
                                                               value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()


def test_dataerror_is_an_exception():
    with pytest.raises(DataError):
        raise DataError("nope")


@given(st.floats())
def test_decimal_float_reads_every_float_repr(value):
    read = decimal_float(repr(value), "score")
    assert repr(read) == repr(value)


@pytest.mark.parametrize("text, value", [
    ("0.5", 0.5), (".5", 0.5), ("5.", 5.0), ("+1", 1.0), ("-0.0", -0.0),
    ("1E5", 1e5), ("1e-05", 1e-05), ("-inf", -math.inf), ("1e999", math.inf),
])
def test_decimal_float_accepts_decimal_literals(text, value):
    assert repr(decimal_float(text, "score")) == repr(value)


@pytest.mark.parametrize("text", ["", ".", "-", "1_0", " 0.5", "0.5 ",
                                  "0.5\n", "١٢", "１", "1e", "e5", "0x10",
                                  "Infinity", "NaN", "INF", "1.5.0", "--1"])
def test_decimal_float_rejects_what_is_no_ascii_decimal(text):
    with pytest.raises(ValueError, match="^score .* is not a decimal number$"):
        decimal_float(text, "score")
