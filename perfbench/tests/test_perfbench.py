"""Tests for the benchmark itself: the corpus generator, the tracer's
self-time arithmetic, and a smoke run of every workload at tiny size.

    python -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from identminer.ingest import ParseFailure, load_users  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    corpus.generate(workload, 7, tmp_path / "a", scale=0.05)
    corpus.generate(workload, 7, tmp_path / "b", scale=0.05)
    corpus.generate(workload, 8, tmp_path / "c", scale=0.05)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_planted_shares_match_parameters(tmp_path):
    manifest = corpus.generate("bios", 3, tmp_path, scale=0.5)
    n_users = manifest["n_users"]
    shares = manifest["description_shares"]
    for kind, share in corpus.DESCRIPTION_SHARES:
        assert abs(shares[kind] - share) <= 1 / n_users
    assert manifest["description_kinds"]["selfreport"] == len(
        manifest["truth"]["selfreport"])
    bare = manifest["description_kinds"]["bare"]
    bigrams = len(manifest["truth"]["person_bigram"])
    assert abs(bigrams / bare - corpus.PERSON_BIGRAM_SHARE) < 0.1

    n_malformed = sum(manifest["malformed"].values())
    assert abs(n_malformed / n_users - corpus.MALFORMED_SHARE) <= 1 / n_users
    assert all(count > 0 for count in manifest["malformed"].values())
    with open(tmp_path / "corpus.jsonl", "rb") as handle:
        results = list(load_users(handle))
    failures = [r for r in results if isinstance(r, ParseFailure)]
    assert len(results) == manifest["n_lines"] == n_users + n_malformed
    assert len(failures) == n_malformed

    train = (tmp_path / "train.tsv").read_text().splitlines()
    test = (tmp_path / "test.tsv").read_text().splitlines()
    assert len(train) + len(test) == n_users
    assert abs(len(test) / n_users - corpus.TEST_SHARE) <= 1 / n_users
    votes = [line.split("\t") for line in
             (tmp_path / "votes.tsv").read_text().splitlines()]
    assert {vote for _, vote, _ in votes} == {"yes", "no", "unsure"}


def _span(tracer, name, fn, *args):
    return tracer.span(tracer.name_id(name), fn, args, {})


def test_self_time_of_a_toy_nested_call():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    def middle():
        time.sleep(0.005)
        _span(tracer, "leaf", leaf)
        _span(tracer, "leaf", leaf)

    _span(tracer, "root", middle)
    recorded = tracer.spans()
    by_name = {}
    for span in recorded:
        by_name.setdefault(tracer.names[span[1]], []).append(span)
    (root,) = by_name["root"]
    leaves = by_name["leaf"]
    assert all(leaf[2] == root[0] for leaf in leaves)
    selfs = spans.self_times(recorded)
    duration = root[4] - root[3]
    leaf_total = sum(leaf[4] - leaf[3] for leaf in leaves)
    assert selfs[root[0]] == pytest.approx(duration - leaf_total, abs=1e-12)
    for leaf in leaves:
        assert selfs[leaf[0]] == leaf[4] - leaf[3]
    assert sum(selfs.values()) == pytest.approx(duration, abs=1e-12)
    summary = spans.summarize({"names": tracer.names, "spans": recorded})
    assert summary["per_name"]["leaf"]["calls"] == 2
    assert summary["self_sum_s"] == pytest.approx(summary["root_wall_s"])


def test_self_time_counts_overlapping_children_once():
    # children from two threads overlap on [2, 4]; the covered part of the
    # parent is the union [1, 6] + [8, 9] = 6 seconds
    recorded = [(0, 0, -1, 0.0, 10.0), (1, 1, 0, 1.0, 4.0),
                (2, 1, 0, 2.0, 6.0), (3, 1, 0, 8.0, 9.0)]
    selfs = spans.self_times(recorded)
    assert selfs[0] == pytest.approx(4.0)
    assert [selfs[i] for i in (1, 2, 3)] == [3.0, 4.0, 1.0]


def test_worker_thread_spans_nest_under_the_submitting_span():
    tracer = spans.Tracer()
    inner = tracer.name_id("inner")

    def work(x):
        return tracer.span(inner, lambda: x * 2, (), {})

    def fan_out():
        parent = tracer.current()
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(tracer.adopt(parent, work), range(6)))

    assert _span(tracer, "fan_out", fan_out) == [0, 2, 4, 6, 8, 10]
    recorded = tracer.spans()
    (outer,) = [s for s in recorded if tracer.names[s[1]] == "fan_out"]
    children = [s for s in recorded if s[1] == inner]
    assert len(children) == 6 and all(s[2] == outer[0] for s in children)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [
        unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(
        corpus.WORKLOADS)


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_smoke_run_at_tiny_size(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "0.1", "--trace", "0", "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(name for name, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "timelines", "--seed", "5", "--seconds",
                "0.1", "--trace", "1", "--scale", "0.05")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(name for name, _ in run.PER_LAYER)
    assert metrics["textprep.tokenize.calls_per_text.train_unigram"] == 2.0
    assert metrics["textprep.tokenize.calls_per_text.analyze"] == 3.0
    assert metrics["evaluation.predict_calls_per_example"] == 1.0
    # at --workers 1 the layer self times add up to the traced wall time
    layers = sum(value for name, value in metrics.items()
                 if name.startswith("layer."))
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "bios", "--seed", "1", "--seconds",
                "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
