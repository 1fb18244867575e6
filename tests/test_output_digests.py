"""The sha256 of every file that every subcommand writes, on two small
seeded fixtures: the planted description corpus (helpers.planted_payloads,
plus person-keyword self-reports so that qb is not empty) for
lexicon-build, dataset-build and tune, and the tweet and name corpus of
test_model_digests.seeded_fixture for train, evaluate and analyze.

This is the byte-identity oracle of a refactor: a change that keeps every
output byte keeps this table, and a change that means to alter an output
re-records the rows it alters and says why. As in test_model_digests.py,
the name model's rows pin the bytes of this numpy build and its BLAS."""
import hashlib

import pytest

from identminer.cli import MODEL_NAMES, main

from helpers import (PLANT_HEADS, PLANT_QUERIES, planted_payloads,
                     planted_rows, user_payload, write_jsonl)
from test_model_digests import seeded_fixture

DIGESTS = {
    "lexicon-build": {
        "lexicon_summary.json":
            "ecf7c559fdb29d9244dff3a56f8acd21"
            "39985e58648cd46f4a5fb3aed5b2d918",
        "selfreport_lexicon.tsv":
            "b834085950ad67c79f5fcb89f2912997"
            "e2ae6d1b9c3ea986daf5b8b1eef416e4",
    },
    "dataset-build qb": {
        "dataset_qb.tsv":
            "9fc69ace0156c4341d432bc6a9425981"
            "27992bfbb50dc69403dd1f875fea387d",
        "dataset_qb_stats.json":
            "39c1150f343557d190e63cc75fee786d"
            "c8fd064c60011860382a6be15891daee",
    },
    "dataset-build hf": {
        "dataset_hf.tsv":
            "9d149f2ddbdd301a22bb815618ab9bd6"
            "8e04bb43e621d380d5b33fa63e9f20e1",
        "dataset_hf_stats.json":
            "202e6b3825f1afa4eef0c3f01a3e096e"
            "7b661d06a77dceb40bf50350a5594d0b",
    },
    "dataset-build cb": {
        "dataset_cb.tsv":
            "6def2581b0bcbcb89f11296f8f8eafba"
            "9becf596cb729f87f472c1050c6846f2",
        "dataset_cb_stats.json":
            "a9d061fb84500f07d3f42e78d38afa3c"
            "20292371349254037dfaea8396e6bea9",
    },
    "tune": {
        "tune_result.json":
            "6edc50423ceac528ec0d7e95245247a2"
            "35eba7bcd12ebe4ef087610e0233cf90",
    },
    "train unigram": {
        "model.json":
            "236300a8e98e215f9b5aa68524658353"
            "77727c9c7e1babe133d8092763a4c811",
        "train_result.json":
            "454f923cf2b5cd04940fd08cdc6f1098"
            "f233e97aeca3c0ea553ca359b97be365",
    },
    "evaluate unigram": {
        "eval_report.txt":
            "e9b670c9d1ae514952a3e975e46f46f9"
            "ba34fda2871c850f3db6277e98bcfd4e",
        "eval_result.json":
            "57691a2d49fbacdb3fa2448048a20d3a"
            "a8b12dabc56f3ca949c1e09c8af46b1b",
    },
    "train namecnn": {
        "model.json":
            "9330b969951847f0f6bf62eb162de226"
            "b90252b46c848b70a975822d423b5264",
        "train_result.json":
            "aec8ddd15e1c5891fc24a474b105fa8c"
            "a1264e0f390a1c41ee012e5c5338d30c",
    },
    "evaluate namecnn": {
        "eval_report.txt":
            "fdca59be1d6f3d923751a87e2683c512"
            "fa8febd39a322e415780ea96833ba591",
        "eval_result.json":
            "386dd73938a776b72562e1e6aa0d619a"
            "409ef7f203318eb92a570ec9e24fa923",
    },
    "train baseline-random": {
        "model.json":
            "6d760059434de12d7be8ca586c69e43c"
            "56d75f2a8e3bd906166f28e3fd01f56e",
        "train_result.json":
            "8d5bb6c35fdc156e585bb7b90300e76f"
            "77a137b511fa4823dfcac4fe82010327",
    },
    "evaluate baseline-random": {
        "eval_report.txt":
            "ea336b009bb0aa58ba5009385e3cd651"
            "1065a2c71ce4a778313286df3a0352b1",
        "eval_result.json":
            "38365d9e213c0a1e96d68c6ef07416e1"
            "c7528407106993b9878a3f2c1ce9e07c",
    },
    "train baseline-majority": {
        "model.json":
            "9d7788f2a3a7bafbb9734508ea9859dd"
            "8747d1c50cf1c5d0898aaf0080110748",
        "train_result.json":
            "27ceb607d7bd0af8475f4781e7ec1cef"
            "400de440ab71cb4beb67a5ceee01a040",
    },
    "evaluate baseline-majority": {
        "eval_report.txt":
            "d579e84117227dacdd7d09319a3ae19f"
            "beb063c7932a5c3af3f9e0004a3f525d",
        "eval_result.json":
            "e41e41c71313ac998b0f1ce1faa3a70f"
            "866eb156ff69ec44311f79131cb075a1",
    },
    "analyze": {
        "analyze_result.json":
            "792241d836fdf10749b84221880f1a7d"
            "1f0cd29867c434cafb89fddcdb1f35bb",
    },
}


def digests(out) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def person_payloads() -> list[dict]:
    """Two users per class whose query keyword is followed by a person
    keyword, the one kind of match that qb keeps."""
    return [user_payload(f"p{i}{j}", description=description)
            for i, (query, _) in enumerate(PLANT_QUERIES)
            for j, description in enumerate((
                f"proud {query} woman and {PLANT_HEADS[i]}",
                f"just a {query} guy, {PLANT_HEADS[i + 1]} by day"))]


def planted_votes(path):
    """Two votes per planted user: yes for a true self-report, no for a
    false positive; the second annotator flips every seventh user, whose
    tie is discarded."""
    lines = []
    for i, (user_id, _, group) in enumerate(planted_rows()):
        vote = "yes" if group == "true" else "no"
        flipped = {"yes": "no", "no": "yes"}[vote] if i % 7 == 0 else vote
        lines += [f"{user_id}\t{vote}\ta1\n", f"{user_id}\t{flipped}\ta2\n"]
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Run every subcommand once; {run name: {file name: sha256}}."""
    root = tmp_path_factory.mktemp("digests")
    planted = write_jsonl(root / "planted.jsonl",
                          planted_payloads() + person_payloads())
    votes = planted_votes(root / "votes.tsv")
    seeded = root / "seeded"
    seeded.mkdir()
    train_args = seeded_fixture(seeded)
    corpus, data, config = (str(seeded / name) for name in
                            ("corpus.jsonl", "data.tsv", "config.json"))
    runs = {"lexicon-build": ["lexicon-build", "--corpus", str(planted)]}
    for kind in ("qb", "hf", "cb"):
        runs[f"dataset-build {kind}"] = ["dataset-build", "--kind", kind,
                                         "--corpus", str(planted)]
    runs["tune"] = ["tune", "--corpus", str(planted), "--tuning", str(votes)]
    for model in MODEL_NAMES:
        runs[f"train {model}"] = ["train", "--model", model, *train_args]
        runs[f"evaluate {model}"] = [
            "evaluate", "--corpus", corpus, "--test-data", data,
            "--config", config, "--seed", "5",
            "--model-file", str(root / f"train {model}" / "model.json")]
    runs["analyze"] = ["analyze", "--corpus", corpus, "--data", data,
                       "--config", config, "--seed", "5"]
    table = {}
    for name, argv in runs.items():
        out = root / name
        assert main([*argv, "--out", str(out)]) == 0, name
        table[name] = digests(out)
    return table


def test_every_run_of_the_table_is_made(written):
    assert list(written) == list(DIGESTS)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_output_bytes_are_pinned(written, name):
    assert written[name] == DIGESTS[name]
