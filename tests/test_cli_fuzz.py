"""Hostile input to the whole CLI, run in process on a tiny planted corpus:
one more corpus line of arbitrary bytes (or a JSON object of arbitrary
field values for a dataset user), and arbitrary JSON values for the config
keys the subcommand reads. Every run exits 0 or 2 and raises nothing, a
run that exits 2 leaves no --out, no run leaves a staging directory beside
it, and a model that train saves loads and holds only finite numbers."""
import base64
import functools
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from identminer import cli
from identminer.labels import (FILTER_ALIASES, FILTER_NAMES, SETTINGS,
                               WEIGHTINGS)
from identminer.models import load_model

from helpers import iso, tweet_payload, user_payload, write_jsonl

COMMANDS = ("lexicon-build", "dataset-build", "tune", "train", "evaluate",
            "analyze")
QUERIES = {"W": "white", "B": "black", "HL": "hispanic", "A": "asian"}
WORDS = {"W": "alpha", "B": "bravo", "HL": "charlie", "A": "delta"}
HEADS = ("farmer", "nurse", "teacher")


def planted_users() -> list[dict]:
    """Three users per class: two self-reports and one person bigram (for
    qb), each with two tweets of a class word and a name of a class
    letter."""
    payloads = []
    for label, query in QUERIES.items():
        article = "an" if query == "asian" else "a"
        descriptions = (f"i am {article} {query} {HEADS[0]}",
                        f"proud {query} woman and {HEADS[1]}",
                        f"i am {article} {query} {HEADS[2]} #life")
        for j, description in enumerate(descriptions):
            text = f"{WORDS[label]} {WORDS[label]} chat"
            payloads.append(user_payload(
                f"{label.lower()}{j}", description=description,
                name=label.lower() * (4 + j),
                tweets=(tweet_payload(text, hours=-1.0),
                        tweet_payload(text, hours=-2.0)),
                profile={"statuses_count": 3 + j, "followers_count": j,
                         "account_created_at": iso(-5000.0)}))
    return payloads


def build_inputs(root: Path) -> dict:
    """The corpus, its dataset, votes and one trained model file of each
    kind."""
    users = planted_users()
    corpus = write_jsonl(root / "corpus.jsonl", users)
    data = root / "data.tsv"
    ids = [user["user_id"] for user in users]
    # each id is its class code in lower case and a digit
    data.write_text("".join(f"{user_id}\t{user_id[:-1].upper()}\t\tcrowd\n"
                            for user_id in ids), encoding="utf-8")
    votes = root / "votes.tsv"
    votes.write_text("".join(
        f"{user_id}\t{'no' if i % 3 == 1 else 'yes'}\t{annotator}\n"
        for i, user_id in enumerate(ids) for annotator in ("a1", "a2")),
        encoding="utf-8")
    config = root / "small.json"
    config.write_text(json.dumps({"epochs": 1, "min_count": 1,
                                  "min_char_count": 1}), encoding="utf-8")
    models = {}
    for model in cli.MODEL_NAMES:
        out = root / f"model-{model}"
        assert cli.main(["train", "--model", model, "--corpus", str(corpus),
                         "--train-data", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
        models[model] = out / "model.json"
    return {"corpus": corpus, "data": data, "votes": votes, "models": models}


@pytest.fixture(scope="module")
def inputs(request, shared):
    return shared(request, build_inputs)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)
# values at and past the edges of the keys' rules; for each key, those its
# rule accepts are drawn most often, so that runs get past the config check
NAMES = (*WEIGHTINGS, *SETTINGS, *cli.MODEL_NAMES, *cli.DATASET_KINDS,
         *FILTER_NAMES, *FILTER_ALIASES, "", " plural ")
EDGES = (-1, 0, 1, 2, 3, 60, 10**30, 0.0, 0.5, 1.0, 1e308, 5e-324, True,
         False, None, *NAMES, [], [1], [1, 2], [3, 20, 50], [60], [10**30],
         [0.0, 1.0], [0.5], ["tfidf"], list(WEIGHTINGS), ["color"],
         [" plural ", "bigram", ""], list(FILTER_NAMES))


def config_keys(command: str) -> list[str]:
    """The config keys, not the paths, that command reads."""
    return [key for key, (_, rule, commands, _) in cli.KEYS.items()
            if command in commands and rule is not cli._PATH]


@functools.cache
def accepted(key: str):
    """The edge values that key's rule accepts, to draw from."""
    check = cli.KEYS[key][1][1]
    return st.sampled_from([value for value in EDGES if check(value)])


# the strategies a run draws from, built once rather than once per example
BAD_VALUES = st.sampled_from(EDGES) | json_values
LINES = st.one_of(
    st.binary(max_size=40),
    st.fixed_dictionaries(
        {"user_id": st.sampled_from(("w0", "b1", "hl2", "new"))},
        optional={field: json_values | st.sampled_from(EDGES)
                  for field in ("snapshot_time", "name", "description",
                                "tweets", "profile")}
    ).map(lambda obj: json.dumps(obj).encode()),
    st.builds(lambda user_id, description, statuses, hours: json.dumps(
        user_payload(user_id, description=description, hours=hours,
                     tweets=(tweet_payload("x", hours=hours - 1),),
                     profile={"statuses_count": statuses})).encode(),
        st.sampled_from(("w0", "a2", "new")), st.text(max_size=20),
        st.integers(0, 2 ** 70), st.floats(-10.0, 10.0)))


@st.composite
def runs(draw, command: str):
    keys = config_keys(command)
    config = {key: draw(accepted(key)) for key in keys}
    # at most one key takes any JSON value, mostly one its rule refuses
    bad = draw(st.none() | st.sampled_from(keys))
    if bad is not None:
        config[bad] = draw(BAD_VALUES)
    # epochs sets how long training runs; any other value of it stays
    if type(config.get("epochs")) is int and config["epochs"] > 3:
        config["epochs"] = 3
    return config, draw(LINES), draw(st.sampled_from(cli.MODEL_NAMES))


def argv_of(command: str, inputs: dict, corpus: Path, model: str) -> list:
    paths = {"dataset-build": [], "lexicon-build": [],
             "tune": ["--tuning", inputs["votes"]],
             "train": ["--train-data", inputs["data"]],
             "evaluate": ["--test-data", inputs["data"], "--model-file",
                          inputs["models"][model]],
             "analyze": ["--data", inputs["data"]]}[command]
    return [command, "--corpus", corpus, *paths]


def saved_arrays(payload) -> list:
    """Every array of a model file, decoded from its base64 bytes."""
    if not isinstance(payload, dict):
        return []
    if payload.keys() == {"shape", "data"}:
        return [np.frombuffer(base64.b64decode(payload["data"]), dtype="<f8")]
    return [array for value in payload.values()
            for array in saved_arrays(value)]


# a learning rate or L2 strength near the float maximum overflows the
# weights to inf or nan, which numpy warns of; the run then exits 2
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_any_config_value_or_corpus_line_exits_0_or_2(inputs, example_dir,
                                                     command, data):
    config, line, model = data.draw(runs(command))
    work = Path(tempfile.mkdtemp(dir=example_dir))
    try:
        corpus = work / "corpus.jsonl"
        corpus.write_bytes(inputs["corpus"].read_bytes() + line + b"\n")
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = work / "out"
        argv = [*argv_of(command, inputs, corpus, model), "--config",
                config_path, "--out", out]
        code = cli.main([str(arg) for arg in argv])
        event(f"exit {code}")
        assert code in (0, 2)
        assert code == 0 or not out.exists()
        assert sorted(path.name for path in work.iterdir()) == sorted(
            ["corpus.jsonl", "config.json", *(["out"] if code == 0 else [])])
        if command == "train" and code == 0:
            load_model(out / "model.json")
            payload = json.loads((out / "model.json").read_bytes())
            assert all(np.isfinite(array).all()
                       for array in saved_arrays(payload))
    finally:
        shutil.rmtree(work)
