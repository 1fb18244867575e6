"""The corpus loader streams every line through the parser into the dedupe,
keeping per user only what a stage reads of the winning snapshot.

Three guards: a differential oracle against the list-then-dedupe loader,
repeated snapshots planted through every corpus-reading subcommand, and the
memory a load retains (tracemalloc, not RSS)."""
import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identminer import cli
from identminer.cli import main
from identminer.datasets import LabeledUser, write_dataset_tsv
from identminer.filters import CLASS_ORDER
from identminer.ingest import ParseFailure, newest_tweets
from identminer.models.features import user_word_counts, word_chunks

from helpers import (PLANT_HEADS, PLANT_QUERIES, default, tweet_payload,
                     user_payload, write_jsonl)
from reference_ingest import reference_load_users


def reference_load(path, keep):
    """The list-then-dedupe loader: the record of every parsed line (the
    one-pass parser of reference_ingest) is appended to one list, then the
    latest snapshot of each user wins (the later line on a tie), each user
    in the place where its id first appeared; keep of each winner, the
    users whose keep is None left out."""
    records, failures = [], 0
    with open(path, "rb") as handle:
        for result in reference_load_users(handle):
            if isinstance(result, ParseFailure):
                failures += 1
            else:
                records.append(result)
    latest = {}
    for record in records:
        current = latest.get(record.user_id)
        if current is None or record.snapshot_time >= current.snapshot_time:
            latest[record.user_id] = record
    kept = {user_id: keep(record) for user_id, record in latest.items()}
    return ({user_id: value for user_id, value in kept.items()
             if value is not None}, failures)


# one instant written three ways, and two other instants
SNAPSHOT_TIMES = ("2024-06-01T12:00:00Z", "2024-06-01T14:00:00+02:00",
                  "2024-06-01T12:00:00", "2024-06-01T13:00:00Z",
                  "2024-06-02T00:00:00Z")
# ways a line fails to parse
MALFORMED = ("bad json", "tweets not a list", "bad tweet time", "blank")


def corpus_line(index: int, user_id: str, snapshot: str, defect) -> str:
    payload = {"user_id": user_id, "snapshot_time": snapshot,
               "name": f"name {index}", "description": f"line {index}",
               "tweets": [tweet_payload(f"tweet {index} {k}", hours=-1 - k)
                          for k in range(index % 3)]}
    if defect == "tweets not a list":
        payload["tweets"] = index
    elif defect == "bad tweet time":
        payload["tweets"] = [{"text": "x", "created_at": "yesterday"}]
    line = json.dumps(payload)
    if defect == "bad json":
        return line[:-1]
    return "" if defect == "blank" else line


def projection(line):
    """What the test keeps of a checked line: its description, name,
    snapshot time and newest max_tweets tweet texts."""
    return (line.description, line.name, line.snapshot_time,
            [tweet["text"] for _, tweet
             in newest_tweets(line, default("max_tweets"))])


def record_projection(record):
    """projection of the line whose one-pass record is record."""
    return (record.description, record.name, record.snapshot_time,
            [tweet.text for tweet in record.tweets[:default("max_tweets")]])


corpus_lines = st.lists(st.tuples(
    st.sampled_from(("u0", "u1", "u2", "u3")),
    st.sampled_from(SNAPSHOT_TIMES),
    # most lines parse; a malformed one may carry the newest snapshot
    st.one_of(st.none(), st.none(), st.none(), st.sampled_from(MALFORMED))),
    max_size=25)


@settings(max_examples=150)
@given(lines=corpus_lines,
       kept_ids=st.sets(st.sampled_from(("u0", "u1", "u2", "u3", "u9"))))
def test_streamed_load_matches_the_list_then_dedupe_loader(example_dir,
                                                           lines, kept_ids):
    path = write_jsonl(example_dir / "corpus.jsonl", [
        corpus_line(index, user_id, snapshot, defect)
        for index, (user_id, snapshot, defect) in enumerate(lines)])
    calls = []

    def keep(line):
        calls.append(line.user_id)
        return projection(line) if line.user_id in kept_ids else None

    kept, failures = cli._load_corpus(str(path), keep)
    expected, expected_failures = reference_load(str(path), lambda record: (
        record_projection(record) if record.user_id in kept_ids else None))
    assert list(kept.items()) == list(expected.items())
    assert failures == expected_failures
    assert type(failures) is int
    # keep sees each parsed line at most once: never a snapshot older than
    # the current winner
    assert len(calls) <= len(lines) - failures


# ---------------------------------------------------------------------------
# repeated snapshots through the CLI

# per class: the query keyword, the tweet word and the name letter
CLASS_WORDS = ("alpha", "bravo", "charlie", "delta")
NAME_LETTERS = ("a", "b", "c", "d")
# the odd users' descriptions are person bigrams, which qb keeps
HEADS = ("farmer", "woman", "nurse", "guy", "teacher", "man", "writer", "girl")
PER_CLASS = len(HEADS)
# users given a decoy snapshot, and how it loses: older, tied but on an
# earlier line, or newer but on a malformed line
DECOYS = {"u0_1": "older", "u1_2": "older", "u2_3": "older", "u3_4": "older",
          "u0_5": "tie", "u1_6": "tie", "u2_7": "tie", "u3_0": "tie",
          "u0_2": "malformed", "u1_3": "malformed", "u2_4": "malformed",
          "u3_5": "malformed"}
STAGE_CONFIG = {"epochs": 30, "min_char_count": 1, "top_n": 5, "tau_ks": [3],
                "learning_rate": 0.5}


def winner_payload(klass: int, j: int, hours: float = 0.0) -> dict:
    query, _ = PLANT_QUERIES[klass]
    article = "an" if query == "asian" else "a"
    head = HEADS[j]
    word = CLASS_WORDS[klass]
    tweets = tuple(tweet_payload(f"{word} {word} chat {head}", hours=-1 - k)
                   for k in range(3))
    return user_payload(f"u{klass}_{j}", description=f"i am {article} "
                        f"{query} {head}", name=NAME_LETTERS[klass] * (5 + j),
                        hours=hours, tweets=tweets)


def decoy_payload(klass: int, j: int, hours: float = 0.0) -> dict:
    """Everything a stage reads is different: a description with no query
    keyword, the next class's tweet word and name letter."""
    other = (klass + 1) % 4
    word = CLASS_WORDS[other]
    tweets = tuple(tweet_payload(f"{word} {word} decoy", hours=-1 - k)
                   for k in range(3))
    return user_payload(f"u{klass}_{j}", description="i am a happy dog walker",
                        name=NAME_LETTERS[other] * (5 + j), hours=hours,
                        tweets=tweets)


FILLERS = [user_payload(f"f{i}", description=f"black coffee lover {head}")
           for i, head in enumerate(PLANT_HEADS[:4])]


def planted_corpora(tmp_path):
    """(planted, winners, decoys): the planted corpus has the repeated
    snapshots; the winners corpus has one line per user, the winning
    snapshot in the place where the planted id first appears, and the same
    malformed lines; the decoys corpus has the losing snapshot instead."""
    planted, winners, decoys, malformed = [], [], [], []
    for klass in range(4):
        for j in range(PER_CLASS):
            how = DECOYS.get(f"u{klass}_{j}")
            if how == "older":
                # the newer snapshot comes first in the file
                winner = winner_payload(klass, j, hours=5)
                decoy = decoy_payload(klass, j, hours=1)
                planted += [winner, decoy]
            elif how == "tie":
                # 16:00+02:00 is the winner's 14:00Z
                winner = winner_payload(klass, j, hours=2)
                decoy = decoy_payload(klass, j)
                decoy["snapshot_time"] = "2024-06-01T16:00:00+02:00"
                planted += [decoy, winner]
            elif how == "malformed":
                winner = winner_payload(klass, j)
                decoy = decoy_payload(klass, j)
                bad = dict(decoy_payload(klass, j, hours=9),
                           tweets="not a list")
                malformed.append(json.dumps(bad))
                planted += [winner, malformed[-1]]
            else:
                winner = decoy = winner_payload(klass, j)
                planted.append(winner)
            winners.append(winner)
            decoys.append(decoy)
    planted += FILLERS
    winners += FILLERS + malformed
    decoys += FILLERS + malformed
    return [write_jsonl(tmp_path / f"{name}.jsonl", rows) for name, rows in
            (("planted", planted), ("winners", winners), ("decoys", decoys))]


def stage_inputs(tmp_path):
    data = tmp_path / "data.tsv"
    write_dataset_tsv([LabeledUser(user_id=f"u{klass}_{j}",
                                   label=CLASS_ORDER[klass], score=None,
                                   source="crowd")
                       for klass in range(4) for j in range(PER_CLASS)], data)
    votes = [(f"u{klass}_{j}", "yes") for klass in range(4)
             for j in range(PER_CLASS)]
    votes += [(f"f{i}", "no") for i in range(len(FILLERS))]
    tuning = tmp_path / "tuning.tsv"
    tuning.write_text("".join(f"{user_id}\t{vote}\ta{k}\n"
                              for user_id, vote in votes for k in range(3)),
                      encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(STAGE_CONFIG), encoding="utf-8")
    return data, tuning, config


STAGES = {
    "lexicon-build": lambda i: ["lexicon-build"],
    "dataset-build qb": lambda i: ["dataset-build", "--kind", "qb"],
    "dataset-build hf": lambda i: ["dataset-build", "--kind", "hf"],
    "dataset-build cb": lambda i: ["dataset-build", "--kind", "cb"],
    "tune": lambda i: ["tune", "--tuning", str(i["tuning"])],
    "train unigram": lambda i: ["train", "--model", "unigram",
                                "--train-data", str(i["data"])],
    "evaluate unigram": lambda i: ["evaluate", "--model-file",
                                   str(i["unigram"]), "--test-data",
                                   str(i["data"])],
    "train namecnn": lambda i: ["train", "--model", "namecnn",
                                "--train-data", str(i["data"])],
    "evaluate namecnn": lambda i: ["evaluate", "--model-file",
                                   str(i["namecnn"]), "--test-data",
                                   str(i["data"])],
    "analyze": lambda i: ["analyze", "--data", str(i["data"])],
}


def digests(out) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_repeated_snapshots_give_each_stage_the_winner(tmp_path, monkeypatch,
                                                       capsys, stage):
    """Each stage on the planted corpus writes the bytes it writes on the
    winners alone; on the decoys it writes other bytes, so a stage that
    read a losing snapshot would be seen."""
    monkeypatch.setenv("IDENTMINER_LOG", "info")
    planted, winners, decoys = planted_corpora(tmp_path)
    data, tuning, config = stage_inputs(tmp_path)
    inputs = {"data": data, "tuning": tuning}
    if stage.startswith("evaluate"):
        # a model trained on the winners, evaluated against each corpus
        model = stage.split()[1]
        assert main(["train", "--model", model, "--corpus", str(winners),
                     "--train-data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "model")]) == 0
        inputs[model] = tmp_path / "model" / "model.json"
    outputs, loads = {}, {}
    for corpus in (planted, winners, decoys):
        out = tmp_path / f"out_{corpus.stem}"
        capsys.readouterr()
        assert main([*STAGES[stage](inputs), "--corpus", str(corpus),
                     "--config", str(config), "--out", str(out)]) == 0
        outputs[corpus.stem] = digests(out)
        loads[corpus.stem] = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("INFO identminer: corpus: ")]
    assert outputs["planted"] == outputs["winners"]
    assert outputs["decoys"] != outputs["winners"]
    # 32 class users, 4 fillers, 4 older and 4 tied snapshots, 4 malformed
    assert loads["planted"] == [
        "INFO identminer: corpus: 48 lines, 44 parsed, 4 failures, "
        "36 unique users"]
    assert loads["winners"] == [
        "INFO identminer: corpus: 40 lines, 36 parsed, 4 failures, "
        "36 unique users"]


# ---------------------------------------------------------------------------
# memory

def retained(load) -> tuple[int, object]:
    """(bytes still allocated, per tracemalloc, once load() has returned
    and while its result is held; that result)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return after - before, result


def user_rows(n_users: int, n_tweets: int) -> list[dict]:
    return [user_payload(f"user{i:05d}", name=f"name {i}",
                         description=f"i am a proud black teacher {i}",
                         tweets=tuple(tweet_payload(f"tweet number {k} of "
                                                    f"user {i} #tag",
                                                    hours=-1 - k)
                                      for k in range(n_tweets)))
            for i in range(n_users)]


def test_a_description_load_retains_no_tweets(tmp_path):
    one = write_jsonl(tmp_path / "one.jsonl", user_rows(300, 1))
    many = write_jsonl(tmp_path / "many.jsonl", user_rows(300, 100))
    with_one, _ = retained(lambda: cli._load_corpus(
        str(one), lambda line: line.description))
    with_many, _ = retained(lambda: cli._load_corpus(
        str(many), lambda line: line.description))
    assert abs(with_many - with_one) <= 0.05 * with_one


def test_a_tweet_load_retains_only_the_dataset_users(tmp_path, monkeypatch):
    load = cli._load_corpus
    sizes = []

    def measured(path, keep):
        # the retained size of what _load_corpus returns to _corpus_pairs
        size, loaded = retained(lambda: load(path, keep))
        sizes.append(size)
        return loaded

    monkeypatch.setattr(cli, "_load_corpus", measured)

    def tweet_load(n_users: int, n_dataset: int) -> int:
        corpus = write_jsonl(tmp_path / f"c{n_users}.jsonl",
                             user_rows(n_users, 20))
        dataset = [LabeledUser(user_id=f"user{i:05d}", label=CLASS_ORDER[0],
                               score=None, source="crowd")
                   for i in range(n_dataset)]
        chunks = word_chunks()
        cli._corpus_pairs({"corpus": str(corpus)}, dataset,
                          lambda line: user_word_counts(
                              [tweet["text"] for _, tweet in newest_tweets(
                                  line, default("max_tweets"))], chunks))
        return sizes.pop()

    small_corpus = tweet_load(100, 20)
    # four times the corpus users, the same dataset users
    assert abs(tweet_load(400, 20) - small_corpus) <= 0.05 * small_corpus
    # four times the dataset users
    assert tweet_load(100, 80) >= 3 * small_corpus
