"""The CLI run as a process, the way a shell and the benchmark run it:
python -m identminer.cli, whose entry is cli.run. run ends the process with
os._exit as soon as main has returned, so these check what the normal exit
would have done: the exit code, stderr written to its end, the files in
place, and the atexit callbacks run."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import identminer
from identminer.cli import main

from helpers import tweet_payload, user_payload, write_jsonl
from test_model_digests import seeded_fixture

SRC = Path(identminer.__file__).resolve().parents[1]


def cli_process(*argv: str, code: str | None = None,
                **env: str) -> subprocess.CompletedProcess:
    """python -m identminer.cli argv, or python -c code with argv as its
    arguments, with src on the path and env added to the environment."""
    command = ["-m", "identminer.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv], capture_output=True, text=True,
        timeout=120, env={**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})


def test_a_run_exits_0_with_its_files_and_its_whole_log(tmp_path):
    """train of the unigram model loads numpy, whose teardown run skips; the
    process writes the same files as main called in process."""
    argv = ["train", "--model", "unigram", *seeded_fixture(tmp_path)]
    proc = cli_process(*argv, "--out", str(tmp_path / "process"),
                       IDENTMINER_LOG="info")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("INFO identminer: corpus: 48 lines, 48 parsed, "
                           "0 failures, 48 unique users\n")
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
    for name in ("model.json", "train_result.json"):
        assert (tmp_path / "process" / name).read_bytes() == \
            (tmp_path / "in_process" / name).read_bytes()


def test_a_data_error_exits_2_with_its_message(tmp_path):
    missing = tmp_path / "missing.jsonl"
    proc = cli_process("lexicon-build", "--corpus", str(missing),
                       "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr == (f"identminer: data error: corpus file not found: "
                           f"{missing}\n")
    assert not (tmp_path / "out").exists()


def test_a_usage_error_exits_1(tmp_path):
    proc = cli_process("lexicon-build", "--no-such-flag",
                       "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "error: unrecognized arguments: --no-such-flag" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_an_atexit_callback_registered_before_run_still_runs(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [user_payload(
        "u1", description="i am a farmer", tweets=(tweet_payload("hi"),))])
    out = tmp_path / "out"
    code = ("import atexit, sys\n"
            "atexit.register(print, 'callback ran')\n"
            "from identminer.cli import run\n"
            "sys.argv[0] = 'identminer'\n"
            "run()\n"
            "print('run returned')\n")
    proc = cli_process("lexicon-build", "--corpus", str(corpus),
                       "--out", str(out), code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "callback ran\n"
    assert json.loads((out / "lexicon_summary.json").read_text())[
        "n_users"] == 1


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml")
                              .read_text(encoding="utf-8"))
    assert pyproject["project"]["scripts"] == {
        "identminer": "identminer.cli:run"}
