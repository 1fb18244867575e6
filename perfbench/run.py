"""The identminer benchmark: one seeded workload of real CLI subcommands.

    python3 perfbench/run.py --workload bios --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from --seed (corpus.py), then runs the
workload's subcommand sequence again and again for --seconds, each
subcommand in its own child process exactly as a user runs it
(``python -m identminer.cli ...``). One benchmark process starts the
subcommands one after another (a closed loop with one client). Every output
is checked: exit code 0, every documented file present and well formed,
bytes identical across repeats, and the quality of the main output scored
against the planted truth. A failed check counts as a failed operation; the
run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes (spans.py) and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Reported times are scaled to a reference machine speed by a fixed job
(reference.py) timed before every child process (README.md, "Speed
normalisation").

--profile DIR additionally runs each subcommand once under cProfile after
the measured passes and writes its top 20 functions to DIR/<stage>.txt.
--scale shrinks or grows the corpus (1.0 is the benchmark size).

The program is built from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7
# Seconds one run of reference.py takes at the reference speed (about the
# mean within benchmark runs on the 2-core machine the benchmark was written
# on, so scaled times stay close to the times measured there). That machine's
# speed drifts by a quarter and more between runs, so reported times are
# scaled to this reference (README.md, "Speed normalisation").
REFERENCE_CALIBRATION_S = 0.2
TIME_UNITS = ("s", "ms")
QUALITY_FLOORS = {"bios": 0.9, "timelines": 0.8, "names": 0.6}
# a few epochs, enough for the planted name signal; profile counts stay
# small so the name model's meta features do not drown it
NAMECNN_CONFIG = {"epochs": 3, "batch_size": 32}
UNIGRAM_EPOCHS = 20  # the CLI default

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_stage_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
    ("quality_f1", "ratio"),
)

# every stage of every workload; per-layer metrics exist for all of them
STAGES = ("lexicon_build", "dataset_qb", "dataset_hf", "dataset_cb", "tune",
          "train_unigram", "evaluate_unigram", "analyze",
          "train_namecnn", "evaluate_namecnn", "train_majority",
          "evaluate_majority", "train_random", "evaluate_random")
TEXT_STAGES = STAGES[:8]
LAYERS = ("cli", "ingest", "textprep", "filters", "scorer", "datasets",
          "util", "models", "evaluation", "analytics")
# (metric, span name, field): calls, total seconds or self seconds of a span
SPAN_METRICS = (
    ("ingest.parse_user_line.calls", "ingest.parse_user_line", "calls"),
    ("ingest.parse_user_line.self_s", "ingest.parse_user_line", "self_s"),
    ("ingest.parse_timestamp.calls", "ingest.parse_timestamp", "calls"),
    ("ingest.parse_timestamp.s", "ingest.parse_timestamp", "s"),
    ("textprep.tokenize.calls", "textprep.tokenize", "calls"),
    ("textprep.tokenize.self_s", "textprep.tokenize", "self_s"),
    ("textprep.pos_tag.calls", "textprep.pos_tag", "calls"),
    ("textprep.pos_tag.self_s", "textprep.pos_tag", "self_s"),
    ("textprep.build_selfreport_lexicon.s",
     "textprep.build_selfreport_lexicon", "s"),
    ("filters.find_query_matches.calls", "filters.find_query_matches", "calls"),
    ("filters.apply_filter_chain.calls", "filters.apply_filter_chain", "calls"),
    ("filters.apply_filter_chain.self_s", "filters.apply_filter_chain",
     "self_s"),
    ("scorer.score_description.calls", "scorer.score_description", "calls"),
    ("scorer.score_description.self_s", "scorer.score_description", "self_s"),
    ("scorer.tune_params.s", "scorer.tune_params", "s"),
    ("datasets.match_reports.calls", "datasets.match_reports", "calls"),
    ("datasets.match_reports.s", "datasets.match_reports", "s"),
    ("datasets.build_cb.s", "datasets.build_cb", "s"),
    ("util.pmap_ordered.calls", "util.pmap_ordered", "calls"),
    ("util.pmap_ordered.s", "util.pmap_ordered", "s"),
    ("models.features.build_vocab.s", "models.features.build_vocab", "s"),
    ("models.features.featurize_user.calls", "models.features.featurize_user",
     "calls"),
    ("models.features.featurize_user.self_s",
     "models.features.featurize_user", "self_s"),
    ("models.unigram.train_unigram.s", "models.unigram.train_unigram", "s"),
    ("models.namecnn.loss_and_grads.calls", "models.namecnn.loss_and_grads",
     "calls"),
    ("models.namecnn.loss_and_grads.self_s", "models.namecnn.loss_and_grads",
     "self_s"),
    ("models.namecnn.predict_proba_batch.calls",
     "models.namecnn.NameModel.predict_proba_batch", "calls"),
    ("models.save_model.s", "models.save_model", "s"),
    ("models.load_model.s", "models.load_model", "s"),
    ("evaluation.evaluate.s", "evaluation.evaluate", "s"),
    ("analytics.user_lexical_means.calls", "analytics.user_lexical_means",
     "calls"),
    ("analytics.user_lexical_means.self_s", "analytics.user_lexical_means",
     "self_s"),
    ("analytics.group_token_counts.s", "analytics.group_token_counts", "s"),
    ("analytics.sage_deviations.s", "analytics.sage_deviations", "s"),
    ("analytics.behavioral_profile.s", "analytics.behavioral_profile", "s"),
    ("analytics.mann_whitney_u.s", "analytics.mann_whitney_u", "s"),
    ("analytics.kendall_tau_top_k.s", "analytics.kendall_tau_top_k", "s"),
)
PREDICT_SPANS = ("models.namecnn.NameModel.predict",
                 "models.unigram.UnigramModel.predict",
                 "models.baselines.RandomBaseline.predict",
                 "models.baselines.MajorityBaseline.predict")


def _per_layer_units() -> list[tuple[str, str]]:
    out = [(f"stage.{stage}_s", "s") for stage in STAGES]
    out += [(f"cli.{stage}.self_s", "s") for stage in STAGES]
    out += [("cli.trace_overhead_s", "s"), ("trace.wall_s", "s"),
            ("trace.self_sum_over_wall", "ratio")]
    out += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    for metric, _, field in SPAN_METRICS:
        out.append((metric, "count" if field == "calls" else "s"))
    out += [("ingest.parse_failures", "count"),
            ("textprep.tokenize.calls_per_text", "ratio")]
    out += [(f"textprep.tokenize.calls_per_text.{stage}", "ratio")
            for stage in TEXT_STAGES]
    out += [("filters.chain_evals_per_match.dataset_hf", "ratio"),
            ("filters.chain_evals_per_match.dataset_cb", "ratio"),
            ("models.unigram.epoch_s", "s"),
            ("models.namecnn.step_ms", "ms"),
            ("models.model_bytes", "bytes"),
            ("evaluation.predict_calls_per_example", "ratio"),
            ("resources.load_tag_lexicon.s", "s"),
            ("resources.load_contractions.s", "s")]
    return out


PER_LAYER = tuple(_per_layer_units())


# --- workloads ----------------------------------------------------------

class Step:
    """One subcommand of a workload: its CLI arguments, the files it must
    write, and the stage name its timings are reported under."""

    def __init__(self, stage: str, argv: list[str], outputs: tuple[str, ...]):
        self.stage = stage
        self.argv = argv
        self.outputs = outputs

    def out_dir(self, work: Path) -> Path:
        return work / "out" / self.stage


def workload_steps(workload: str, work: Path, seed: int) -> list[Step]:
    data = work / "data"
    out = work / "out"
    corpus_args = ["--corpus", str(data / "corpus.jsonl")]
    seed_args = ["--seed", str(seed)]

    def step(stage, command, outputs, *extra, with_corpus=True, workers=1):
        argv = [*command, *(corpus_args if with_corpus else []), *extra,
                "--out", str(out / stage), *seed_args,
                "--workers", str(workers)]
        return Step(stage, argv, outputs)

    if workload == "bios":
        # --workers equal to the 2 cores the benchmark machine has
        return [
            step("lexicon_build", ["lexicon-build"],
                 ("selfreport_lexicon.tsv", "lexicon_summary.json"), workers=2),
            *[step(f"dataset_{kind}", ["dataset-build", "--kind", kind],
                   (f"dataset_{kind}.tsv", f"dataset_{kind}_stats.json"),
                   workers=2)
              for kind in ("qb", "hf", "cb")],
            step("tune", ["tune"], ("tune_result.json",),
                 "--tuning", str(data / "votes.tsv"), workers=2),
        ]
    if workload == "timelines":
        return [
            step("train_unigram", ["train", "--model", "unigram"],
                 ("model.json", "train_result.json"),
                 "--train-data", str(data / "train.tsv")),
            step("evaluate_unigram", ["evaluate"],
                 ("eval_result.json", "eval_report.txt"),
                 "--model-file", str(out / "train_unigram" / "model.json"),
                 "--test-data", str(data / "test.tsv")),
            step("analyze", ["analyze"], ("analyze_result.json",),
                 "--data", str(data / "train.tsv")),
        ]
    steps = [
        step("train_namecnn", ["train", "--model", "namecnn"],
             ("model.json", "train_result.json"),
             "--train-data", str(data / "train.tsv"),
             "--config", str(data / "namecnn.json")),
        step("evaluate_namecnn", ["evaluate"],
             ("eval_result.json", "eval_report.txt"),
             "--model-file", str(out / "train_namecnn" / "model.json"),
             "--test-data", str(data / "test.tsv"), "--setting", "balanced"),
    ]
    for baseline in ("majority", "random"):
        steps += [
            step(f"train_{baseline}", ["train", "--model", f"baseline-{baseline}"],
                 ("model.json", "train_result.json"),
                 "--train-data", str(data / "train.tsv"), with_corpus=False),
            step(f"evaluate_{baseline}", ["evaluate"],
                 ("eval_result.json", "eval_report.txt"),
                 "--model-file", str(out / f"train_{baseline}" / "model.json"),
                 "--test-data", str(data / "test.tsv"), with_corpus=False),
        ]
    return steps


# --- output checks ------------------------------------------------------

class CheckError(Exception):
    pass


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from exc


def read_dataset(path: Path) -> dict[str, str]:
    rows = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle, delimiter="\t"):
            if len(row) != 4 or row[1] not in corpus.CLASSES:
                raise CheckError(f"{path.name}: bad row {row!r}")
            rows[row[0]] = row[1]
    return rows


def check_step(step: Step, work: Path, manifest: dict) -> None:
    """Raise CheckError unless the step's documented outputs are present
    and consistent with its inputs."""
    out = step.out_dir(work)
    for name in step.outputs:
        if not (out / name).is_file() or (out / name).stat().st_size == 0:
            raise CheckError(f"{step.stage}: {name} missing or empty")
    stage = step.stage
    if stage == "lexicon_build":
        summary = _json(out / "lexicon_summary.json")
        if summary["n_parse_failures"] != sum(manifest["malformed"].values()):
            raise CheckError("lexicon_build: parse failures differ from the "
                             "planted malformed lines")
        if summary["n_users"] != manifest["n_users"] or summary["n_words"] < 1:
            raise CheckError("lexicon_build: wrong user or word count")
    elif stage.startswith("dataset_"):
        kind = stage.split("_")[1]
        rows = read_dataset(out / f"dataset_{kind}.tsv")
        stats = _json(out / f"dataset_{kind}_stats.json")
        if not rows or stats["n_output"] != len(rows):
            raise CheckError(f"{stage}: dataset empty or count mismatch")
    elif stage == "tune":
        result = _json(out / "tune_result.json")
        if result["precision"] is None or result["n_examples"] < 1:
            raise CheckError("tune: no tuned precision")
    elif stage.startswith("train_"):
        _json(out / "model.json")
        _json(out / "train_result.json")
    elif stage.startswith("evaluate_"):
        result = _json(out / "eval_result.json")
        if result["n"] < 1 or not 0.0 <= result["macro_f1"] <= 1.0:
            raise CheckError(f"{stage}: bad evaluation result")
    elif stage == "analyze":
        result = _json(out / "analyze_result.json")
        if sorted(result["groups"]) != sorted(corpus.CLASSES):
            raise CheckError("analyze: a group is missing")


def quality(workload: str, work: Path, manifest: dict) -> dict:
    """The main output scored against the planted truth."""
    out = work / "out"
    if workload == "bios":
        rows = read_dataset(out / "dataset_hf" / "dataset_hf.tsv")
        truth = manifest["truth"]["selfreport"]
        hits = sum(1 for user_id, label in rows.items()
                   if truth.get(user_id) == label)
        precision = hits / len(rows) if rows else 0.0
        recall = hits / len(truth) if truth else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return {"quality_f1": f1, "hf_precision": precision,
                "hf_recall": recall}
    stage = "evaluate_unigram" if workload == "timelines" else "evaluate_namecnn"
    result = _json(out / stage / "eval_result.json")
    return {"quality_f1": result["macro_f1"], "macro_f1": result["macro_f1"]}


def digest_outputs(steps: list[Step], work: Path) -> dict[str, str]:
    digests = {}
    for step in steps:
        out = step.out_dir(work)
        for name in step.outputs:
            path = out / name
            if path.is_file():
                digests[f"{step.stage}/{name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return digests


# --- processes ----------------------------------------------------------

class Runner:
    """Starts child processes one at a time and measures each with wait4.

    Before every child it also times one run of reference.py, a fixed job in
    a fresh process. One reference run says little about the speed a child
    saw, as the machine's speed changes within a second; the mean over the
    whole run estimates the run's average speed (see speed_factor)."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.calibration: list[float] = []

    def speed_factor(self) -> float:
        """Multiplier from the run's measured times to times at the
        reference speed."""
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.calibration)

    def run(self, argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
        """(wall seconds, max RSS in MB, exit code)."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")],
                       cwd=ROOT, env=self.env, check=True, timeout=60)
        self.calibration.append(time.perf_counter() - start)
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=stderr)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def child_env() -> tuple[dict, dict]:
    """Environment for every child: the program from src/, and BLAS threads
    capped at the number of usable cores."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("IDENTMINER_LOG", None)
    nproc = len(os.sched_getaffinity(0))
    threads = {}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
        threads[var] = int(env[var])
    return env, threads


def machine_info(blas_threads: dict) -> dict:
    import numpy
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "blas_threads": blas_threads,
        "platform": platform.platform(),
    }


# --- one run ------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.start = time.monotonic()
        self.env, self.blas_threads = child_env()
        self.runner = Runner(self.env, self.start + BUDGET_S)
        self.work = (ROOT / ".perfbench_work"
                     / f"{args.workload}-{args.seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr, flush=True)

    def setup(self):
        data = self.work / "data"
        self.manifest = corpus.generate(self.workload, self.args.seed, data,
                                        scale=self.args.scale)
        (data / "namecnn.json").write_text(json.dumps(NAMECNN_CONFIG),
                                           encoding="utf-8")
        self.steps = workload_steps(self.workload, self.work, self.args.seed)

    def probe(self, timings: bool = False):
        argv = [sys.executable, str(ROOT / "perfbench" / "probe.py")]
        if timings:
            result = subprocess.run(argv + ["--timings"], cwd=ROOT,
                                    env=self.env, capture_output=True,
                                    text=True, timeout=60, check=True)
            return json.loads(result.stdout)
        wall, _, code = self.runner.run(argv, self.work / "probe.err")
        if code != 0:
            raise RuntimeError("set-up probe failed: "
                               + (self.work / "probe.err").read_text())
        return wall

    def iteration(self, traced: bool) -> dict:
        """Run every step once; returns stage walls, RSS, and traces."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        walls, rss, traces = {}, {}, {}
        for step in self.steps:
            step.out_dir(self.work).parent.mkdir(parents=True, exist_ok=True)
            if traced:
                trace_path = self.work / f"trace_{step.stage}.json"
                argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
                        "--trace", str(trace_path), "--", *step.argv]
            else:
                argv = [sys.executable, "-m", "identminer.cli", *step.argv]
            self.attempted += 1
            wall, peak, code = self.runner.run(
                argv, self.work / f"{step.stage}.err")
            walls[step.stage] = wall
            rss[step.stage] = peak
            if code != 0:
                err = (self.work / f"{step.stage}.err").read_text(
                    errors="replace").strip().splitlines()[-1:]
                self.fail(f"{step.stage} exited {code}: {err}")
                continue
            try:
                check_step(step, self.work, self.manifest)
            except (CheckError, KeyError, TypeError) as exc:
                self.fail(f"{step.stage}: {exc}")
                continue
            if traced:
                with open(trace_path, encoding="utf-8") as handle:
                    traces[step.stage] = spans.summarize(json.load(handle))
                trace_path.unlink()
        digests = digest_outputs(self.steps, self.work)
        if self.reference is None:
            self.reference = digests
            try:
                self.scores = quality(self.workload, self.work, self.manifest)
            except (CheckError, KeyError, OSError) as exc:
                self.fail(f"quality: {exc}")
                self.scores = {"quality_f1": 0.0}
        elif digests != self.reference:
            changed = sorted(key for key in set(digests) | set(self.reference)
                             if digests.get(key) != self.reference.get(key))
            self.fail(f"outputs differ from the first pass: {changed}")
        return {"walls": walls, "rss": rss, "traces": traces,
                "wall": sum(walls.values())}

    def measure(self):
        """Passes until --seconds have been spent (at least two untraced, or
        one untraced+traced pair). Returns the list of passes."""
        seconds = self.args.seconds
        loop_start = time.perf_counter()
        passes = []
        while True:
            passes.append(self.iteration(traced=False))
            if self.args.trace:
                passes.append(self.iteration(traced=True))
            elapsed = time.perf_counter() - loop_start
            rounds = len(passes) // (2 if self.args.trace else 1)
            enough = rounds >= (1 if self.args.trace else 2)
            if enough and elapsed * (rounds + 1) / rounds > seconds:
                break
            if time.monotonic() - self.start > BUDGET_S / 2:
                break
        return passes

    def profile(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(self.work / "out", ignore_errors=True)
        for step in self.steps:
            step.out_dir(self.work).parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
                    "--profile", str(directory / f"{step.stage}.txt"), "--",
                    *step.argv]
            self.runner.run(argv, self.work / f"{step.stage}.err")

    def end_to_end(self, passes, setup_times, factor
                   ) -> tuple[dict, dict, list[str]]:
        """(values, sample counts, extra report lines); times are scaled to
        the reference speed."""
        stage_walls = {stage: [p["walls"][stage] * factor for p in passes]
                       for stage in passes[0]["walls"]}
        stage_medians = {stage: median(values)
                         for stage, values in stage_walls.items()}
        values = {
            "setup_s": median(setup_times) * factor,
            "wall_s": median([p["wall"] for p in passes]) * factor,
            "slowest_stage_s": max(stage_medians.values()),
            "peak_rss_mb": median([max(p["rss"].values()) for p in passes]),
            "ops_ok_frac": (self.attempted - self.failed) / self.attempted,
            "quality_f1": self.scores["quality_f1"],
        }
        samples = {name: len(passes) for name in values}
        samples["setup_s"] = len(setup_times)
        extra = [f"{stage + '_s':<48} {median(walls):>14.6f} s      "
                 f"n={len(walls)} max={max(walls):.6f}"
                 for stage, walls in stage_walls.items()]
        unscaled = median([p["wall"] for p in passes])
        extra.append(f"{'wall_s before scaling':<48} {unscaled:>14.6f} s")
        extra += [f"{name:<48} {value:>14.6f} ratio  (planted truth)"
                  for name, value in sorted(self.scores.items())
                  if name != "quality_f1"]
        return values, samples, extra

    def per_layer(self, pairs, resource_times, factor) -> dict:
        untraced = [p for i, p in enumerate(pairs) if i % 2 == 0]
        traced = [p for i, p in enumerate(pairs) if i % 2 == 1]
        values = {name: 0.0 for name, _ in PER_LAYER}
        for stage in self.steps:
            values[f"stage.{stage.stage}_s"] = median(
                [p["walls"][stage.stage] for p in untraced])
        values["cli.trace_overhead_s"] = (median([p["wall"] for p in traced])
                                          - median([p["wall"] for p in untraced]))
        # the span counts are the same in every traced pass; times are
        # taken from the median pass by traced wall
        chosen = sorted(traced, key=lambda p: p["wall"])[len(traced) // 2]
        totals: dict[str, dict] = {}
        counts: dict[str, float] = {}
        root_wall = self_sum = 0.0
        for stage, summary in chosen["traces"].items():
            root_wall += summary["root_wall_s"]
            self_sum += summary["self_sum_s"]
            for name, entry in summary["per_name"].items():
                total = totals.setdefault(name, {"calls": 0, "s": 0.0,
                                                 "self_s": 0.0})
                for key in total:
                    total[key] += entry[key]
                layer = name.split(".")[0]
                values[f"layer.{layer}.self_s"] += entry["self_s"]
                if name.startswith("cli."):
                    values[f"cli.{stage}.self_s"] = entry["self_s"]
            for key, count in summary["counts"].items():
                counts[key] = counts.get(key, 0) + count
            tokenize = summary["per_name"].get("textprep.tokenize")
            texts = summary["distinct"].get("tokenize.texts", 0)
            if tokenize and texts and stage in TEXT_STAGES:
                values[f"textprep.tokenize.calls_per_text.{stage}"] = (
                    tokenize["calls"] / texts)
            chain = summary["per_name"].get("filters.apply_filter_chain")
            matches = summary["distinct"].get("filters.matches", 0)
            if chain and matches and stage in ("dataset_hf", "dataset_cb"):
                values[f"filters.chain_evals_per_match.{stage}"] = (
                    chain["calls"] / matches)
        values["trace.wall_s"] = root_wall
        values["trace.self_sum_over_wall"] = (self_sum / root_wall
                                              if root_wall else 0.0)
        for metric, name, field in SPAN_METRICS:
            values[metric] = float(totals.get(name, {}).get(field, 0))
        values["ingest.parse_failures"] = float(
            counts.get("ingest.parse_failures", 0))
        texts = sum(s["distinct"].get("tokenize.texts", 0)
                    for s in chosen["traces"].values())
        if texts:
            values["textprep.tokenize.calls_per_text"] = (
                values["textprep.tokenize.calls"] / texts)
        train = totals.get("models.unigram.train_unigram")
        if train:
            values["models.unigram.epoch_s"] = train["s"] / UNIGRAM_EPOCHS
        steps = totals.get("models.namecnn.loss_and_grads", {}).get("calls", 0)
        if steps:
            values["models.namecnn.step_ms"] = (
                1000.0 * totals["models.namecnn.train_name_cnn"]["s"] / steps)
        examples = counts.get("evaluation.examples", 0)
        if examples:
            predicts = sum(totals.get(name, {}).get("calls", 0)
                           for name in PREDICT_SPANS)
            values["evaluation.predict_calls_per_example"] = predicts / examples
        sizes = [(step.out_dir(self.work) / "model.json").stat().st_size
                 for step in self.steps
                 if (step.out_dir(self.work) / "model.json").is_file()]
        values["models.model_bytes"] = float(max(sizes, default=0))
        values["resources.load_tag_lexicon.s"] = median(
            [t["load_tag_lexicon"] for t in resource_times])
        values["resources.load_contractions.s"] = median(
            [t["load_contractions"] for t in resource_times])
        units = dict(PER_LAYER)
        return {name: value * factor if units[name] in TIME_UNITS else value
                for name, value in values.items()}

    def execute(self) -> dict:
        self.setup()
        self.probe()  # warm-up: compiles bytecode, fills the file cache
        setup_times = [self.probe() for _ in range(SETUP_PROBES)]
        passes = self.measure()
        factor = self.runner.speed_factor()
        floor = QUALITY_FLOORS[self.workload] if self.args.scale >= 1.0 else 0.0
        if self.scores["quality_f1"] < floor:
            self.fail(f"quality_f1 {self.scores['quality_f1']:.4f} below "
                      f"{floor}")
        if self.args.trace:
            resource_times = [self.probe(timings=True) for _ in range(3)]
            values = self.per_layer(passes, resource_times, factor)
            units = dict(PER_LAYER)
            samples, extra = {}, []
        else:
            values, samples, extra = self.end_to_end(passes, setup_times,
                                                     factor)
            units = dict(END_TO_END)
        if self.args.profile:
            self.profile(Path(self.args.profile).resolve())
        print(f"workload: {self.workload} seed={self.args.seed} "
              f"passes={len(passes)} why: {self.manifest['why']}")
        print("machine: " + json.dumps(machine_info(self.blas_threads),
                                       sort_keys=True))
        print(f"speed factor {factor:.4f} from "
              f"{len(self.runner.calibration)} reference runs (times are "
              f"scaled to the reference speed)")
        for name, unit in units.items():
            count = f"n={samples[name]}" if name in samples else ""
            print(f"{name:<48} {values[name]:>14.6f} {unit:<6} {count}")
        for line in extra:
            print(line)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--profile", metavar="DIR")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "identminer" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'identminer'}",
              file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        result = bench.execute()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
