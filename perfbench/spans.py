"""Span tracer for one CLI subcommand, installed from outside the program.

`install()` wraps the layer-boundary functions listed in LAYER_FUNCTIONS: it
replaces the function object in every ``identminer`` module namespace that
binds it (``datasets`` and ``analytics`` import ``tokenize`` by name, for
example), so calls through any of those names are recorded. Methods in
LAYER_METHODS are wrapped on their class. Nothing in the program changes.

Spans are kept in memory, one buffer per thread, and written out once at
the end. A span started in a worker thread of ``util.pmap_ordered`` gets the
``pmap_ordered`` span of the submitting thread as its parent, so a run at
``--workers 2`` nests correctly.

Some boundaries also record counts keyed by the object they work on, so
ratios such as tokenize calls per distinct text can be formed afterwards.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# module -> public functions that mark a layer boundary. The span name is
# "<layer>.<function>"; the layer is the module path below identminer.
LAYER_FUNCTIONS = {
    "identminer.ingest": ("parse_user_line", "parse_timestamp",
                          "dedupe_latest"),
    "identminer.textprep": ("tokenize", "pos_tag", "build_selfreport_lexicon"),
    "identminer.filters": ("find_query_matches", "apply_filter_chain"),
    "identminer.scorer": ("score_description", "tune_params"),
    "identminer.datasets": ("match_reports", "build_qb", "build_hf",
                            "build_cb", "read_dataset_tsv",
                            "write_dataset_tsv"),
    "identminer.util": ("pmap_ordered", "write_json"),
    "identminer.models.features": ("build_vocab", "featurize_user"),
    "identminer.models.unigram": ("train_unigram",),
    "identminer.models.namecnn": ("train_name_cnn", "loss_and_grads"),
    "identminer.models": ("save_model", "load_model"),
    "identminer.evaluation": ("evaluate",),
    "identminer.analytics": ("user_lexical_means", "group_lexical_stats",
                             "group_token_counts", "sage_deviations",
                             "behavioral_profile", "mann_whitney_u",
                             "kendall_tau_top_k"),
}
# (module, class, method) wrapped on the class itself
LAYER_METHODS = (
    ("identminer.models.namecnn", "NameModel", "predict_proba_batch"),
    ("identminer.models.namecnn", "NameModel", "predict"),
    ("identminer.models.unigram", "UnigramModel", "predict"),
    ("identminer.models.baselines", "RandomBaseline", "predict"),
    ("identminer.models.baselines", "MajorityBaseline", "predict"),
)


def layer_name(module: str, function: str) -> str:
    short = module[len("identminer."):] if module != "identminer" else ""
    return f"{short}.{function}" if short else function


class Tracer:
    """In-memory span store. A span is (id, name index, parent id, start,
    end); ids are global, buffers are per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[list] = []
        self._buffers_lock = threading.Lock()
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.inherit = -1
            local.buffer = []
            with self._buffers_lock:
                self._buffers.append(local.buffer)
        return local

    def span(self, name_id: int, fn, args, kwargs):
        local = self._state()
        span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else local.inherit
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.stack.pop()
            local.buffer.append((span_id, name_id, parent, start, end))

    def current(self) -> int:
        local = self._state()
        return local.stack[-1] if local.stack else local.inherit

    def adopt(self, parent: int, fn):
        """fn wrapped so that spans it opens in another thread nest under
        parent."""
        def run(*args, **kwargs):
            local = self._state()
            saved = local.inherit
            local.inherit = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.inherit = saved
        return run

    def spans(self) -> list[tuple]:
        with self._buffers_lock:
            merged = [span for buffer in self._buffers for span in buffer]
        merged.sort()
        return merged

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans(),
            "distinct": {key: len(values) for key, values in self.keys.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _wrap_function(tracer: Tracer, name: str, fn, observe=None):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if observe is not None:
            observe(args, kwargs)
        return tracer.span(name_id, fn, args, kwargs)
    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _observers(tracer: Tracer) -> dict:
    """Count hooks for the ratios: what each call works on, by identity of
    the object (texts and descriptions stay alive for the whole run)."""
    def tokenize(args, kwargs):
        text = args[0] if args else kwargs["text"]
        tracer.keys["tokenize.texts"].add(id(text))

    def chain(args, kwargs):
        # (description, match position) identifies one query match
        raw_text, match = args[1], args[2]
        tracer.keys["filters.matches"].add((id(raw_text), match.token_index))

    return {"textprep.tokenize": tokenize, "filters.apply_filter_chain": chain}


def _pmap_wrapper(tracer: Tracer, fn):
    name_id = tracer.name_id("util.pmap_ordered")

    @functools.wraps(fn)
    def wrapper(map_fn, items, workers=1):
        def run(*args, **kwargs):
            parent = tracer.current()
            return fn(tracer.adopt(parent, map_fn), items, workers)
        return tracer.span(name_id, run, (), {})
    wrapper.__perfbench_wrapped__ = fn
    return wrapper


def _count_evaluated(tracer: Tracer, fn):
    """evaluate() scores len(pairs) examples after balancing; count them from
    the report it returns."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        report = fn(*args, **kwargs)
        tracer.counts["evaluation.examples"] += report.n
        return report
    return wrapper


def _count_parse_failures(tracer: Tracer, fn):
    """cli._load_corpus returns (records, failures); count the failures. It
    records no span: its own time is CLI time."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        records, failures = fn(*args, **kwargs)
        tracer.counts["ingest.parse_failures"] += failures
        return records, failures
    return wrapper


def install(tracer: Tracer) -> None:
    """Import the program and wrap every layer boundary in place."""
    import importlib
    import identminer.cli  # noqa: F401  (imports every module the CLI uses)

    modules = [module for name, module in list(sys.modules.items())
               if name == "identminer" or name.startswith("identminer.")]
    observers = _observers(tracer)
    replacements = {}
    for module_name, functions in LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for function in functions:
            original = getattr(module, function)
            name = layer_name(module_name, function)
            if function == "pmap_ordered":
                wrapped = _pmap_wrapper(tracer, original)
            else:
                inner = original
                if function == "evaluate":
                    inner = _count_evaluated(tracer, original)
                wrapped = _wrap_function(tracer, name, inner,
                                         observers.get(name))
            replacements[id(original)] = (original, wrapped)
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for module_name, cls_name, method in LAYER_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, _wrap_function(
            tracer, f"{layer_name(module_name, cls_name)}.{method}", original))
    cli = sys.modules["identminer.cli"]
    cli._load_corpus = _count_parse_failures(tracer, cli._load_corpus)


# --- analysis -------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans. Children in different threads may overlap,
    so the covered part is the length of the union of child intervals,
    clipped to the parent."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {}
    for span_id, _name, parent, start, end in spans:
        bounds[span_id] = (start, end)
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for span_id, (start, end) in bounds.items():
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(payload: dict) -> dict:
    """Per span name: calls, total seconds, self seconds; plus the root
    span's wall time and the sum of all self times."""
    names = payload["names"]
    spans = [tuple(span) for span in payload["spans"]]
    selfs = self_times(spans)
    per_name: dict[str, dict] = {}
    root_wall = 0.0
    for span_id, name_id, parent, start, end in spans:
        entry = per_name.setdefault(names[name_id],
                                    {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += selfs[span_id]
        if parent < 0:
            root_wall += end - start
    return {"per_name": per_name, "root_wall_s": root_wall,
            "self_sum_s": sum(selfs.values()),
            "distinct": payload.get("distinct", {}),
            "counts": payload.get("counts", {})}
