"""Every program name the benchmark tracer wraps must exist, or
`perfbench/run.py --trace 1` fails when it installs its spans. The tracer
module perfbench/spans.py is loaded from its file and only read: its
install() patches the program's modules for the whole process, so it is
never called here."""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from helpers import user_payload, write_jsonl

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_function_resolves():
    spans = load_spans()
    for module_name, functions in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for function in functions:
            assert callable(getattr(module, function, None)), \
                f"{module_name}.{function}"


def test_every_layer_method_is_defined_on_its_class():
    spans = load_spans()
    for module_name, cls_name, method in spans.LAYER_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"


def test_wrapped_cli_loader_and_report_count_exist(tmp_path):
    from identminer import cli
    from identminer.evaluation import EvalReport
    assert callable(cli._load_corpus)
    assert "n" in {field.name for field in dataclasses.fields(EvalReport)}
    # the tracer unpacks the loader's result as (records, failures) and adds
    # the failures to an integer count
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [
        user_payload("u1"), "{not json", user_payload("u2")])
    loaded = cli._load_corpus(str(corpus), lambda record: record.user_id)
    assert isinstance(loaded, tuple) and len(loaded) == 2
    assert type(loaded[1]) is int and loaded[1] == 1
