"""Every program name the benchmark tracer wraps must exist, or
`perfbench/run.py --trace 1` fails when it installs its spans. The tracer
module perfbench/spans.py is read through helpers.load_spans, never
installed."""
import importlib

from helpers import load_spans, user_payload, write_jsonl


def test_every_layer_function_resolves():
    spans = load_spans()
    for module_name, functions in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for function in functions:
            assert callable(getattr(module, function, None)), \
                f"{module_name}.{function}"


def test_no_wrapped_function_is_bound_under_another_name():
    """The tracer swaps every binding of a wrapped function object, found
    by identity, so an alias (parse_user_line = validate_user_line, say)
    would trace each call of the other name under the wrapped one."""
    import pkgutil

    import identminer
    spans = load_spans()
    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(identminer.__path__, "identminer.")]
    for module_name, functions in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for function in functions:
            wrapped = getattr(module, function)
            aliases = [f"{other.__name__}.{name}" for other in modules
                       for name, value in vars(other).items()
                       if value is wrapped and name != function]
            assert not aliases, f"{module_name}.{function}: {aliases}"


def test_every_layer_method_is_defined_on_its_class():
    spans = load_spans()
    for module_name, cls_name, method in spans.LAYER_METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"


def test_wrapped_cli_loader_and_report_count_exist(tmp_path):
    from identminer import cli
    from identminer.evaluation import EvalReport
    assert callable(cli._load_corpus)
    assert "n" in EvalReport._fields
    # the tracer unpacks the loader's result as (records, failures) and adds
    # the failures to an integer count
    corpus = write_jsonl(tmp_path / "corpus.jsonl", [
        user_payload("u1"), "{not json", user_payload("u2")])
    loaded = cli._load_corpus(str(corpus), lambda record: record.user_id)
    assert isinstance(loaded, tuple) and len(loaded) == 2
    assert type(loaded[1]) is int and loaded[1] == 1
