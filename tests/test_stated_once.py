"""Each configured value is stated once, in cli.KEYS: no function under
src/identminer gives a default to a parameter named after a configured
value, and no record field of that name has one, so the library cannot
drift from the CLI; and only ingest cuts a record's tweet list (the newest
max_tweets, in build_record), so no stage keeps a second copy of that rule.
The modules are parsed with ast, and nothing of the program is imported to
inspect it."""
import ast

from test_src_reach import SRC, program_sources

# the parameter and field names of configured values
CONFIGURED = frozenset({
    "max_tweets", "min_count", "top_n", "lam", "seed", "setting", "allow_im",
    "k", "window", "threshold", "weighting", "learning_rate", "epochs",
    "l2_strength", "batch_size", "stopwords", "colors", "blocklist",
    "filters"})


def defaulted(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each parameter of a def or lambda, and each annotated
    class-level field (a NamedTuple or dataclass field), that is named in
    CONFIGURED and has a default."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            positional = [*node.posonlyargs, *node.args]
            with_default = positional[len(positional) - len(node.defaults):]
            with_default += [arg for arg, value in zip(node.kwonlyargs,
                                                       node.kw_defaults)
                             if value is not None]
            found += [(arg.lineno, arg.arg) for arg in with_default]
        elif isinstance(node, ast.ClassDef):
            found += [(field.lineno, field.target.id) for field in node.body
                      if isinstance(field, ast.AnnAssign)
                      and isinstance(field.target, ast.Name)
                      and field.value is not None]
    return sorted((line, name) for line, name in found if name in CONFIGURED)


def tweet_slices(tree: ast.AST) -> list[int]:
    """The line of each slice of a .tweets attribute, such as
    user.tweets[:n]."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.slice, ast.Slice)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "tweets")


def parsed_sources():
    for name, path in program_sources().items():
        yield name, path, ast.parse(path.read_text(encoding="utf-8"))


def test_no_configured_value_has_a_default_under_src():
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for _, path, tree in parsed_sources()
             for line, name in defaulted(tree)]
    assert not found, ("a default that cli.KEYS states; pass the value "
                       "instead:\n" + "\n".join(found))


def test_only_ingest_cuts_a_records_tweets():
    found = [f"{path.relative_to(SRC.parent)}:{line}"
             for name, path, tree in parsed_sources()
             if name != "identminer.ingest"
             for line in tweet_slices(tree)]
    assert not found, ("tweets sliced outside ingest.build_record:\n"
                       + "\n".join(found))


def test_the_checks_find_each_kind_of_default_and_slice():
    tree = ast.parse(
        "from typing import NamedTuple\n"
        "def f(users, max_tweets=200, *, lam=1.0, top_n): pass\n"
        "def g(seed, /, window=5, workers=1): pass\n"
        "key = lambda value, k=3: value\n"
        "class Params(NamedTuple):\n"
        "    threshold: float = 0.35\n"
        "    weighting: str\n"
        "    limit: int = 4\n"
        "def h(user, n):\n"
        "    return user.tweets[:n], user.tweets[0], user.names[:n]\n")
    assert defaulted(tree) == [(2, "lam"), (2, "max_tweets"), (3, "window"),
                               (4, "k"), (6, "threshold")]
    assert tweet_slices(tree) == [10]
