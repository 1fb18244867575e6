"""Every function and method under src/identminer has a caller there, so
that src/ holds only what the CLI or the benchmark tracer runs; code that
only tests call belongs in tests/. The modules are parsed with ast, and
nothing of the program is imported to inspect it.

A top-level function is reached when, outside its own body, its module loads
its name, another module imports it by name, or another module reads it as
an attribute of its module. A method is reached when some code reads an
attribute of its name. A reference counts only from reached code: module
level code, or the body of a reached function or method. So a function
called only from an unreached one is unreached too.
"""
import ast
from collections import defaultdict
from pathlib import Path

from helpers import load_perfbench

SRC = Path(__file__).resolve().parents[1] / "src"

# called from outside src, or left for the ROADMAP item named
EXEMPT = {
    ("identminer.cli", "_Parser.error"),  # argparse calls it on bad usage
    ("identminer.models.unigram", "weighted_ce_loss"),  # item 9
}


def tracer_bound() -> set[tuple[str, str]]:
    """The (module, qualified name) of each function and method that the
    benchmark tracer wraps and so calls."""
    spans = load_perfbench("spans")
    return ({(module, function)
             for module, functions in spans.LAYER_FUNCTIONS.items()
             for function in functions}
            | {(module, f"{cls}.{method}")
               for module, cls, method in spans.LAYER_METHODS})


class _Module(ast.NodeVisitor):
    """The definitions of one module, and its references, each with the
    top-level function or method whose body holds it (None for module level
    code)."""

    def __init__(self, name: str, is_package: bool, modules: set[str]):
        self.package = name if is_package else name.rpartition(".")[0]
        self.modules = modules
        self.defs: dict[str, int] = {}  # qualified name -> line
        self.refs: list[tuple] = []  # (owner, reference)
        self.aliases: dict[str, str] = {}  # local name -> module
        self.owner = None
        self.cls = None

    def visit_ClassDef(self, node):
        if self.owner is not None or self.cls is not None:
            return self.generic_visit(node)
        self.cls = node.name
        self.generic_visit(node)
        self.cls = None

    def visit_FunctionDef(self, node):
        if self.owner is not None:
            return self.generic_visit(node)
        qualname = f"{self.cls}.{node.name}" if self.cls else node.name
        self.defs[qualname] = node.lineno
        # decorators, defaults and annotations run where the def stands
        for child in (*node.decorator_list, node.args, node.returns):
            if child is not None:
                self.visit(child)
        self.owner = qualname
        for statement in node.body:
            self.visit(statement)
        self.owner = None

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.append((self.owner, ("name", node.id)))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.refs.append((self.owner, ("attr", node.attr)))
            if isinstance(node.value, ast.Name):
                self.refs.append((self.owner, ("module_attr", node.value.id,
                                               node.attr)))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        source = node.module or ""
        if node.level:
            parts = self.package.split(".")
            source = ".".join(parts[:len(parts) - node.level + 1]
                              + ([node.module] if node.module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            if f"{source}.{alias.name}" in self.modules:
                self.aliases[local] = f"{source}.{alias.name}"
            else:
                self.refs.append((self.owner, ("import", source, alias.name)))


def unreached(sources: dict[str, Path], exempt) -> list[tuple]:
    """(path, line, "module.qualname") of each function and method of
    sources (module name -> file) that no reached code references, the
    exempt ones (a set of (module, qualname)) and dunders aside."""
    modules = {name: _Module(name, path.name == "__init__.py", set(sources))
               for name, path in sources.items()}
    for name, path in sources.items():
        modules[name].visit(ast.parse(path.read_text(encoding="utf-8")))
    methods = defaultdict(list)  # method name -> (module, qualname)
    for name, module in modules.items():
        for qualname in module.defs:
            if "." in qualname:
                methods[qualname.rpartition(".")[2]].append((name, qualname))

    callees = defaultdict(set)
    for name, module in modules.items():
        for owner, ref in module.refs:
            if ref[0] == "name":
                targets = [(name, ref[1])]
            elif ref[0] == "import":
                targets = [ref[1:]]
            elif ref[0] == "module_attr":
                targets = ([(module.aliases[ref[1]], ref[2])]
                           if ref[1] in module.aliases else [])
            else:
                targets = methods.get(ref[1], [])
            callees[name, owner].update(
                target for target in targets if target != (name, owner))

    reached = {(name, None) for name in modules} | set(exempt)
    reached |= {(name, qualname) for name, module in modules.items()
                for qualname in module.defs
                if qualname.rpartition(".")[2].startswith("__")}
    todo = list(reached)
    while todo:
        for target in callees[todo.pop()]:
            if target not in reached:
                reached.add(target)
                todo.append(target)
    return sorted((sources[name], line, f"{name}.{qualname}")
                  for name, module in modules.items()
                  for qualname, line in module.defs.items()
                  if (name, qualname) not in reached)


def program_sources() -> dict[str, Path]:
    """Module name -> file of every module under src."""
    sources = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        sources[".".join(parts[:-1] if parts[-1] == "__init__"
                         else parts)] = path
    return sources


def test_every_src_function_and_method_has_a_src_caller():
    missing = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
               for path, line, name in unreached(program_sources(),
                                                 EXEMPT | tracer_bound())]
    assert not missing, "no caller in src:\n" + "\n".join(missing)


def test_every_exemption_is_needed():
    """Each EXEMPT row names a function or method defined under src that
    nothing there reaches without the row, so a row left behind by a
    deletion, or by a new caller, fails here."""
    found = {name for _, _, name in unreached(program_sources(),
                                              tracer_bound())}
    needless = sorted(f"{module}.{qualname}" for module, qualname in EXEMPT
                      if f"{module}.{qualname}" not in found)
    assert not needless, ("exempt, but not defined under src or reached "
                          "without the exemption:\n" + "\n".join(needless))


def test_a_function_called_only_from_unreached_code_is_unreached(tmp_path):
    """The checker itself, on a two-module package: lone() and Shape.scaled
    have no caller, and helper() and Shape.area are called only from them;
    used() is read as an attribute of its module, imported() is imported by
    name, run() is called by its own module, and Shape.size is read as an
    attribute."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(
        "def used(): pass\n"
        "def imported(): pass\n"
        "def helper(): return helper()\n"
        "def lone(): return helper()\n"
        "class Shape:\n"
        "    def size(self): return 1\n"
        "    def scaled(self): return self.area()\n"
        "    def area(self): return 1\n")
    (package / "b.py").write_text(
        "from . import a\n"
        "from .a import imported\n"
        "def run(shape): return a.used(), shape.size\n"
        "run(None)\n")
    sources = {"pkg": package / "__init__.py", "pkg.a": package / "a.py",
               "pkg.b": package / "b.py"}
    found = [name for _, _, name in unreached(sources, set())]
    assert found == ["pkg.a.helper", "pkg.a.lone", "pkg.a.Shape.scaled",
                     "pkg.a.Shape.area"]
    assert [name for _, _, name in unreached(
        sources, {("pkg.a", "lone"), ("pkg.a", "Shape.scaled")})] == []
