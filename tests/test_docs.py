"""The README and ROADMAP stay in step with the package, and the package keeps no
parameter that no caller sets, no function that only tests call, and no import
cycle or import made inside a function."""

import ast
import dataclasses
import graphlib
import importlib
import importlib.util
import re
from pathlib import Path

from sqlknow import pattern_graph
from sqlknow.config import AppConfig
from sqlknow.pattern_graph import Edge, PatternGraph, QuestionCluster, SkeletonCluster
from sqlknow.schema import DatabaseSchema
from sqlknow.textproc import EMBED_DIMENSION

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqlknow"


def test_module_table_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for row in re.findall(r"^\| (`[^|]+`) \|", section, re.MULTILINE):
        listed.update(re.findall(r"`(\w+)`", row))
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert listed == modules


def test_configuration_paragraph_lists_every_section_and_top_level_field():
    """A section that is deleted from ``AppConfig`` must leave the README too."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("## Configuration\n\n", 1)[1].split("\n\n", 1)[0]
    sections, top_level = re.search(
        r"optional sections (.*?) plus top-level (.*?)\.", paragraph, re.DOTALL).groups()
    fields = dataclasses.fields(AppConfig)
    assert re.findall(r"`(\w+)`", sections) == [
        f.name for f in fields if dataclasses.is_dataclass(f.default_factory)]
    assert re.findall(r"`(\w+)`", top_level) == [
        f.name for f in fields if f.default_factory is dataclasses.MISSING]


# The "Decisions in force" of ROADMAP.md keep the package within the seed's lines.
PACKAGE_LINE_CAP = 5907


def test_the_package_stays_within_its_line_cap():
    lines = sum(p.read_bytes().count(b"\n") for p in SRC.rglob("*.py"))
    assert lines <= PACKAGE_LINE_CAP


def _traced_targets():
    """(module, attribute) of each ``TARGETS`` entry of ``perfbench/spans.py``, read,
    not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return [tuple(ast.literal_eval(e) for e in entry.elts[:2]) for entry in targets.elts]


def test_every_traced_benchmark_target_names_an_attribute_of_the_package():
    """The benchmark patches each ``TARGETS`` entry of ``perfbench/spans.py`` by name,
    so a moved or renamed function must fail here, not only in the benchmark's own
    tests."""
    targets = _traced_targets()
    assert targets
    for module_name, attribute in targets:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{module_name}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def test_the_traced_benchmark_attributes_masking_and_embedding_to_retrieval():
    """Retrieval reaches ``mask_question`` and ``HashingEmbedder.embed`` through the
    bindings the benchmark's recorder patches, so their time shows under it."""
    for module_name, _ in _traced_targets():
        importlib.import_module(module_name)
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    graph = PatternGraph("g", EMBED_DIMENSION, (QuestionCluster(0, (1.0,) * EMBED_DIMENSION, "q"),),
                         (SkeletonCluster(0, "SELECT _C FROM _T", 1),), (Edge(0, 0, 1, 1.0),))
    recorder = spans.Recorder()
    recorder.install()
    try:
        pattern_graph.retrieve_skeletons("how many rows", graph, 1, schema=DatabaseSchema("db"))
    finally:
        recorder.uninstall()
    names = [span[spans.NAME] for span in recorder.spans]
    parents = {names[i]: names[span[spans.PARENT]] for i, span in enumerate(recorder.spans)
               if span[spans.PARENT] >= 0}
    assert names[0] == "pattern_graph.retrieve"
    assert parents["textproc.mask"] == parents["textproc.embed"] == "pattern_graph.retrieve"


# Hooks that let a test hand in a fake: no program caller sets them.
FAKE_HOOKS = {("load_config", "env"), ("Gateway", "script"), ("mock_gateway", "script")}


def _defaulted_parameters(node, owner=None):
    """(name, parameter, position) of each defaulted parameter of each function under
    ``node``. A method's positions leave out its first parameter, an ``__init__`` is
    named after its class, and a keyword-only parameter has no position."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            bound = owner is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            name = owner if owner is not None and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            found += [(name, arg.arg, i - bound)
                      for i, arg in enumerate(positional[first:], start=first)]
            found += [(name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
        found += _defaulted_parameters(
            child, child.name if isinstance(child, ast.ClassDef) else None)
    return found


def _passed(tree):
    """(name called, keyword or position) of each argument of each call in ``tree``;
    a ``*`` argument passes ``"*"`` and a ``**`` argument ``"**"``."""
    passed = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                          for i, arg in enumerate(call.args))
            passed.update((name, k.arg or "**") for k in call.keywords)
    return passed


def _unset_parameters(defined, callers):
    """``name(parameter)`` for each defaulted parameter of a function in ``defined``
    that no call in ``callers`` passes, by keyword or by position (matched by name)."""
    passed = set().union(*(_passed(tree) for tree in callers))
    return sorted(
        f"{name}({parameter})" for tree in defined
        for name, parameter, position in _defaulted_parameters(tree)
        if (name, parameter) not in FAKE_HOOKS
        and not {(name, parameter), (name, position), (name, "**")} & passed
        and not (position is not None and (name, "*") in passed))


def test_the_options_audit_finds_a_parameter_no_caller_passes():
    source = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n    def __init__(self, x=1, y=2):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n    def s(u=1, v=2):\n        pass\n"
        "f(0, 5, d=6)\nK(7)\nK().m(q=8)\nK.s(9)\n")
    assert _unset_parameters([source], [source]) == [
        "K(y)", "f(c)", "f(e)", "m(p)", "s(v)"]
    assert _unset_parameters([source], [ast.parse("f(*a)\nK(**k)\n")]) == [
        "f(d)", "f(e)", "m(p)", "m(q)", "s(u)", "s(v)"]


def test_every_defaulted_parameter_is_passed_by_some_caller():
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))]
    callers = package + [ast.parse(p.read_text(encoding="utf-8"))
                         for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert _unset_parameters(package, callers) == []


# A fake a test hands in, as the defaulted-parameter hooks above are.
FAKE_FUNCTIONS = {"mock_gateway"}


def _named(tree):
    """Each name that ``tree`` reads, as a name, an attribute or an import."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return named


def _is_command(function):
    """A CLI command: ``stage_command`` registers it, and nothing names it."""
    return any(getattr(getattr(d, "func", None), "id", None) == "stage_command"
               for d in function.decorator_list)


def test_every_public_function_is_named_by_the_package_or_the_benchmark():
    """A function only tests call is deleted, and the tests use what it wrapped. The
    benchmark's traced ``TARGETS`` name functions by string, and those strings count."""
    package = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    named = set().union(*(_named(tree) for tree in [*package.values(), *bench]))
    named |= {attribute.split(".")[-1] for _, attribute in _traced_targets()}
    unnamed = sorted(
        f"{path.stem}.{node.name}" for path, tree in package.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in named | FAKE_FUNCTIONS and not _is_command(node))
    assert unnamed == []


def test_only_clustering_calls_kmeans_or_select_k():
    """Every cluster count comes from ``clustering.fit``."""
    callers = sorted(
        path.stem for path in SRC.rglob("*.py") if path.stem != "clustering"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                           or getattr(node.func, "attr", None))
        in {"kmeans", "select_k"})
    assert callers == []


def _is_type_checking(node):
    return isinstance(node, ast.If) and ast.unparse(node.test).split(".")[-1] == "TYPE_CHECKING"


def _imports(node, skip):
    """The import statements under ``node``, searching no subtree that ``skip`` picks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not skip(child):
            yield from _imports(child, skip)


def _package_modules(statement):
    """The package's modules that an import statement loads; ``from . import x`` loads ``x``."""
    if isinstance(statement, ast.Import):
        return {a.name.split(".")[1] for a in statement.names if a.name.startswith("sqlknow.")}
    module = statement.module or ""
    if statement.level == 0:
        if module.split(".")[0] != "sqlknow":
            return set()
        module = module.removeprefix("sqlknow").removeprefix(".")
    return {module.split(".")[0]} if module else {a.name for a in statement.names}


def _import_audit(trees):
    """For a package's modules by name: each import inside a function or class body,
    a cycle among the imports the modules run on load (none under ``if TYPE_CHECKING:``)
    or None, and the modules that hold such a block."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    nested, graph, checking = [], {}, []
    for name, tree in trees.items():
        nested += sorted({f"{name}:{statement.lineno}" for scope in ast.walk(tree)
                          if isinstance(scope, scopes)
                          for statement in _imports(scope, lambda node: False)})
        graph[name] = set().union(*map(_package_modules, _imports(
            tree, lambda node: isinstance(node, scopes) or _is_type_checking(node))))
        if any(_is_type_checking(node) for node in ast.walk(tree)):
            checking.append(name)
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return nested, exc.args[1], checking
    return nested, None, checking


def test_the_import_audit_finds_a_cycle_and_a_function_level_import():
    trees = {name: ast.parse(source) for name, source in {
        "a": "from typing import TYPE_CHECKING\nfrom . import b\n"
             "if TYPE_CHECKING:\n    from .c import C\n",
        "b": "import json\nfrom .c import x\n",
        "c": "def f():\n    from .a import y\n",
    }.items()}
    assert _import_audit(trees) == (["c:2"], None, ["a"])
    trees["c"] = ast.parse("from sqlknow import a\n")
    assert sorted(_import_audit(trees)[1]) == ["a", "a", "b", "c"]


def test_the_package_imports_at_module_level_only_and_in_no_cycle():
    """A module does not reach back into one that imports it; only ``textproc``
    imports for annotations alone, as the schema and KB index through it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert _import_audit(trees) == ([], None, ["textproc"])
