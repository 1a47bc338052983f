"""The library is what the CLI runs: every def in src/kslab is reached.

An AST pass over src/kslab/*.py builds the name-reference graph of the
top-level functions and classes (a class is one node, its methods
included).  A def refers to each top-level name of its own module that it
mentions, and to each name it mentions that a relative import binds.  The
roots are `cli.main`, every module-level statement outside `__init__`, the
names README's library example imports, the functions the benchmark's span
recorder wraps by name, and the allowlist below.  Every def must be
reached, so `kslab.__all__` exports only reached defs.

Methods are checked by name: a method of a reached class is reached when
reached code, or README's library example, names it as an attribute
(`x.name`).  Reached code is every reached function, every class body
outside its methods, every module-level statement outside `__init__`, and
every reached method, taken to a fixed point.  Dunder methods, the methods
the span recorder wraps, and the method allowlist below are reached.  Two
methods of one name cannot be told apart, so one reached name reaches
both.  Fields go by the same rule: a field of a reached dataclass is read
when that reached code names it as an attribute, or it is on the field
allowlist below.  The unused-import check covers src/kslab and tests.
Every option of every subcommand must be read by cli.py: as `args.<dest>`,
as `getattr(args, "<dest>", ...)` or through an `_INT_FLOORS` entry, so a
flag that nothing reads fails as an unreached def does.  Standard library
only, besides the parser and the floors that cli.py defines.
"""

import argparse
import ast
import importlib.util
import re
from pathlib import Path

from kslab.cli import _INT_FLOORS, build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kslab"
TESTS = ROOT / "tests"
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"

# defs that no command reaches, kept on purpose
ALLOWED = {
    ("spectral", "coefficient_asymptotics"): "acceptance criterion 06 locates the pole from coefficient growth",
    ("cluster", "density_bound_check"): "acceptance criterion 09 checks the density bound with it",
    ("ksop", "CallableFamily"): "acceptance criterion 10 applies the operator to a callable through it",
    ("spectral", "riesz_projection"): "the dense reference for the closed-form Laurent data (criteria 02, 03)",
}

# methods that no command calls, kept on purpose
ALLOWED_METHODS = {
    ("oracles", "TonksModel", "density_series"): "acceptance criterion 08 compares the extrapolated series with it; 09 inverts it",
    ("oracles", "TonksModel", "pressure_series"): "test_oracles::test_series_closed_forms checks rho = z d(beta p)/dz on it, the identity virial inversion rests on",
    ("oracles", "TonksModel", "virial_radius"): "acceptance criterion 09 checks the inverted series' radius against it",
    ("potentials", "PairPotential", "ideal"): "one constructor per potential family; commands build from a config",
    ("potentials", "PairPotential", "step"): "one constructor per potential family; commands build from a config",
    ("potentials", "PairPotential", "custom"): "one constructor per potential family; commands build from a config",
}

# dataclass fields that no command reads, kept on purpose
ALLOWED_FIELDS = {
    **{("cluster", "BoundReport", f): "acceptance criterion 09 reads the density bound check's report"
       for f in ("ok", "monotone", "min_margin", "violations", "grid")},
    **{("spectral", "CoeffAsymptotics", f): "acceptance criterion 06 reads the coefficient fit"
       for f in ("growth_estimate", "fit_rate", "subexp_exponent")},
    **{("spectral", "RieszResult", f):
       "the contour route's dense matrix; test_spectral compares the closed form's with it"
       for f in ("P", "S")},
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _defs(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node for node in tree.body if isinstance(node, kinds)}


def _imports(tree):
    """Name -> (module, name) for every relative import in the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return bound


def _names(nodes):
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)}


def _attributes(nodes):
    return {n.attr for node in nodes for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _methods(cls):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name: node for node in cls.body if isinstance(node, kinds)}


class Graph:
    def __init__(self):
        self.trees = _modules()
        self.defs = {m: _defs(t) for m, t in self.trees.items()}
        self.imports = {m: _imports(t) for m, t in self.trees.items()}

    def resolve(self, module, name):
        """The (module, def) a name in module refers to, through re-exports."""
        seen = set()
        while (module, name) not in seen:
            seen.add((module, name))
            if name in self.defs[module]:
                return module, name
            if name not in self.imports[module]:
                return None
            module, name = self.imports[module][name]
        return None

    def refs(self, module, nodes):
        return {r for r in (self.resolve(module, n) for n in _names(nodes)) if r}

    def reached(self, roots):
        todo, seen = list(roots), set()
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            module, name = node
            todo.extend(self.refs(module, [self.defs[module][name]]) - seen)
        return seen


def _library_block():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _span_targets():
    """(module, def, method or None) for each name the span recorder wraps."""
    # loaded as test_bench_names.py loads it; the file is read, not changed
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr in ([(o, a) for _, o, a, _ in spans.TARGETS]
                        + [(o, a) for _, o, a in spans.COUNTED]):
        if isinstance(owner, str):
            yield owner.rsplit(".", 1)[1], attr, None
        else:
            yield owner.__module__.rsplit(".", 1)[1], owner.__name__, attr


def _top_level(graph, module):
    """The module's statements outside its defs."""
    return [s for s in graph.trees[module].body if s not in graph.defs[module].values()]


def _roots(graph):
    roots = {("cli", "main")}
    for module in graph.trees:
        if module != "__init__":
            roots |= graph.refs(module, _top_level(graph, module))
    library = ast.parse(_library_block())
    for node in ast.walk(library):
        if isinstance(node, ast.ImportFrom) and node.module == "kslab":
            roots |= {graph.resolve("__init__", a.name) for a in node.names}
    roots |= {graph.resolve(m, d) for m, d, _ in _span_targets()}
    roots |= set(ALLOWED)
    return roots - {None}


def test_every_def_is_reached():
    graph = Graph()
    missing = [f"{m}.{n}" for m, n in ALLOWED if n not in graph.defs.get(m, {})]
    assert not missing, f"allowlisted but gone: {missing}"
    reached = graph.reached(_roots(graph))
    unreached = sorted(
        f"{m}.{n} ({node.end_lineno - node.lineno + 1} lines)"
        for m, defs in graph.defs.items() for n, node in defs.items()
        if (m, n) not in reached)
    assert not unreached, "reached by no command: " + ", ".join(unreached)


def _reached_methods(graph):
    """(reached classes, their methods, the reached methods, the attribute
    names that reached code and README's library example use)."""
    reached = graph.reached(_roots(graph))
    classes = {(m, n): graph.defs[m][n] for m, n in reached
               if isinstance(graph.defs[m][n], ast.ClassDef)}
    methods = {(m, c, name): node for (m, c), cls in classes.items()
               for name, node in _methods(cls).items()}
    code = [graph.defs[m][n] for m, n in reached if (m, n) not in classes]
    code += [s for cls in classes.values() for s in cls.body if s not in _methods(cls).values()]
    code += [s for m in graph.trees if m != "__init__" for s in _top_level(graph, m)]
    code.append(ast.parse(_library_block()))
    named = _attributes(code)
    live = set(ALLOWED_METHODS) | {t for t in _span_targets() if t in methods}
    live |= {k for k in methods if k[2].startswith("__") and k[2].endswith("__")}
    while True:
        named |= _attributes(methods[k] for k in live)
        grown = live | {k for k in methods if k[2] in named}
        if grown == live:
            return classes, methods, live, named
        live = grown


def test_every_method_is_reached():
    _, methods, live, _ = _reached_methods(Graph())
    missing = [".".join(k) for k in ALLOWED_METHODS if k not in methods]
    assert not missing, f"allowlisted but gone: {missing}"
    unreached = sorted(f"{m}.{c}.{n} ({node.end_lineno - node.lineno + 1} lines)"
                       for (m, c, n), node in methods.items() if (m, c, n) not in live)
    assert not unreached, "methods no command calls: " + ", ".join(unreached)


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_field_is_read():
    classes, _, _, named = _reached_methods(Graph())
    fields = {(m, c, s.target.id) for (m, c), cls in classes.items() if _is_dataclass(cls)
              for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    missing = [".".join(k) for k in ALLOWED_FIELDS if k not in fields]
    assert not missing, f"allowlisted but gone: {missing}"
    unread = sorted(".".join(k) for k in fields - set(ALLOWED_FIELDS) if k[2] not in named)
    assert not unread, "fields nothing reads: " + ", ".join(unread)


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _names([tree])
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, f"imported but never used: {unused}"


def test_readme_library_example_runs():
    exec(compile(_library_block(), str(README), "exec"), {})


def _cli_reads():
    """The `args` attributes cli.py reads, the _INT_FLOORS names included."""
    tree = ast.parse((SRC / "cli.py").read_text())
    reads = {name for name, _ in _INT_FLOORS}
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "args":
            reads.add(n.attr)
        elif (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
              and getattr(n.args[0], "id", None) == "args" and isinstance(n.args[1], ast.Constant)):
            reads.add(n.args[1].value)
    return reads


def test_every_option_is_read():
    reads = _cli_reads()
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    unread = sorted(f"{name} {a.option_strings[0]}" for name, sub in commands.items()
                    for a in sub._actions
                    if a.option_strings and a.dest != "help" and a.dest not in reads)
    assert not unread, "options cli.py never reads: " + ", ".join(unread)
