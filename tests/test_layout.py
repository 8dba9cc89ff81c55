"""The package holds only what it runs: every top-level function, class and
assignment in src/fairgraph, and every method and property of its classes,
is used by package code outside its own definition. Test oracles and
checkers live under tests/ (see oracles.py)."""

import argparse
import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

from fairgraph.cli import build_parser

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairgraph"

# name (Class.member for a method or property) -> the code outside
# src/fairgraph that calls it; keep an entry only while such a caller exists
ALLOWLIST = {
    "Graph.edges": "perfbench/worker.py main, the dataset round-trip check",
    "CounterfactualIndex.e_ids": "perfbench/tracing.py _after_select",
    "CounterfactualIndex.c_ids": "perfbench/tracing.py _after_select",
}


def _definitions(tree):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _members(tree):
    """(Class.name, name, node) for each method and property of the
    top-level classes, dunders left out; a property is a decorated method or
    a class attribute bound to property(...), so enum members and dataclass
    fields are not members here."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Name) \
                    and node.value.func.id == "property":
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{cls.name}.{name}", name, node


def _attributes(node):
    """Every attribute taken under node, with multiplicity."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _uses(node):
    """Every name read and attribute taken under node, with multiplicity."""
    names = _attributes(node)
    names.update(n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return names


def test_every_top_level_name_is_used_by_the_package():
    """Top-level names count any read; methods and properties count only
    attribute accesses (`x.name`), since that is how they are reached."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{node.lineno} {name}"
              for module, tree in trees.items()
              for name, node in _definitions(tree)
              if everywhere[name] == _uses(node)[name] and name not in ALLOWLIST]
    attributes = sum((_attributes(tree) for tree in trees.values()), Counter())
    unused += [f"{module}:{node.lineno} {qualified}"
               for module, tree in trees.items()
               for qualified, name, node in _members(tree)
               if attributes[name] == _attributes(node)[name]
               and qualified not in ALLOWLIST]
    assert not unused, f"defined in src/fairgraph but used only outside it: {unused}"


# Function(parameter) -> the code outside src/fairgraph that passes it, for
# a parameter with a default that no call in the package passes
DEFAULT_ALLOWLIST = {
    "main(argv)": "the `fairgraph` console script calls main() bare; tests pass argv",
}


def _functions(tree):
    """(qualified name, the name calls reach it by, how many leading
    parameters a call binds implicitly, node) for every function and method
    under tree; a class's __init__ is reached by the class name."""
    def walk(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                bound = int(cls is not None and "staticmethod" not in decorators)
                called_as = cls if cls and node.name == "__init__" else node.name
                yield (f"{cls}.{node.name}" if cls else node.name), called_as, bound, node
                yield from walk(node.body, None)
    yield from walk(tree.body, None)


def _defaulted(node, bound):
    """(parameter, its positional index after the implicitly bound ones, or
    None if it is keyword-only) for each parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            start=len(positional) - len(args.defaults)):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, index):
    """Whether the call passes the parameter `name` at positional `index`;
    a *args or **kwargs splat passes everything it could."""
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_by_the_package():
    """A default that no call overrides is a constant dressed as a knob:
    every parameter with a default is passed by some call in src/fairgraph
    (by keyword or by position), or its outside caller is on the allowlist.
    Dataclass fields are not parameters here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                func = n.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(n)
    idle = [f"{module}:{node.lineno} {qualified}({param})"
            for module, tree in trees.items()
            for qualified, called_as, bound, node in _functions(tree)
            for param, index in _defaulted(node, bound)
            if not any(_passes(call, param, index) for call in calls.get(called_as, ()))
            and f"{qualified}({param})" not in DEFAULT_ALLOWLIST]
    assert not idle, f"parameters whose default no package call overrides: {idle}"


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in errors.body if isinstance(node, ast.ClassDef)}
    covered = set()
    for name in raised & set(bases):
        while name in bases and name not in covered:
            covered.add(name)
            name = bases[name][0] if bases[name] else None
    idle = sorted(set(bases) - covered)
    assert not idle, f"error classes that nothing in src/fairgraph raises: {idle}"


# NumPy calls that allocate an array; bound at module level, the array is
# one buffer shared by every thread that runs the module's kernels
ARRAY_CONSTRUCTORS = {"empty", "zeros", "ones", "full", "array"}


def _array_constructions(node):
    """The NumPy array constructors called anywhere under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and isinstance(n.func.value, ast.Name) \
                and n.func.value.id in ("np", "numpy") \
                and n.func.attr in ARRAY_CONSTRUCTORS:
            yield f"{n.func.value.id}.{n.func.attr}"


def test_no_module_level_arrays():
    """Kernels allocate their scratch per call: the worker pool runs them on
    several threads at once, so a module-level buffer would be written by
    two calls together."""
    shared = [f"{path.name}:{node.lineno} {call}"
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for call in _array_constructions(node)]
    assert not shared, f"module-level NumPy arrays in src/fairgraph: {shared}"


def _json_parsers(node):
    """Every json.load / json.loads named under node, and every import from
    the json module."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in ("load", "loads") \
                and isinstance(n.value, ast.Name) and n.value.id == "json":
            yield n
        elif isinstance(n, ast.ImportFrom) and n.module == "json":
            yield n


def test_only_read_json_parses_json():
    """Every JSON input goes through data.read_json, so each one fails with
    the same typed error whatever is wrong with the file."""
    inside, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = [node for node in tree.body if path.name == "data.py"
                  and isinstance(node, ast.FunctionDef) and node.name == "read_json"]
        allowed = {id(n) for node in reader for n in _json_parsers(node)}
        inside += allowed
        outside += [f"{path.name}:{n.lineno}" for n in _json_parsers(tree)
                    if id(n) not in allowed]
    assert inside, "data.read_json no longer parses JSON"
    assert not outside, f"JSON parsed outside data.read_json: {outside}"


# the one place each phase-1 step may be called from, as (module, top-level
# definition); "*" is any definition of the module
PHASE_ONE_CALLERS = {
    "pretrain": {("pipeline.py", "phase_one")},
    # phase_one's edit, and `fairgraph edit`'s under the ground truth
    "run_phase1": {("pipeline.py", "phase_one"), ("cli.py", "cmd_edit")},
    "fair_edge_remove": {("pipeline.py", "run_phase1"), ("verify.py", "*")},
}


def _calls(tree, names):
    """(name, top-level definition, line) of every call under tree to a
    function or method named in `names`."""
    for node in tree.body:
        owner = getattr(node, "name", None)
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                func = n.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name in names:
                    yield name, owner, n.lineno


def test_phase_one_is_built_in_one_place():
    """Pre-training and the edit under its pseudo-labels are put together by
    pipeline.phase_one alone, so `train`, `grid` and `pretrain` cannot drift
    apart; `edit` makes its edit through run_phase1, and only run_phase1 and
    the verify suites call fair_edge_remove."""
    found, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, owner, line in _calls(tree, PHASE_ONE_CALLERS):
            allowed = PHASE_ONE_CALLERS[name]
            if (path.name, owner) in allowed or (path.name, "*") in allowed:
                found.add(name)
            else:
                stray.append(f"{path.name}:{line} {owner} calls {name}")
    assert found == set(PHASE_ONE_CALLERS), \
        f"no longer called where expected: {sorted(set(PHASE_ONE_CALLERS) - found)}"
    assert not stray, f"phase-1 steps called outside their one place: {stray}"


def _scipy_imports(tree):
    """(line, module) for every scipy module an import under tree names."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names = [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module == "scipy":
            names = [f"scipy.{alias.name}" for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            names = [n.module]
        else:
            continue
        yield from ((n.lineno, name) for name in names
                    if name == "scipy" or name.startswith("scipy."))


def test_scipy_is_imported_only_for_sparse():
    """The package loads numpy and scipy.sparse and no other scipy
    subpackage: scipy.stats alone loads about ten of them and doubles the
    memory and the time of `import fairgraph.cli`."""
    imports = [(path.name, line, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for line, name in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert imports, "src/fairgraph no longer imports scipy.sparse"
    outside = [f"{module}:{line} {name}" for module, line, name in imports
               if name.split(".")[:2] != ["scipy", "sparse"]]
    assert not outside, f"scipy imports other than scipy.sparse: {outside}"


def test_importing_the_cli_loads_no_other_public_scipy_subpackage():
    """The same in a fresh interpreter, which also sees what the imported
    modules pull in; private helpers such as scipy._lib are allowed."""
    listing = ("import sys, fairgraph.cli; print(' '.join(sorted({m.split('.')[1] "
               "for m in sys.modules if m.startswith('scipy.') "
               "and hasattr(sys.modules[m], '__path__')})))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", listing], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    public = sorted(name for name in loaded if not name.startswith("_"))
    assert public == ["sparse"], f"import fairgraph.cli loads scipy subpackages {public}"


def test_every_cli_flag_is_in_the_readme():
    """Each `--flag` of every command (bar --help and --version) is
    documented in README.md, so a new or renamed flag updates the docs."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {flag for p in (parser, *commands.values()) for action in p._actions
             for flag in action.option_strings if flag.startswith("--")}
    missing = sorted(flag for flag in flags - {"--help", "--version"}
                     if not re.search(re.escape(flag) + r"(?![\w-])", readme))
    assert not missing, f"CLI flags missing from README.md: {missing}"
