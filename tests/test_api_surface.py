"""Every public name of the package has a caller outside the tests.

An AST scan of src/toruslab lists the public top-level functions and classes
and the public methods of every class.  Each must be named (as a name or an
attribute) somewhere in src/ outside its own definition, or in perfbench/, or
be registered by a decorator (the click commands).  The exceptions are the
references that tests compare against.

A second scan holds every default of a public, undecorated, module-level
function to a caller: some call in src/, perfbench/, scripts/ or tests/ must
pass that parameter, positionally, by keyword or through a * / ** splat.  A
default that no call overrides is a constant.

A third scan keeps the oracle off the machinery it checks: toruslab/oracle.py
imports from the package only geometry, errors and bls.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]

# test references: the jump locus in closed form, and the Dolbeault class
# match of a representative
TEST_REFERENCES = {"is_jump_point", "class_match_residual"}


def _names(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _public_definitions(tree):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _scan():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "toruslab").glob("*.py"))}
    in_src = sum((_names(tree) for tree in trees.values()), Counter())
    in_bench = sum((_names(ast.parse(path.read_text()))
                    for path in (ROOT / "perfbench").glob("*.py")), Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            if isinstance(node, ast.FunctionDef) and node.decorator_list and "." not in qualname:
                continue
            name = node.name
            if in_src[name] - _names(node)[name] > 0 or in_bench[name] > 0:
                continue
            uncalled.add((module, qualname))
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = _scan()
    assert {qualname for _, qualname in uncalled} == TEST_REFERENCES, sorted(uncalled)


def _defaults(fn):
    """(position, name) of each parameter of fn with a default; keyword-only
    parameters have position None."""
    a = fn.args
    pos = a.posonlyargs + a.args
    out = [(i, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _overrides(call, position, name) -> bool:
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(x, ast.Starred) for x in call.args))


def test_every_default_is_overridden_by_some_call():
    calls = {}
    for top in ("src", "perfbench", "scripts", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    calls.setdefault(name, []).append(node)
    constant = []
    for path in sorted((ROOT / "src" / "toruslab").glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                    or fn.decorator_list):
                continue
            constant += [f"{path.stem}.{fn.name}({name})" for position, name in _defaults(fn)
                         if not any(_overrides(c, position, name) for c in calls.get(fn.name, []))]
    assert constant == []


def _package_imports(tree) -> set:
    """Short names of the toruslab modules that tree imports (the package
    itself as "toruslab" when a module imports it bare)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "toruslab" + (f".{node.module}" if node.module else "") if node.level \
                else node.module
            names = [f"{base}.{a.name}" for a in node.names] if base == "toruslab" else [base]
        else:
            continue
        out |= {name.split(".")[1] if "." in name else name for name in names
                if name.split(".")[0] == "toruslab"}
    return out


def test_the_oracle_imports_none_of_the_machinery_it_checks():
    tree = ast.parse((ROOT / "src" / "toruslab" / "oracle.py").read_text())
    assert _package_imports(tree) <= {"geometry", "errors", "bls"}
    # the scan sees every spelling of a package import
    for source, want in (("from .forms import Grid", {"forms"}),
                         ("from . import grid", {"grid"}),
                         ("from toruslab.hodge import build_hodge", {"hodge"}),
                         ("from toruslab import forms", {"forms"}),
                         ("import toruslab.forms as f", {"forms"}),
                         ("import toruslab", {"toruslab"})):
        assert _package_imports(ast.parse(source)) == want
