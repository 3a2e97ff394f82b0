"""The library holds only what a command, an acceptance criterion or the benchmark reads.

Every public top-level function or class of ``src/grading_lab``, and every
public method and dataclass field of such a class, must be read somewhere
other than its own definition: in the package itself, in ``perfbench/*.py`` (the tracer's
``TARGETS`` strings included) or in ``tests/test_acceptance.py``.  A read
is an AST name, attribute, imported name or short string constant, each
dotted part of a string counted on its own; docstrings are not reads.  An
attribute of a module bound by a plain ``import`` statement (``np.vdot``,
``scipy.linalg.eigh``) is not a read, since no such module is the package.  A
dataclass field is read only by an attribute or a string, never by a bare
name, since a local variable of the same name reads nothing of the class.  A
name that only unit tests or docstrings mention fails the check: it is
deleted, or its test computes the value itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grading_lab"
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]

# ROADMAP item 1 names refined_gauge_unitary as the oracle that the block
# containment check is to be compared with; until then only tests read it.
# ClusteringReport.envelope and .initial are bound to the benchmark's
# correlate_d3 workload, which returns the report, until that item decides
# whether the workload stays
EXEMPT = {"refined_gauge_unitary", "envelope", "initial"}

SHORT = 80  # longest string constant read as a reference


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants of the module, its classes and its functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _module_root(node: ast.Attribute, modules: set[str]) -> bool:
    """Whether the attribute chain ends in a name that a plain ``import`` statement bound."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def _references(source: str) -> list[tuple[str, int, bool]]:
    """(name, line, bare) of every name, attribute, imported name and short string part in a file's source; bare marks a name."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            if not _module_root(node, modules):
                out.append((node.attr, node.lineno, False))
        elif isinstance(node, ast.alias):
            out += [(part, node.lineno, False) for part in node.name.split(".")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            if len(node.value) <= SHORT:
                out += [(part, node.lineno, False) for part in node.value.split(".") if part.isidentifier()]
    return out


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(dec, ast.Name) and dec.id == "dataclass")
        or (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "dataclass")
        for dec in node.decorator_list
    )


def _definitions() -> list[tuple[Path, str, int, int, bool]]:
    """(module file, qualified name, first line, last line, is a field) of every public top-level def, class, method and dataclass field."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out.append((path, node.name, node.lineno, node.end_lineno, False))
                if isinstance(node, ast.ClassDef):
                    out += [
                        (path, f"{node.name}.{item.name}", item.lineno, item.end_lineno, False)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and _public(item.name)
                    ]
                if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    out += [
                        (path, f"{node.name}.{item.target.id}", item.lineno, item.end_lineno, True)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _public(item.target.id)
                    ]
    return out


def test_every_public_name_has_a_reader():
    refs = {path: _references(path.read_text(encoding="utf-8")) for path in READERS}
    unread = []
    for path, qualname, first, last, field in _definitions():
        name = qualname.rsplit(".", 1)[-1]
        if name in EXEMPT:
            continue
        read = any(
            ref == name and not (where == path and first <= line <= last) and not (field and bare)
            for where, found in refs.items()
            for ref, line, bare in found
        )
        if not read:
            unread.append(f"{path.stem}.{qualname}")
    assert not unread, f"read only by unit tests or docstrings: {', '.join(unread)}"


def test_exemptions_are_defined():
    defined = {qualname.rsplit(".", 1)[-1] for _, qualname, _, _, _ in _definitions()}
    assert EXEMPT <= defined


def test_module_attributes_are_not_reads():
    # np.vdot names no package method, while x.vdot may; a name imported from
    # a module by "from" is the package's own and is read where it is used
    source = "import numpy as np\nimport scipy.linalg\nfrom grading_lab import dense\nnp.vdot(a, b)\nscipy.linalg.eigh(a)\nx.vdot(b)\ndense.realize(a)\n"
    found = {name for name, _, _ in _references(source)}
    assert {"vdot", "realize", "np", "scipy", "linalg"} <= found
    assert "eigh" not in found and [name for name, _, _ in _references(source)].count("vdot") == 1
