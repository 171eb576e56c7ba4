"""Every name the package exports has a caller in the package itself.

A one-object wrapper or a second path that only the tests call grows the
library without serving it, so each exported name must be used somewhere in
``src/`` outside its own definition, unless ``KEPT`` says why it is public
all the same.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedalg"

#: Exported names that nothing in the package calls, each with its reason.
KEPT = (
    ("phi", "the paper's F on one module; the benchmark tracer rebinds it"),
    ("psi", "the paper's G on one module; the benchmark tracer rebinds it"),
    ("hom_basis", "hom_bases on one pair; the benchmark tracer rebinds it"),
    ("projective_cover", "cover_maps on one module with P built; the benchmark tracer rebinds it"),
    ("syzygy", "syzygies on one module; the benchmark tracer rebinds it"),
    ("regular_module", "the constructor of AA, beside proj, inj and simple"),
    ("simple", "tops on one Ae_i, shifted: the constructor of S_i, beside proj and inj"),
    ("save", "writes an algebra file; the benchmark prepares its inputs with it"),
    ("load", "reads an algebra file, the library's counterpart of save; the benchmark tracer rebinds it"),
    ("width", "the well-gradedness oracle: Ae_i of full width c + 1"),
)


def _exported() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def _uses() -> dict[str, int]:
    """How often each name is called in the package, outside the definition
    of that name and outside ``__init__``; a name that no ``def`` or
    ``class`` defines, a constant, counts where it is read."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    counts: dict[str, int] = {}

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        names = []
        if isinstance(node, ast.Call):  # f(...), x.f(...) and F.of(...), which calls on F
            func = node.func
            while isinstance(func, ast.Attribute):
                names.append(func.attr)
                func = func.value
            names += [func.id] if isinstance(func, ast.Name) else []
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in defined:
            names.append(node.id)
        for name in set(names) - inside:
            counts[name] = counts.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in trees:
        visit(tree, frozenset())
    return counts


def test_every_exported_name_has_a_caller_in_the_package():
    uses = _uses()
    kept = dict(KEPT)
    unused = [name for name in _exported() if not uses.get(name) and name not in kept]
    assert unused == [], f"exported, but called nowhere in src/: {unused}"


def test_kept_names_are_exported_and_still_uncalled():
    # a KEPT entry that gains a caller, or stops being exported, is stale
    uses, exported = _uses(), set(_exported())
    for name, reason in KEPT:
        assert name in exported and reason, name
        assert not uses.get(name), f"{name} has a caller in src/ now; drop it from KEPT"
