"""Every module-level function and class of `finalg`, and every method of
its classes, has a caller in the package itself, or a stated reason to
exist without one.

A name counts as used when it occurs in `src/finalg` outside its own
definition: as a name, an attribute or an imported name.  Methods are
matched by name alone, and dunder methods, which Python calls, are left
out.  Library code that only tests call is a second implementation to keep
in step; a test oracle belongs in `tests/`.  Private helpers are held to the
same rule, so a helper whose last caller is deleted goes with it.
"""

import ast
import pathlib
from collections import Counter

import finalg

ALLOWED = {
    # the paper's constructions, which only the acceptance gate calls
    "nu_family_generators": "the generators of the nu-family variety",
    "dissent_mixed_composition": "the composition of two lone-dissent operations",
    "idempotence_equation": "the idempotence equation of a candidate term",
    # format readers paired with writers the CLI uses
    "load_algebra": "reads what `finalg build` writes with save_algebra",
    "Partition.from_obj": "reads the partitions `finalg build` writes with to_obj",
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _definitions(tree):
    """(name, node) of each module-level function and class, and
    ("Class.method", node) of each method but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _unused_names():
    package = pathlib.Path(finalg.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    uses = Counter(name for tree in trees for name in _names(tree))
    return {qualified for tree in trees for qualified, node in _definitions(tree)
            if uses[node.name] == Counter(_names(node))[node.name]}  # only inside itself


def _private(qualified):
    return any(part.startswith("_") for part in qualified.split("."))


def test_every_public_name_has_a_caller_in_the_package():
    unused = {name for name in _unused_names() if not _private(name)}
    assert unused - ALLOWED.keys() == set(), "public names only tests call"
    assert ALLOWED.keys() - unused == set(), "allow-list entries now called or gone"


def test_every_private_name_has_a_caller_in_the_package():
    unused = {name for name in _unused_names() if _private(name)}
    assert unused == set(), "private names no code in the package calls"
