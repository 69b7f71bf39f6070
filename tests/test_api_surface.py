"""Every module-level function and class of `finalg`, and every method of
its classes, has a caller in the package itself, or a stated reason to
exist without one.

A name counts as used when it occurs in `src/finalg` outside its own
definition: as a name, an attribute or an imported name.  Inside a function,
the names it binds itself (its arguments, assignments and nested
definitions) are its own locals, not uses, so a local can never stand in
for a caller of a module-level name of the same spelling.  Methods are
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
    # format readers paired with writers the CLI uses
    "load_algebra": "reads what `finalg build` writes with save_algebra",
    "Partition.from_obj": "reads the partitions `finalg build` writes with to_obj",
    # read outside the package
    "Partition.as_array": "the benchmark's relation evaluators read the block ids "
                          "(bench/workloads.py, bench/test_checks.py)",
}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(func):
    """The names a function binds in its own scope: its arguments, the
    targets it assigns and the functions and classes it defines."""
    a = func.args
    names = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
             if arg is not None}
    declared = set()
    stack = list(func.body) if isinstance(func.body, list) else [func.body]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
        if isinstance(n, (*_SCOPES, ast.ClassDef)):
            if not isinstance(n, ast.Lambda):
                names.add(n.name)
            continue  # a nested scope binds its own names
        stack.extend(ast.iter_child_nodes(n))
    return names - declared


def _names(node, bound=frozenset()):
    if isinstance(node, _SCOPES):
        bound = bound | _bound(node)
    if isinstance(node, ast.Name):
        if node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _names(child, bound)


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
