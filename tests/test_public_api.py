"""No public API that only tests call.

Every public class, function or method defined in src/cxlsim, and every
public name assigned at module level or in a class body, must be
referenced by name somewhere else in src/cxlsim, as a call, an attribute
or a bare name.  A name kept for a reason outside the package is on
ALLOWED with that reason.
"""

import ast
from pathlib import Path

import cxlsim

SRC = Path(cxlsim.__file__).parent

ALLOWED = {
    "Histogram.percentile": "reports p50/p99 once histograms report tails",
    "HdmAllocator.free": "the allocator property-suite criterion frees "
                         "through it",
    "HdmAllocator.check_invariants": "that suite's oracle",
    # perfbench/tracer.py resolves every class its ENTRY_POINTS names and
    # fails on a missing one; these go when that table goes.
    "Counter": "named by perfbench/tracer.py's ENTRY_POINTS",
    "Gauge": "named by perfbench/tracer.py's ENTRY_POINTS",
    "Mean": "named by perfbench/tracer.py's ENTRY_POINTS",
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public class, function and
    method, and of each public name assigned at module level or in a class
    body."""
    for node in tree.body:
        owners = [("", [node])]
        if isinstance(node, ast.ClassDef):
            owners.append((node.name + ".", node.body))
        for prefix, body in owners:
            for item in body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [target.id for target in item.targets
                             if isinstance(target, ast.Name)]
                else:
                    names = []
                for name in names:
                    if not name.startswith("_"):
                        yield prefix + name, name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        # A name assigned is not read: a class attribute's own assignment
        # does not count for it.
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced_public_names(src: Path = SRC):
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    referenced = {name for tree in trees.values()
                  for name in _references(tree)}
    return sorted(qualified for tree in trees.values()
                  for qualified, name in _definitions(tree)
                  if name not in referenced and qualified not in ALLOWED)


def test_every_public_function_has_a_caller_in_src():
    assert unreferenced_public_names() == []


def test_every_allowed_name_still_exists():
    defined = {qualified for path in SRC.glob("*.py")
               for qualified, _ in _definitions(
                   ast.parse(path.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= defined
