"""No public API that only tests call.

Every public class, function or method defined in src/cxlsim, and every
public name assigned at module level or in a class body, must be
referenced somewhere else in src/cxlsim.  A module-level name counts as
referenced by a bare name or an attribute; a name defined in a class
body only by an attribute read (`x.free`), so a local variable that
shares a method's name does not count for the method.  A name kept for
a reason outside the package is on ALLOWED with that reason, and each
entry must be one that the check flags without it.
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
    body; a class body's names are qualified with the class name."""
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


def _references(trees):
    """(names referenced bare or as an attribute, attributes read)."""
    anywhere, attribute_reads = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            # A name assigned is not read: a class attribute's own
            # assignment does not count for it.
            if (isinstance(node, ast.Name)
                    and not isinstance(node.ctx, ast.Store)):
                anywhere.add(node.id)
            elif isinstance(node, ast.Attribute):
                anywhere.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    attribute_reads.add(node.attr)
    return anywhere, attribute_reads


def unreferenced_public_names(src: Path = SRC, allowed=ALLOWED):
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))]
    anywhere, attribute_reads = _references(trees)
    return sorted(qualified for tree in trees
                  for qualified, name in _definitions(tree)
                  if name not in (attribute_reads if "." in qualified
                                  else anywhere)
                  and qualified not in allowed)


def test_every_public_function_has_a_caller_in_src():
    assert unreferenced_public_names() == []


def test_every_allowed_name_is_flagged_without_its_entry():
    # An entry whose name src now references goes.
    assert sorted(set(ALLOWED) - set(unreferenced_public_names(
        allowed={}))) == []


def test_every_allowed_name_still_exists():
    defined = {qualified for path in SRC.glob("*.py")
               for qualified, _ in _definitions(
                   ast.parse(path.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= defined
