"""No state that only tests read.

Every field that MemPacket and CxlMemPacket declare must be read as an
attribute (`x.field` in a load) somewhere in src/cxlsim.  A field that
is only written, or read only by tests, is state the simulator carries
for nothing on every request.

The same holds for every attribute a class in src/cxlsim stores
(`self.x = ...`, `self.x += ...`) and every field a class declares with
an annotation: each is read as an attribute in src/cxlsim, or it is a
counter that a `stats.counters` mapping names (the report reads it), or
ALLOWED names the reader outside src/ that it is kept for.
"""

import ast
import dataclasses
from pathlib import Path

import cxlsim
from cxlsim.bridge import CxlMemPacket
from cxlsim.host import MemPacket

SRC = Path(cxlsim.__file__).parent

# Class.attribute -> its reader outside src/cxlsim.
ALLOWED = {
    "QueuedDdr.turnarounds": "perfbench's media.turnarounds",
    "MemBus.targets": "perfbench/run.py's _media, tests/test_host.py and "
                      "tests/test_config_cli.py",
    "BestOffsetPrefetcher.phases_completed":
        "tests/test_acceptance.py and tests/test_ssd.py",
}


def parsed(src: Path = SRC):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))]


def packet_fields():
    return (set(MemPacket.__slots__)
            | {field.name for field in dataclasses.fields(CxlMemPacket)})


def attributes_read(trees):
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def counted(trees):
    """Attribute names that a `stats.counters(obj, {stat: name})` call
    registers as counters."""
    return {value.value for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "counters"
            for arg in node.args if isinstance(arg, ast.Dict)
            for value in arg.values if isinstance(value, ast.Constant)}


def stored(trees):
    """Class.attribute for each `self.attribute` store in a class and each
    annotated field in a class body."""
    names = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names |= {f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)}
            names |= {f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"}
    return names


def unread(trees):
    read = attributes_read(trees) | counted(trees)
    return {name for name in stored(trees)
            if name.rpartition(".")[2] not in read}


def test_every_packet_field_is_read_in_src():
    assert sorted(packet_fields() - attributes_read(parsed())) == []


def test_every_stored_attribute_is_read_in_src_or_allowed():
    flagged = unread(parsed())
    assert sorted(flagged - set(ALLOWED)) == []
    # An entry whose attribute src now reads, or no longer stores, goes.
    assert sorted(set(ALLOWED) - flagged) == []
