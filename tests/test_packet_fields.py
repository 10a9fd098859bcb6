"""No packet field that only tests read.

Every field that MemPacket and CxlMemPacket declare must be read as an
attribute (`x.field` in a load) somewhere in src/cxlsim.  A field that
is only written, or read only by tests, is state the simulator carries
for nothing on every request.
"""

import ast
import dataclasses
from pathlib import Path

import cxlsim
from cxlsim.bridge import CxlMemPacket
from cxlsim.host import MemPacket

SRC = Path(cxlsim.__file__).parent


def packet_fields():
    return (set(MemPacket.__slots__)
            | {field.name for field in dataclasses.fields(CxlMemPacket)})


def attributes_read(src: Path = SRC):
    return {node.attr for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_packet_field_is_read_in_src():
    assert sorted(packet_fields() - attributes_read()) == []
