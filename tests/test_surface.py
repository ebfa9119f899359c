"""The public surface is what the README documents: every name in
`dqpskber.__all__` exists on the package and is named in README.md."""

import re
from pathlib import Path

import dqpskber

README = Path(__file__).resolve().parent.parent / "README.md"
# a span written in the README names each of its members
SPANS = {"ber1..ber7": [f"ber{k}" for k in range(1, 8)], "omega5..omega7": [f"omega{k}" for k in range(5, 8)]}


def test_every_exported_name_is_documented():
    readme = README.read_text()
    named = set(re.findall(r"\w+", readme))
    named.update(*(members for span, members in SPANS.items() if span in readme))
    assert [name for name in dqpskber.__all__ if not hasattr(dqpskber, name)] == []
    assert [name for name in dqpskber.__all__ if name not in named] == []
