"""The README's code imports only names the package exports."""

import re
from pathlib import Path

import itrop

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_imports() -> list[str]:
    text = README.read_text(encoding="utf-8")
    names = []
    for block in re.findall(r"^from itrop import (\([^)]*\)|[^\n(]+)$", text, re.MULTILINE):
        names += [n.strip() for n in block.strip("()").replace("\n", " ").split(",")]
    return [n for n in names if n]


def test_readme_imports_are_exported():
    names = readme_imports()
    assert names  # the Library section imports from itrop
    assert [n for n in names if n not in itrop.__all__] == []
