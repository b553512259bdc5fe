"""The README's Library example imports only exported names, and runs."""

import re
from pathlib import Path

import numpy as np

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


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)
    scope = {}
    exec(compile(code, f"{README.name} (Library)", "exec"), scope)
    runs = scope["distance"].shape[1]
    assert scope["distance"].shape == scope["gap"].shape == (len(scope["exact_traj"]), runs)
    assert scope["dropped"] == {} and scope["summary"].count == runs
    assert scope["last_step"] <= 1e-10 * (1 - 0.9) / 0.9
    # run 3 moved alone is column 3 of the batch
    alone = itrop.row_norm(scope["traj"] - scope["exact_traj"], "sup")
    assert np.array_equal(scope["distance"][:, 3], alone)
    assert scope["report"].time_averages.shape == (runs,)
