"""The README's Library example imports only exported names, and runs; its
config schema names exactly the config's keys; no itrop module reaches into
another's private names."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np

import itrop
from itrop.experiments import CheckSpec, ExperimentConfig, MdpSpec, RegressionSpec

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(itrop.__file__).resolve().parent


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


def readme_schema() -> dict:
    section = README.read_text(encoding="utf-8").split("\n### Config schema\n", 1)[1]
    block = re.search(r"^```json\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)
    return json.loads(re.sub(r"//.*", "", block))


def table_keys(section) -> set[str]:
    """The JSON keys that a config section's field table accepts."""
    return {f.metadata.get("key", f.name) for f in dataclasses.fields(section) if f.metadata}


def test_readme_schema_names_exactly_the_config_keys_and_the_nested_defaults():
    schema = readme_schema()
    assert set(schema) == table_keys(ExperimentConfig)
    minimal = {"master_seed": 0, "sample_sizes": [1]}
    evi = ExperimentConfig.from_dict({**minimal, "experiment": "evi"})
    sgd = ExperimentConfig.from_dict({**minimal, "experiment": "sgd-logistic"})
    for key, section, defaults in (("mdp", MdpSpec, evi.mdp),
                                   ("regression", RegressionSpec, sgd.regression),
                                   ("check", CheckSpec, evi.check)):
        assert set(schema[key]) == table_keys(section), key
        shown = {k: v for k, v in schema[key].items() if k != "path"}  # path has no default
        assert shown == defaults.to_dict(), key


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_uses(source: str) -> list[str]:
    """The `_`-prefixed names of itrop modules that an itrop module's source
    imports, or reads as module._name."""
    tree = ast.parse(source)
    modules = set()  # local names bound to itrop modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("itrop")):
            package = node.module in (None, "itrop")  # from . import core
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                if private(alias.name):
                    found.append(alias.name if package
                                 else f"{node.module.split('.')[-1]}.{alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.startswith("itrop."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    for path in sorted(PACKAGE.glob("*.py")):
        assert foreign_private_uses(path.read_text(encoding="utf-8")) == [], path.name


def test_the_private_name_check_sees_each_form_of_reach():
    reaching = {"from .core import _usable_cpus": ["core._usable_cpus"],
                "from itrop.core import RngStream, _check_runs": ["core._check_runs"],
                "from . import core\ncore._drawn_chunks(1)": ["core._drawn_chunks"],
                "import itrop.core as c\nc.CHUNK_BYTES, c._check_start": ["c._check_start"],
                "from . import _private": ["_private"]}
    for source, found in reaching.items():
        assert foreign_private_uses(source) == found, source
    for source in ("from . import __version__", "from .core import CHUNK_BYTES",
                   "model._sampler", "self._start", "from numpy import _globals"):
        assert foreign_private_uses(source) == [], source
