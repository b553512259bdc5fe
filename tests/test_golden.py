"""Golden output digests: one small config per experiment kind.

Reruns are compared against each other elsewhere; these pin the bytes
across code versions, so a silent change to a sampler, the stream keying or
the output format fails here.  When output bytes change on purpose, bump
itrop.__version__ (it is recorded in meta.json as code_version) and update
the digests below in the same change.
"""

import hashlib
import json
from pathlib import Path

import pytest

import itrop
from itrop.cli import main
from itrop.experiments import ExperimentConfig, run_experiment

MDP = {"num_states": 6, "num_actions": 3, "seed": 2, "discount": 0.8}
REGRESSION = {"num_samples": 60, "dim": 4, "seed": 1}

CONFIGS = {
    "evi": {"experiment": "evi", "master_seed": 42, "runs": 4, "horizon": 30,
            "sample_sizes": [1, 5, 200], "mdp": MDP},
    "qvi": {"experiment": "qvi", "master_seed": 43, "runs": 3, "horizon": 20,
            "sample_sizes": [2, 200], "mdp": MDP},
    "sgd-logistic": {"experiment": "sgd-logistic", "master_seed": 7, "runs": 3,
                     "horizon": 25, "sample_sizes": [4, 16], "regression": REGRESSION},
    "sgd-poisson": {"experiment": "sgd-poisson", "master_seed": 8, "runs": 3,
                    "horizon": 25, "sample_sizes": [4, 16],
                    "regression": {**REGRESSION, "sampling": "without_replacement"}},
    "lln": {"experiment": "lln", "family": "evi", "master_seed": 3, "runs": 3,
            "horizon": 40, "sample_sizes": [2, 200], "mdp": MDP},
    # the l2 lln path (a row-wise norm of each step's block)
    "lln-sgd": {"experiment": "lln", "family": "sgd-logistic", "master_seed": 13,
                "runs": 3, "horizon": 40, "sample_sizes": [4, 16],
                "regression": REGRESSION},
    "assumptions": {"experiment": "assumptions", "family": "evi", "master_seed": 11,
                    "horizon": 40, "sample_sizes": [2, 8, 200], "mdp": MDP,
                    "check": {"trials": 100, "pair_count": 4, "grid_size": 2}},
    # the l2 checker path, and an A3 report with evidence (SGD is not monotone)
    "assumptions-sgd": {"experiment": "assumptions", "family": "sgd-logistic",
                        "master_seed": 12, "horizon": 40, "sample_sizes": [4, 16],
                        "regression": REGRESSION,
                        "check": {"trials": 100, "pair_count": 4, "grid_size": 2}},
}

EXIT_CODES = {"assumptions-sgd": 3}  # every other kind exits 0

GOLDEN = {
    "evi": "78c1d89c74995e2b20c1bb3389cc13589970f8ad48137f5f86f2de0423fa84e9",
    "qvi": "e203e99e3aa20a40f4bbd8120db9ad6d2b5cd44ff3a79f1b0407740aabb842f9",
    "sgd-logistic": "229584a2a80d0b248c0584f6bf18a35d0a68da7e7764c17f24b7987b9f49a426",
    "sgd-poisson": "a808a4bded83dc380d64d7c1f8c76f7b2ee4bb11628fff493b534f7f67c982b0",
    "lln": "737d670b8c9c90a431b680d61127cf4f8944163fa7cf1e5de25d6a2accb6720c",
    "lln-sgd": "138e6721ed48ab4e97f497c3a1539d401d5a713186e65f57cf1ec128cdf19ca3",
    "assumptions": "ba59fb1620ef8e56a90429a15d683847944007731c1da95a5990bcbcebb99fe3",
    "assumptions-sgd": "57acebed249460a5cb588cb8ee9aaae9a439e426ec7b4d6bfa62578957e3fa6a",
}

# SHA-256 of the model file `itrop gen mdp --num-states 3 --num-actions 2 --seed 5` writes
GOLDEN_MODEL = "0a07ce18c0d4185d05dbf50a3a519e00daa5c8e50d96b6a08c7cafce122bc2fb"


def output_digest(out_dir) -> str:
    """SHA-256 over each output file's name and bytes; meta.json enters without
    wall_time_seconds and output_dir, the only fields allowed to vary."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "meta.json":
            meta = json.loads(data)
            meta.pop("wall_time_seconds")
            meta["config"].pop("output_dir")
            data = json.dumps(meta, indent=2, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def test_code_version_matches_package_metadata():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert f'version = "{itrop.__version__}"' in pyproject.read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_golden_output_digest(tmp_path, kind):
    out_dir = tmp_path / kind
    result = run_experiment(ExperimentConfig.from_dict(
        {**CONFIGS[kind], "output_dir": str(out_dir)}))
    assert result.exit_code == EXIT_CODES.get(kind, 0)
    assert output_digest(out_dir) == GOLDEN[kind]


def test_golden_model_digest(tmp_path):
    out = tmp_path / "model.json"
    assert main(["gen", "mdp", "--num-states", "3", "--num-actions", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_MODEL
