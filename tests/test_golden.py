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
    "evi": "54c62427912cc4bc8deb2f4fed1b8c763ad8a50f0b9d9b5e924879bf112f1bd4",
    "qvi": "57be061da529ff0a1d297984086e7fa0caa94e203179780828ad73cd94a299ca",
    "sgd-logistic": "09bbe64e64919f7a975fb53e9b5c95e67d0fc986274f0a01e715a0aa4c1d3b39",
    "sgd-poisson": "6569e860493324d44c8b40d510d1578b554f40f84a573eba5dd7b35ea85a55e7",
    "lln": "299fd08885cb46c388890399c4f32c806dacdc031430cb0f764a68961901b22b",
    "lln-sgd": "984befa731f1ace16a0831d0df4aa7f22510b9ef3c886ea08ed674dd6e99ed47",
    "assumptions": "8c4b7256d69285855c69949e4f0ce0ce7a689f88a7cbe9a9735789be4aa1aeef",
    "assumptions-sgd": "75d65251f1bd5d1ae7ac50a81f68cec57393200661f1e4010f6ca24f7d3b3af3",
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
