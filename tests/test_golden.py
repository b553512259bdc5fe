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
    "evi": "12b75d1fb3070d5a2e593356eb733717144776e79f4d5704107e9b09d5fa52bc",
    "qvi": "3403258e5fd9a8ab5ae0e6dda194b1096c8a4193d00e0e349814d71f4dfdcf60",
    "sgd-logistic": "6331a0336183ce03cdcbe0a3961b3f2dbd94c676cd7b84f3d8620b596b7aada7",
    "sgd-poisson": "377f4caea5528de3cdcf52d51a2d3626e88bfd6322ca5ca3026c6e12ce2fdc51",
    "lln": "9b6e5e5010bab6a73c6ea61081511caa0ba6d46114f45cbad0392c008e1e1f81",
    "lln-sgd": "9d91a5b08f511b37f6aa3f50ce2c8d785f569b81931c4bf8af44ff8cc861e5fa",
    "assumptions": "16f286db24b1bcd8a6faa786e86493e62ad977369bf44e6482cd1431431a55f7",
    "assumptions-sgd": "1519fc41ad67bd9e4384738e577469e74da22c4bc4b308ade660782219a1f0dd",
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
