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
    "evi": "209d5946136a56ffe51f386769d50895a7d79d0cfa7ac55019ff663f3149a36d",
    "qvi": "a28bbd140ceb4a5e08adc3c54b8e5fe23721595e5919e305f13726c635647549",
    "sgd-logistic": "f1f9b994216e4f9e5e9302f35d060364b86a246c9d36cff184cdefb2eb122117",
    "sgd-poisson": "df91c3561579bf390f424eab4d97cd6a7fcc4564d047cf937893f5827b6efa79",
    "lln": "e3c8a8f8d7b580fa0d237273d7e5f9b74d326ab0b202a32ce6e9d7ffce6027cb",
    "assumptions": "f7db2c7977d172d5a5bf01df76afe552393a79c63a0045b2aa691b8e14caf0ad",
    "assumptions-sgd": "b7abd870cc5d0c29f96609bf91bb642c9210e63462e4d9f9fe134b6a97212494",
}


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
