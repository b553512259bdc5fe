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
    "evi": "7d1c1c106c9f9e83fed820f0d2599cb18ebc98a9a9469dc65e334f33a24a5790",
    "qvi": "bc7e0857c5f4e39d1fb0ad46513c9d1b4cc34371043f2edc598a31a45b835742",
    "sgd-logistic": "cab154776f800e72dd139ac8d19f2d160d14e18bc251578e62107d9d689e0963",
    "sgd-poisson": "7c640340ea525e4121855df1479a988d329d79f35cc9639d2b5757465eccd616",
    "lln": "b0ca0d2ab63b3c36ea75a254d8d6edd6ab4ddf63b3bddc9ec3c54e8dc403e786",
    "lln-sgd": "c531d039d17f86cdf3149b1daad0fef282d6a2accb7f54f30b7343f0cded8459",
    "assumptions": "b84252c8d28c8daa104a50d2338194503592fcac7e9cb289ccde9692e075fe8b",
    "assumptions-sgd": "8889c5c9e1251b14b46e752e34120909bc2162c0e8e3e421a3c44a28580fa93b",
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
