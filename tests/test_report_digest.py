"""The reports of every benchmark spec at seeds 1 and 2, pinned by one
sha256 per workload and seed.  Seed 2 adds 22 more flag cubics and the torus
branch conditions on 80 dense and 72 factored pairs in all.

The specs come from ``bench/workloads.py``, read only, and run through each
workload's own ``call``: the ``repr`` of each report for flag_smooth and
torus_dense, and (exit code, stdout, stderr) of ``tck classify`` for
notnormal_cli.  A change that alters any output must update the digest
here and say so in CHANGES.md.
"""

import hashlib
import importlib
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

DIGESTS = {
    "flag_smooth": "260e207f7f79c8db14a02faf043e97f9bc6a6d0e814d2ea4e9cf326651082f19",
    "torus_dense": "ccaeb33e73176ce2a241f9a07baf858f44fd1b837e84e7af5f41f37a24df3325",
    "notnormal_cli": "c4e483daf67ef7ad5c8f59786d6f707575c866b7da8ee966053a60a9815132d3",
}
SEED2_DIGESTS = {
    "flag_smooth": "d206e331da31dfcfe79199d0c0220824b3d5c0037bccee05c0615091ab41ee45",
    "torus_dense": "43b4162ba0a717912ec8a4e4bd0ce7ba4283d53427e727fa3a8e60c9519e3ecc",
    "notnormal_cli": "d5ee6d1e8bc8230c8ba48b8186c50141f3aa53e85e4d6b8e0f43e39bab271062",
}


def _library():
    return types.SimpleNamespace(**{
        layer: importlib.import_module("triplecover." + layer)
        for layer in ("polyring", "univar", "polyparse", "cover", "etamap",
                      "torus", "classify", "cli")
    })


def _digest(name, seed):
    tc, workload = _library(), workloads.WORKLOADS[name]
    digest = hashlib.sha256()
    for spec in workload.build(tc, seed):
        outcome = workload.call(tc, spec)
        text = repr((outcome.code, outcome.stdout, outcome.stderr)) \
            if name == "notnormal_cli" else repr(outcome)
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_seed1_reports_match_their_digest(name):
    assert _digest(name, 1) == DIGESTS[name]


@pytest.mark.parametrize("name", SEED2_DIGESTS)
def test_seed2_reports_match_their_digest(name):
    assert _digest(name, 2) == SEED2_DIGESTS[name]
