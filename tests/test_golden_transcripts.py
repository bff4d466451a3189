"""Seeded runs pinned by the sha256 of their output bytes.

The digests were recorded with the materialised l x n Toeplitz matrix and
the per-block decoding loop.  A change in the order the runners consume
their generator, in a hash output or in a corrected block shows up here
as a digest mismatch.
"""

import hashlib
import json

import pytest

from noisystorage import bounds, codes, protocols
from noisystorage.cli import dispatch


def _robust_params(n, ell, ph_err=0.01):
    return bounds.RobustParams(
        n=n, delta=0.02, storage=bounds.StorageModel(r=0.2), p1_sent=1.0,
        ph_noclick=0.3, pd_noclick=0.0, ph_err=ph_err, ell=ell)


def _robust(n, ell, c, seed, bob=None, ph_err=0.01):
    t = protocols.run_robust_rot(_robust_params(n, ell, ph_err),
                                 codes.repetition_code(3), c, bob=bob,
                                 rng=seed)
    assert not t.abort
    return t.to_json()


def _leakage(r, seed):
    return json.dumps(protocols.estimate_leakage(16, 1, r, 4, rng=seed),
                      sort_keys=True)


def _qid(w_alice, w_bob, seed):
    t = protocols.run_qid(w_alice, w_bob, codes.qid_code(16, 8), 8, rng=seed)
    return t.to_json()


CASES = {
    "rot-16": lambda: protocols.run_rot(16, 4, 0, rng=11).to_json(),
    "rot-1024": lambda: protocols.run_rot(1024, 256, 1, rng=12).to_json(),
    "rot-4096": lambda: protocols.run_rot(4096, 1024, 0, rng=13).to_json(),
    "robust-512": lambda: _robust(512, 8, 0, 21),
    "robust-512-worst-case": lambda: _robust(
        512, 8, 1, 22, bob=protocols.WorstCaseReportingBob()),
    "robust-2048": lambda: _robust(2048, 256, 1, 23),
    "robust-2048-worst-case": lambda: _robust(
        2048, 256, 0, 24, bob=protocols.WorstCaseReportingBob()),
    "robust-2048-noisy": lambda: _robust(2048, 256, 0, 25, ph_err=0.08),
    "qid-equal": lambda: _qid(3, 3, 31),
    "qid-differ": lambda: _qid(3, 7, 32),
    "leakage-r0": lambda: _leakage(0.0, 41),
    "leakage-r0.3": lambda: _leakage(0.3, 42),
    "leakage-r1": lambda: _leakage(1.0, 43),
}

DIGESTS = {
    "leakage-r0":
        "c336ce5213434e8d7bcf461635776be6360fe77f257269adc9243a81b56026d6",
    "leakage-r0.3":
        "8a138607167229abefcdb7308966a609cb2eb7dd91ee3e183561f3f71a619aa8",
    "leakage-r1":
        "4ec8b3a8027fe864a433afa4f1067d810865646a773c70b57dc6203726ffa5bb",
    "qid-differ":
        "266ae9ad1b0e549ca90152239942e4507ce156816e294ccb0629651f026bb30b",
    "qid-equal":
        "fc855ac014ca41b9a6fdd42a376d252cda56cc71ec1fc21710613dbbba68e768",
    "robust-2048":
        "a2f9f3be701885098936d20a1ae6669cdf1ceb3314412c8e49aff351bc8b7ac4",
    "robust-2048-noisy":
        "f4729969d5be90156f54d7a00a54cd8d7b8e0939a522aa487995be83ce89a9a8",
    "robust-2048-worst-case":
        "65371ec5c0100e4d5eb7fbad91bef164986252768f45ca839bafc49b9c904733",
    "robust-512":
        "c7a3452188a9ebaff2d2bb0f5493604432dda858937c08199e2e52da26e21d23",
    "robust-512-worst-case":
        "69921667f19da6d04e48d40626e896fb7f58b416632d459e72d2a1269d0e53e6",
    "rot-1024":
        "21bbfc14b3b77b428f6c7d6af797341521cdbf5e6df4d55625264fa05f3e85eb",
    "rot-16":
        "d812b1dda1b1495aeda3ad383f447166d1dc483343a5fd7b537b46b64c1f3ab7",
    "rot-4096":
        "917f0ba913f9ab869418c993978233914c473d2f852709f6d6a762c0eef86fd4",
    "cli-simulate-robust":
        "dffddcf5a25f5b44d53cbf806a2cd4024233181317d2d723d4a88c5396e47f15",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_transcript_digest(name):
    data = CASES[name]().encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def test_simulate_robust_stdout_digest(capsys):
    assert dispatch(["simulate", "robust", "--trials", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS["cli-simulate-robust"]
