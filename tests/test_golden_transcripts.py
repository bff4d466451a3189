"""Seeded runs and CLI outputs pinned by the sha256 of their bytes.

The transcript digests were recorded with the materialised l x n Toeplitz
matrix and the per-block decoding loop.  A change in the order the runners
consume their generator, in a hash output or in a corrected block shows up
here as a digest mismatch.  The CLI digests cover exit code, stdout and
stderr of the README bound and table commands, recorded with a parser
built on every dispatch and the stdlib's indenting JSON encoder.  The
stdout digests of ``simulate`` and ``verify`` were recorded with one
hand-written ``to_json`` per transcript class and a hand-counted tally per
verification suite.  The stdout of ``simulate rot --n 100000 --ell 50000``
was recorded with every hash applied as a strided float64 matrix product.
"""

import hashlib
import json
import random

import pytest

from noisystorage import bounds, cli, codes, protocols
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
    # the storing receiver leaves theta_hat, x_hat and y null
    "rot-16-store-all": lambda: protocols.run_rot(
        16, 4, 0, bob=protocols.StoreAllBob(0.5), rng=14).to_json(),
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

CLI_CASES = {
    "cli-bounds-ot": "bounds ot --n 1e10 --delta 0.0106 --nu 1 --r 0.1 "
                     "--threshold 1e-8",
    "cli-bounds-robust": "bounds robust --n 1e10 --delta 0.005 --r 0.1 "
                         "--p1-sent 1.0 --ph-noclick 0.6 --pd-noclick 0.05 "
                         "--ph-err 0.01",
    "cli-bounds-qid": "bounds qid --n 1e9 --m 16 --delta 0.2 --ell 1000 "
                      "--d-code 3e8 --r 0.1",
    "cli-bounds-impersonation": "bounds impersonation --n 1e8 --m 2 "
                                "--delta 0.2 --r 0.1",
    "cli-curve": "curve --n 1e10 --delta 0.0106 --nu 1 --steps 200",
    "cli-region": "region --steps 100",
    "cli-exit-1": "bounds ot --n 1e10 --delta 0.3 --r 0.1",
    "cli-exit-2": "bounds ot --n 1e10 --delta 0.0106 --nu 1 --r 0.9",
}
CLI_CASES.update({
    name + "-json": argv + " --format json"
    for name, argv in list(CLI_CASES.items())
    if name.startswith(("cli-bounds-", "cli-curve", "cli-region"))})

# argvs whose stdout alone is pinned; each must exit 0 with empty stderr
STDOUT_CASES = {
    "cli-simulate-rot": "simulate rot --trials 3",
    "cli-simulate-qid": "simulate qid --trials 3",
    # the one pinned run with large hashes (50,000 x 100,000)
    "cli-simulate-rot-n100000": "simulate rot --n 100000 --ell 50000 "
                                "--trials 1 --seed 3",
    "cli-verify-split": "verify split --trials 8",
    "cli-verify-hashing": "verify hashing --trials 4",
    "cli-verify-pa": "verify pa --trials 4",
    "cli-verify-lemma4": "verify lemma4 --trials 4",
    "cli-verify-codes": "verify codes",
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
    "rot-16-store-all":
        "6eb0b18ea08e926dc7f5b02daf63a5ba38273e152b27abc73228a80e9b7d0f10",
    "rot-4096":
        "917f0ba913f9ab869418c993978233914c473d2f852709f6d6a762c0eef86fd4",
    "cli-bounds-impersonation":
        "51c310104857cdd5d6a3dafead3444e867b85e82679d551e0ba7506d2e21e964",
    "cli-bounds-impersonation-json":
        "a7894bd6eee6b203910b4134dc4f78f7c39582261c71ced3c86c926ce5a08296",
    "cli-bounds-ot":
        "49781ce9889f18754f54e4120b195f6e169b0301d1e8208c25864e3ed39c14af",
    "cli-bounds-ot-json":
        "e6f69ed2eb23971af32e4e70356730b4ace9b60fe530085f25028e4dc2ee23dd",
    "cli-bounds-qid":
        "e34ee40d4fbe53951a9019df8ced803f22ac2f463fcb8aa2240145a3f2ddb59c",
    "cli-bounds-qid-json":
        "4ec7fc96dd0c1badee113cf8381be21b9541806f7fc803b4b407e2b421b300f9",
    "cli-bounds-robust":
        "75870204c4b27322e832e35a54be2de56e7a9325a8844c73b456fcf38fea0955",
    "cli-bounds-robust-json":
        "680b0baaca3dfbc941a16e0a5c8337eeb9b6758f7b867576caf5a657d4ef9e9a",
    "cli-curve":
        "4fb3835964428e7a8c99481c129620f541d9bf2b3f16617cf7f9ea408a39ac42",
    "cli-curve-json":
        "0be24fe0c117efac735724770879f4baaace98f81de50b445905e2adaf16c700",
    "cli-exit-1":
        "0c46a4851b427844d5f6d6f21ce5490985e8e7a41c3ef4918f9b1d922403510d",
    "cli-exit-2":
        "42cdaf7f67938e68587dccd8dbeedbcc51259bbc40d538762b1a0c3ef5615215",
    "cli-region":
        "ab853ed86cdef305ec08ffdc638a8bf39e11cda723437b456be416525d6eeba5",
    "cli-region-json":
        "ba0c57021f9b2e6c0f9fab05e6259f6863011193b8c175e4d92d6852d6b6c9bc",
    "cli-simulate-robust":
        "dffddcf5a25f5b44d53cbf806a2cd4024233181317d2d723d4a88c5396e47f15",
    "cli-simulate-rot":
        "253123758a1830879c1e348eaf5f19d335b0da996fba841955cba7afa81aebde",
    "cli-simulate-qid":
        "425be94780f13c2dbf90f30548b9d8ff4ed93fa670a527b34c6bb969dd232979",
    "cli-simulate-rot-n100000":
        "f617db2350e922b3d83a9108bd25b57afd60baaa7f515b78eca98cbe5f24de28",
    "cli-verify-split":
        "bea3cfdcbe5696d358bbcd88426ff198cf262ebd3b9be69d0aecc222d81c2d10",
    "cli-verify-hashing":
        "f6e524cecb3df5b303c42b01a7d4a28c51e2aac18e96ba4b5c95d9ef724416de",
    "cli-verify-pa":
        "c19fee0ff40a75567ef4ad8d11177a9edbceb5ccb938450cd89239a05a6af8bb",
    "cli-verify-lemma4":
        "84c4fcffa65b4e61a4e832443482607d55bf8c18bf2480acf0d670db015857c6",
    "cli-verify-codes":
        "f633441251b4ef8880297ab5d2546570bd16bed2b7278b0af365f07fb8ca8e02",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_transcript_digest(name):
    data = CASES[name]().encode()
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


def _cli_digest(argv, capsys):
    code = dispatch(argv.split())
    out, err = capsys.readouterr()
    data = b"%d\0%s\0%s" % (code, out.encode(), err.encode())
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_digest(name, capsys):
    assert _cli_digest(CLI_CASES[name], capsys) == DIGESTS[name]


def test_cli_outputs_repeat_through_one_parser(capsys, monkeypatch):
    """Every pinned argv, dispatched twice in a shuffled order with an
    argparse error after each, gives its pinned bytes from one parser."""
    builds = []
    build_parser = cli.build_parser

    def counted():
        builds.append(1)
        return build_parser()

    order = sorted(CLI_CASES) * 2
    random.Random(5).shuffle(order)
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for name in order:
            assert _cli_digest(CLI_CASES[name], capsys) == DIGESTS[name], name
            assert dispatch(["bounds", "ot", "--n"]) == 1
            assert capsys.readouterr() == (
                "", "error: argument --n: expected one argument\n")
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_simulate_robust_stdout_digest(capsys):
    assert dispatch(["simulate", "robust", "--trials", "3"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS["cli-simulate-robust"]


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_cli_stdout_digest(name, capsys):
    assert dispatch(STDOUT_CASES[name].split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]
