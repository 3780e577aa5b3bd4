"""Byte-for-byte pin of every construction's output on a seeded corpus.

The digest below covers the rendered matrix of every method and size
(unsigned ``ws_nonsym_matrix`` included), the DOT rendering and scalars of
every certificate, every ``build_bound`` value and ``square_matrix_char2``
on fixed pseudo-random weighted and unweighted formulas and weakly skew
circuits.  A construction that raises one of the library's errors
(``CircuitError``, ``FieldError``, ``ValueError``) contributes its exception
class, so the failure behaviour is pinned too; any other exception fails the
test.  Each label (one construction, size and output kind) has its own
digest of its rendered outputs in corpus order, and each matrix label a second digest of the same matrices'
``to_json`` as ``symdet build --json`` prints it and their text round trip
``render_matrix(parse_matrix(text))``.
Refactors of the lowering code or of the matrix representation must leave
every digest unchanged; a deliberate change of output must say so and
update the digests of the labels it changes, and only those.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache

from symdet.char2 import square_matrix_char2
from symdet.circuits import CircuitError, random_circuit
from symdet.cli import build_bound
from symdet.fields import GF2_16, FieldError
from symdet.formulas import (
    build_sym_graph,
    build_valiant_digraph,
    sym_matrix,
    valiant_matrix,
)
from symdet.graphs import SymbolicMatrix, export_dot, parse_matrix, render_matrix
from symdet.weakly_skew import (
    build_ws_abp,
    build_ws_graph,
    ws_nonsym_matrix,
    ws_sym_matrix,
)

GOLDEN_RENDERED = {
    "ws-sym fat":
        "1d353ee78c3a20e9a2f3c753e49ec624e497c12d5d6fb82e000f26fd04fc8380",
    "ws-sym green":
        "7e4c87b3cbd7b3be8a5369c0e9cb30dba503ebe4fd367e1aabae484655ce2538",
    "ws-nonsym fat":
        "8be40f42be8313315beffcce645329af5beb07063801754171ee77f90244edb9",
    "ws-nonsym green":
        "edc2b6802d9cf0e8fcf1eac02fb77b4b5e0ec5dc795a55ab6b5cc22e2e8b2488",
    "ws-nonsym fat unsigned":
        "6e15d3da07792a7af494a38883b6ffd0477e92e7852b564b1306b18cf1840abc",
    "ws-nonsym green unsigned":
        "dfdc9d62d5b22f4c247c6c31d1b6457ea69b4f729444b15fe9b52195747f2298",
    "ws graph fat":
        "4f33ce09791e2b368b0b2f265400de1c04ba2ddc3e71fd96e579ff6b208ea61b",
    "ws graph green":
        "c2fe3545c47a67f5192c7363afc14929d70b9a03e7b63cb111ef02fc3beddb77",
    "ws abp fat":
        "cae8cf2f8a579677b0572602fd4226110caef0bb5a02367a6803837049fe9dde",
    "ws abp green":
        "c2b4f68e1bbc03fdfa00f7776f7029e2de9864c951036f3a3fcb689541e67920",
    "valiant":
        "a459ad52acf7f0942cfc0075be65cd5d5f09332fa896a245d68a0d862493711a",
    "sym skinny":
        "c89f3cefc72bb0bb6380c9ebea94b702bce049126cdf0e4a325e8425d80a0ce6",
    "sym green":
        "76212437a85e00801aa14d9844e5ab6c56a847178e334ccb4c2388440cef756a",
    "valiant digraph":
        "afe3415799371668add6634a43093f21176c3fc6da0b36af1fb15ab9ee4e2f34",
    "sym graph skinny":
        "19037f6ffd5781c2d8a3fc9a8e7a3f5da3f7bca30ed92ab284bf222752bac2f0",
    "sym graph green":
        "8a9d3d5d78b98e9829ffb31c8b46636be21aa455e735b8d98fd656057eb2c3ab",
    "bound valiant green":
        "826f788e9fe93a1716eedf273738200f41c38c99043999c89a211183a483d127",
    "bound sym skinny":
        "28948258829227c5fad86e0542fd2fc1977507be0a911332638752f094119371",
    "bound sym green":
        "4d9f8ac320c97eb931bb2d7cdb4d99054bf397b2a37c0142db83abdcacba34fd",
    "bound ws-sym fat":
        "b799ae863957d873684ab0f5268471751883c2a65c0989d61046ec721e7e6f39",
    "bound ws-sym green":
        "fd9f4f590e0fa55db6ceab9bb1ea4e89e4c2e6658fc39fdcb4658c4ce639122b",
    "bound ws-nonsym fat":
        "5c8ad7176d7de9b2d9efdc5cbaab046fd5b2d32c69ba3941000133bea746d660",
    "bound ws-nonsym green":
        "c2593cd63de6eacd4dd7c0cb582095623039c24f2a5367e10ccacd950943e97f",
    "char2":
        "99b35f92b8ac08a5d77d78e0b815ebd494f19ec4488b085dc24f09a407d5adb0",
}

GOLDEN_ROUND_TRIP = {
    "ws-sym fat":
        "4721e0e32127cc2347e5363110536a5f415edef5d8e0fdc7ec459242cb429419",
    "ws-sym green":
        "245243c8449ab53de0e4f28f17763cade7f3aee69eba6a6e48f962851ab24621",
    "ws-nonsym fat":
        "827c396048ecefd1800de8c09080cae5c3ee928481091b3ba3e225a20dcf2315",
    "ws-nonsym green":
        "86ee3e4c70f40649749e6f44aaf822282fadea14414335147328855ada2454e3",
    "ws-nonsym fat unsigned":
        "54c16aa184faf803ff34df7d666c5459384ec7f9a5abafbcffa687dce93faa5d",
    "ws-nonsym green unsigned":
        "6062b2fa85d074bccbc92bad207a27e4376ece163f04992dc9d602b6f07bfca8",
    "valiant":
        "17e50528b2eb07300015a116921dbcf2543721367755c48b5736a6d87bb4f79b",
    "sym skinny":
        "722515f20a12f1b5c23a29290f92bdd5de14bd33143541d55691ea1f81591b92",
    "sym green":
        "2f4de9454a27b254d58eeecef865513a358c3f336ab4077029a7fc762f309ac0",
    "char2":
        "a9e3512ca4574b928d4b7701755955aaba5d6c5e63041a662a50e2019963f000",
}

METHOD_SIZES = (
    ("valiant", "green"),
    ("sym", "skinny"),
    ("sym", "green"),
    ("ws-sym", "fat"),
    ("ws-sym", "green"),
    ("ws-nonsym", "fat"),
    ("ws-nonsym", "green"),
)


def _scalars(mapping) -> str:
    return " ".join(f"{k}:{v.render()}" for k, v in sorted(mapping.items()))


def _abp(c, mode) -> str:
    cert = build_ws_abp(c, mode)
    return (f"{export_dot(cert.graph)}s={cert.s} vert={sorted(cert.targets.items())}"
            f" c={_scalars(cert.scalars)}")


def _ws_graph(c, mode) -> str:
    cert = build_ws_graph(c, mode)
    return f"{export_dot(cert.graph)}t={sorted(cert.targets.items())} c={_scalars(cert.scalars)}"


def _path_sum(cert) -> str:
    return f"{export_dot(cert.graph)}c0={cert.output()[1].render()}"


def _outputs(c, formula: bool):
    """(label, output) of every applicable construction on ``c``: a
    :class:`SymbolicMatrix`, or the text of anything else."""
    jobs = [
        ("ws-sym fat", lambda: ws_sym_matrix(c, "fat")),
        ("ws-sym green", lambda: ws_sym_matrix(c, "green")),
        ("ws-nonsym fat", lambda: ws_nonsym_matrix(c, "fat")),
        ("ws-nonsym green", lambda: ws_nonsym_matrix(c, "green")),
        ("ws-nonsym fat unsigned",
         lambda: ws_nonsym_matrix(c, "fat", signed=False)),
        ("ws-nonsym green unsigned",
         lambda: ws_nonsym_matrix(c, "green", signed=False)),
        ("ws graph fat", lambda: _ws_graph(c, "fat")),
        ("ws graph green", lambda: _ws_graph(c, "green")),
        ("ws abp fat", lambda: _abp(c, "fat")),
        ("ws abp green", lambda: _abp(c, "green")),
    ]
    if formula:
        jobs += [
            ("valiant", lambda: valiant_matrix(c)),
            ("sym skinny", lambda: sym_matrix(c, "skinny")),
            ("sym green", lambda: sym_matrix(c, "green")),
            ("valiant digraph", lambda: _path_sum(build_valiant_digraph(c))),
            ("sym graph skinny", lambda: _path_sum(build_sym_graph(c, "skinny"))),
            ("sym graph green", lambda: _path_sum(build_sym_graph(c, "green"))),
        ]
    jobs += [
        (f"bound {method} {size}", lambda m=method, s=size: str(build_bound(m, s, c)))
        for method, size in METHOD_SIZES
    ]
    for label, job in jobs:
        try:
            out = job()
        except (CircuitError, FieldError, ValueError) as exc:
            # the library's failure class is part of the pinned output; any
            # other exception is a fault of the harness and fails the test
            out = f"raises {type(exc).__name__}"
        yield label, out


def corpus_outputs():
    rng = random.Random(20100817)
    for i in range(150):
        weighted = i % 2 == 1
        f = random_circuit("formula", rng.randint(0, 7), 3, rng,
                           weighted=weighted, const_prob=0.2)
        yield from _outputs(f, formula=True)
    for i in range(150):
        weighted = i % 2 == 1
        c = random_circuit("weakly-skew", rng.randint(1, 14), 3, rng,
                           weighted=weighted, const_prob=0.2)
        yield from _outputs(c, formula=False)
    for i in range(40):
        profile = "formula" if i % 2 == 0 else "weakly-skew"
        c = random_circuit(profile, rng.randint(1, 8), 3, rng, spec=GF2_16,
                           constant_pool=(1, 3, 7), weighted=i % 4 >= 2,
                           weight_pool=(1, 1, 2, 5))
        yield "char2", square_matrix_char2(c)


@cache
def corpus_digests() -> tuple[int, dict[str, str], int, dict[str, str]]:
    """(output count, digest of each label's rendered outputs, matrix count,
    digest of each matrix label's ``to_json`` and text round trip)."""
    rendered: dict = {}
    round_trip: dict = {}
    count = matrices = 0
    for label, out in corpus_outputs():
        count += 1
        if isinstance(out, SymbolicMatrix):
            matrices += 1
            text = render_matrix(out)
            digest = round_trip.setdefault(label, hashlib.sha256())
            digest.update(json.dumps(out.to_json(), indent=2).encode() + b"\0")
            digest.update(render_matrix(parse_matrix(text, out.spec)).encode() + b"\0")
        else:
            text = out
        rendered.setdefault(label, hashlib.sha256()).update(text.encode() + b"\0")
    return (count, {label: d.hexdigest() for label, d in rendered.items()},
            matrices, {label: d.hexdigest() for label, d in round_trip.items()})


def test_rendered_outputs_match_golden_digest():
    count, rendered, _, _ = corpus_digests()
    assert count > 5000, count
    assert rendered == GOLDEN_RENDERED


def test_json_and_reparsed_matrices_match_golden_digests():
    _, _, matrices, round_trip = corpus_digests()
    assert matrices > 2000, matrices
    assert round_trip == GOLDEN_ROUND_TRIP
