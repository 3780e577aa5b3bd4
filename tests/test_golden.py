"""Byte-for-byte pin of every construction's output on a seeded corpus.

The digest below covers the rendered matrix of every method and size
(unsigned ``ws_nonsym_matrix`` included), the DOT rendering and scalars of
every certificate, every ``build_bound`` value and ``square_matrix_char2``
on fixed pseudo-random weighted and unweighted formulas and weakly skew
circuits.  A construction that raises contributes its exception class, so
the failure behaviour is pinned too.  Two more digests cover the same
matrices as ``symdet build --json`` prints them (``to_json``) and after a
text round trip, ``render_matrix(parse_matrix(text))``.  Refactors of the
lowering code or of the matrix representation must leave the digests
unchanged; a deliberate change of output must say so and update them.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import cache

from symdet.char2 import square_matrix_char2
from symdet.circuits import random_circuit
from symdet.cli import build_bound
from symdet.fields import GF2_16
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

GOLDEN_SHA256 = "d8bc89bdb58c88b8c0ceb5f3f3b24facaa97bec9bd3e43ad6131ffb823a895f6"
JSON_SHA256 = "98f7e244734cff5100df78ca43566643529c3161004501277900adb5d54b2e53"
REPARSE_SHA256 = "eb83fee81b367d874585fcf80ea213a158c651ba1947bfac37c59c7129fc7723"

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
    return (f"{export_dot(cert.graph)}s={cert.s} vert={sorted(cert.t_of.items())}"
            f" c={_scalars(cert.c_of)}")


def _ws_graph(c, mode) -> str:
    cert = build_ws_graph(c, mode)
    return f"{export_dot(cert.graph)}t={sorted(cert.t_of.items())} c={_scalars(cert.c_of)}"


def _path_sum(cert) -> str:
    return f"{export_dot(cert.graph)}c0={cert.c0.render()}"


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
        except Exception as exc:  # the failure class is part of the pinned output
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
def corpus_digests() -> tuple[int, str, int, str, str]:
    """(output count, digest of the rendered outputs, matrix count, digest of
    their ``to_json`` as ``symdet build --json`` prints it, digest of their
    text round trip)."""
    rendered, as_json, reparsed = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = matrices = 0
    for label, out in corpus_outputs():
        count += 1
        if isinstance(out, SymbolicMatrix):
            text = render_matrix(out)
            matrices += 1
            as_json.update(json.dumps(out.to_json(), indent=2).encode() + b"\0")
            reparsed.update(render_matrix(parse_matrix(text, out.spec)).encode() + b"\0")
        else:
            text = out
        rendered.update(f"{label}\n{text}".encode() + b"\0")
    return count, rendered.hexdigest(), matrices, as_json.hexdigest(), reparsed.hexdigest()


def test_rendered_outputs_match_golden_digest():
    count, digest, _, _, _ = corpus_digests()
    assert count > 5000
    assert digest == GOLDEN_SHA256, f"{count} outputs hash to {digest}"


def test_json_and_reparsed_matrices_match_golden_digests():
    _, _, matrices, as_json, reparsed = corpus_digests()
    assert matrices > 2000
    assert as_json == JSON_SHA256, f"{matrices} matrices' to_json hash to {as_json}"
    assert reparsed == REPARSE_SHA256, f"{matrices} reparsed matrices hash to {reparsed}"
