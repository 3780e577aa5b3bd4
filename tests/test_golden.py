"""Byte-for-byte pin of every construction's output on a seeded corpus.

The digest below covers the rendered matrix of every method and size
(unsigned ``ws_nonsym_matrix`` included), the DOT rendering and scalars of
every certificate, every ``build_bound`` value and ``square_matrix_char2``
on fixed pseudo-random weighted and unweighted formulas and weakly skew
circuits.  A construction that raises contributes its exception class, so
the failure behaviour is pinned too.  Refactors of the lowering code must
leave the digest unchanged; a deliberate change of output must say so and
update it.
"""

from __future__ import annotations

import hashlib
import random

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
from symdet.graphs import export_dot, render_matrix
from symdet.weakly_skew import (
    build_ws_abp,
    build_ws_graph,
    ws_nonsym_matrix,
    ws_sym_matrix,
)

GOLDEN_SHA256 = "07ecb10b0ef675aefd90637d8d0b13f0bf7803b6c3da7351d3a26e0f6faf01a3"

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
    dg, s, vert, c_of, work = build_ws_abp(c, mode)
    return f"{export_dot(dg)}s={s} vert={sorted(vert.items())} c={_scalars(c_of)}"


def _ws_graph(c, mode) -> str:
    cert = build_ws_graph(c, mode)
    return f"{export_dot(cert.graph)}t={sorted(cert.t_of.items())} c={_scalars(cert.c_of)}"


def _path_sum(cert) -> str:
    return f"{export_dot(cert.graph)}c0={cert.c0.render()}"


def _outputs(c, formula: bool):
    """Rendered outputs of every applicable construction on ``c``."""
    jobs = [
        ("ws-sym fat", lambda: render_matrix(ws_sym_matrix(c, "fat"))),
        ("ws-sym green", lambda: render_matrix(ws_sym_matrix(c, "green"))),
        ("ws-nonsym fat", lambda: render_matrix(ws_nonsym_matrix(c, "fat"))),
        ("ws-nonsym green", lambda: render_matrix(ws_nonsym_matrix(c, "green"))),
        ("ws-nonsym fat unsigned",
         lambda: render_matrix(ws_nonsym_matrix(c, "fat", signed=False))),
        ("ws-nonsym green unsigned",
         lambda: render_matrix(ws_nonsym_matrix(c, "green", signed=False))),
        ("ws graph fat", lambda: _ws_graph(c, "fat")),
        ("ws graph green", lambda: _ws_graph(c, "green")),
        ("ws abp fat", lambda: _abp(c, "fat")),
        ("ws abp green", lambda: _abp(c, "green")),
    ]
    if formula:
        jobs += [
            ("valiant", lambda: render_matrix(valiant_matrix(c))),
            ("sym skinny", lambda: render_matrix(sym_matrix(c, "skinny"))),
            ("sym green", lambda: render_matrix(sym_matrix(c, "green"))),
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
            text = job()
        except Exception as exc:  # the failure class is part of the pinned output
            text = f"raises {type(exc).__name__}"
        yield f"{label}\n{text}"


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
        yield f"char2\n{render_matrix(square_matrix_char2(c))}"


def corpus_digest() -> tuple[str, int]:
    h = hashlib.sha256()
    count = 0
    for text in corpus_outputs():
        h.update(text.encode())
        h.update(b"\0")
        count += 1
    return h.hexdigest(), count


def test_rendered_outputs_match_golden_digest():
    digest, count = corpus_digest()
    assert count > 5000
    assert digest == GOLDEN_SHA256, f"{count} outputs hash to {digest}"
