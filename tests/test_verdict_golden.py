"""Byte-for-byte pin of the verifier's verdicts on a seeded batch.

The batch holds ``identity_test`` verdicts for the matrix of every build
method (sym skinny and green, valiant, ws-sym and ws-nonsym fat and green,
and the symmetric determinant of 2x2 and 3x3 matrices) and for one
single-entry mutation of each, over Z_p with p = 2^61 - 1 and over
Z_65537, with and without the exact upgrade; characteristic-2 squares and
their mutations over GF(2^16) with ``power=2``; and ``partial_perm_identity``
verdicts for n = 5-7 over GF(2^16) and GF(2^24).  Every verdict is hashed
as JSON, witness points and values included, so a change to how trial
points are drawn, evaluated or compared shows here.  The partial permanent
verdicts are hashed as the fields they were first pinned with
(:func:`pperm_fields`), which leaves out their witness point.  Each build
label has its own digest, and each mutation is drawn from a ``Random`` of
its own, seeded by its place in the batch, so a construction whose output
changes moves only its own label's digest.  A deliberate change of verdicts
must say so and update the digests of the labels it changes.
"""

from __future__ import annotations

import hashlib
import json
import random

from symdet.char2 import partial_perm_identity, square_matrix_char2
from symdet.circuits import random_circuit
from symdet.determinant import det_sym_matrix, det_variable
from symdet.fields import GF2_16, PRIME_DEFAULT, RATIONAL, FieldSpec
from symdet.formulas import sym_matrix, valiant_matrix
from symdet.graphs import SymbolicMatrix, Weight
from symdet.polynomials import DensePolynomial, poly_to_formula
from symdet.verify import Verdict, identity_test
from symdet.weakly_skew import ws_nonsym_matrix, ws_sym_matrix
from tests.conftest import leibniz_det

GOLDEN = {
    "sym skinny":
        "4e2e12342961a019939e70357e8a92c2ac000078ec18d8196b96ebbab218ca0e",
    "sym green":
        "524c9faf91466e00bf718ba635db9355773ab6a2f737562838d265b5694bed4b",
    "valiant":
        "71bbf1f613ab179fbffc54e72d67e25203b1555f4981f35a3247d584710e6b82",
    "ws-sym fat":
        "e6ff6d5722c07757690ab58cb5d7e0afb2c3fbd3d4f4b9394293d6104f5f1325",
    "ws-sym green":
        "8b103eb10dfd5afbdf567e6f0afb8f2d7db8a9b3b6bed6e2471e932bd80e97d4",
    "ws-nonsym fat":
        "a92c0af8132ba22bcadcaf97e83029cee24acaf76e9b14c04004c43ce17f1722",
    "ws-nonsym green":
        "2d1a393184117645d38513b37456daf52aa353b6ed55f29dd751d158b4a72693",
    "det":
        "719b70573067aa85957c6c42f658157694c7fb2a493de46117d081cc3681bc9f",
    "char2":
        "9b1bf977d873d2bbf8951ec19ebfecbf07220f2497e2d026f61e8d0bdd3a39a2",
    "pperm":
        "753cbb7810812e571f5f8686b7ec2b24883f93b5c3eac65f81ff0ae808bf11bb",
}

PRIME_FIELDS = (PRIME_DEFAULT, FieldSpec.prime(65537))
PPERM_FIELDS = (GF2_16, FieldSpec.binary(24))

WS_BUILDS = [
    (lower, mode) for lower in (ws_sym_matrix, ws_nonsym_matrix) for mode in ("fat", "green")
]
FORMULA_BUILDS = [
    (sym_matrix, "skinny"),
    (sym_matrix, "green"),
    (lambda c, mode: valiant_matrix(c), None),
] + WS_BUILDS
LABEL = {sym_matrix: "sym", ws_sym_matrix: "ws-sym", ws_nonsym_matrix: "ws-nonsym"}


def mutate(m: SymbolicMatrix, rng: random.Random, replacement: Weight) -> SymbolicMatrix:
    """``m`` with one stored nonzero replaced, or with one zero filled."""
    cells = [(i, j) for i, row in enumerate(m.rows) for j in row]
    i, j = rng.choice(cells) if cells else (0, 0)
    if m.entry(i, j) == replacement:
        replacement = Weight.var("x1")
    return m.with_entry(i, j, replacement)


def det_circuit(n: int):
    names = tuple(sorted(det_variable(i, j) for i in range(1, n + 1) for j in range(1, n + 1)))
    return poly_to_formula(leibniz_det(
        [[DensePolynomial.variable(det_variable(i, j), names, RATIONAL)
          for j in range(1, n + 1)] for i in range(1, n + 1)]))


def rational_cases(rng: random.Random):
    """(label, circuit, matrix) over Q: every build, then one mutation of each."""
    builds = []
    for k in range(24):
        formula = k % 2 == 0
        c = random_circuit("formula" if formula else "weakly-skew",
                           rng.randint(1, 6 if formula else 10), 3, rng,
                           weighted=k % 4 >= 2, const_prob=0.2)
        for build, mode in FORMULA_BUILDS if formula else WS_BUILDS:
            label = f"{LABEL[build]} {mode}" if build in LABEL else "valiant"
            builds.append((label, c, build(c, mode)))
    for n in (2, 3):
        builds.append(("det", det_circuit(n), det_sym_matrix(n)))
    for k, (label, c, m) in enumerate(builds):
        yield label, c, m
        yield label, c, mutate(m, random.Random(k), Weight.const(RATIONAL.from_int(2)))


def verdicts():
    """(label, JSON text) of every verdict in the batch, in a fixed order."""
    rng = random.Random(20261018)
    seed = 0
    for label, c, m in rational_cases(rng):
        for spec in PRIME_FIELDS:
            for exact in (True, False):
                seed += 1
                v = identity_test(c, m, spec=spec, seed=seed, exact_upgrade=exact)
                yield label, json.dumps(v.to_json(), sort_keys=True)
    for k in range(24):
        c = random_circuit("formula" if k % 2 else "weakly-skew", rng.randint(1, 8), 3, rng,
                           spec=GF2_16, constant_pool=(1, 3, 7), const_prob=0.2,
                           weighted=k % 4 >= 2, weight_pool=(1, 1, 2, 5))
        a = square_matrix_char2(c)
        mutant = mutate(a, random.Random(1000 + k), Weight.const(GF2_16.from_bits(0x1F)))
        for m in (a, mutant):
            seed += 1
            v = identity_test(c, m, spec=GF2_16, seed=seed, power=2)
            yield "char2", json.dumps(v.to_json(), sort_keys=True)
    for spec in PPERM_FIELDS:
        for n in (5, 6, 7):
            for trials in (1, 20):
                seed += 1
                b = pperm_matrix(rng, n, spec)
                v = partial_perm_identity(b, trials=trials, seed=seed, spec=spec)
                yield "pperm", json.dumps(pperm_fields(v), sort_keys=True)


def pperm_fields(v: Verdict) -> dict:
    """A partial permanent verdict as the seven fields it was first pinned
    with, before it became a :class:`Verdict`."""
    return {"ok": v.ok, "method": "random", "lhs": v.lhs or "", "rhs": v.rhs or "",
            "trials": v.trials, "degree_bound": v.degree_bound,
            "error_bound_log2": v.error_bound_log2}


def pperm_matrix(rng: random.Random, n: int, spec: FieldSpec) -> SymbolicMatrix:
    names = [f"b{k}" for k in range(rng.randint(1, n * n))]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            r = rng.random()
            if r < 0.2:
                row.append(Weight.const(spec.zero()))
            elif r < 0.4:
                row.append(Weight.const(spec.from_bits(rng.randrange(1, 1 << spec.k))))
            elif r < 0.55:
                row.append(Weight.scaled(rng.choice(names), spec.from_bits(rng.randrange(2, 64))))
            else:
                row.append(Weight.var(rng.choice(names)))
        rows.append(row)
    return SymbolicMatrix(rows, spec=spec)


def test_verdicts_match_golden_digest():
    digests: dict = {}
    count = failed = 0
    for label, text in verdicts():
        count += 1
        failed += '"FAILED"' in text or '"ok": false' in text
        digests.setdefault(label, hashlib.sha256()).update(text.encode() + b"\0")
    assert count > 1000 and failed > 100, (count, failed)
    assert {label: d.hexdigest() for label, d in digests.items()} == GOLDEN
