"""Byte-for-byte pin of ``symdet pperm`` stdout on a seeded set of matrices.

The set has two matrices per dimension n = 1-6 over each of GF(2),
GF(2^16), Q and p61, with zero, constant, scaled-variable and variable
entries drawn from small name pools, so that monomials repeat, merge and
cancel.  Every matrix is run without ``--check-identity``; with it over the
characteristic-2 fields for every n, and over Q and p61 for n >= 5 (where
the check embeds B into GF(2^16) by evaluation, or fails to).  Last come
the all-variable matrices ``b{i}_{j}`` for n = 1-6 over GF(2^16), checked.

Every verdict line is randomized, tested in GF(2^16) (the characteristic-2
fields here are at most that large), and states its Schwartz-Zippel bound in
the bracket, ``[random, error <= 2^N]``; that clause is checked against the
bound the test computes itself and removed before hashing, so the digest
pins the polynomial lines, the verdicts, the exit codes and the rest of
every line.  The digest is that of the earlier output, which tested n <= 4
symbolically (``[symbolic]``) and GF(2) matrices in GF(2) itself, with the
bound removed and ``[symbolic]`` read as ``[random]``: the verdicts did not
change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re

from symdet.cli import main

GOLDEN_SHA256 = "a8cc526f0b314e1f9783a3f8f6d768edf8d140e744b170c354ba29643093477a"

FIELDS = {
    "gf2": ("1",),
    "gf2_16": ("1", "0x1f", "0x8001"),
    "q": ("1", "-1", "3", "1/3"),
    "p61": ("1", "-2", "5"),
}
CHAR2 = ("gf2", "gf2_16")
BOUND = re.compile(r", error <= 2\^(-?\d+)\]")


def matrix_text(rng: random.Random, n: int, constants) -> str:
    names = [f"x{k}" for k in range(rng.randint(1, n * n))]
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            r = rng.random()
            if r < 0.25:
                row.append("0")
            elif r < 0.45:
                row.append(rng.choice(constants))
            elif r < 0.6:
                row.append(f"{rng.choice(constants)}*{rng.choice(names)}")
            else:
                row.append(rng.choice(names))
        rows.append(" ".join(row))
    return f"{n}\n" + "\n".join(rows) + "\n"


def corpus():
    """(label, argv tail, matrix text, n, field) for every pinned run."""
    rng = random.Random(20101108)
    for n in range(1, 7):
        for field, constants in FIELDS.items():
            for k in range(2):
                text = matrix_text(rng, n, constants)
                seed = str(rng.randrange(1000))
                label = f"n={n} {field} #{k}"
                yield label, ["--field", field], text, n, field
                if field in CHAR2 or n >= 5:
                    yield (f"{label} check", ["--field", field, "--check-identity",
                                              "--seed", seed], text, n, field)
    for n in range(1, 7):
        text = f"{n}\n" + "".join(
            " ".join(f"b{i}_{j}" for j in range(1, n + 1)) + "\n" for i in range(1, n + 1))
        yield (f"n={n} all-variable check",
               ["--field", "gf2_16", "--check-identity", "--seed", str(n)], text, n, "gf2_16")


def run_pperm(path, tail) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["pperm", str(path), *tail])
    return code, out.getvalue()


def test_pperm_stdout_matches_golden_digest(tmp_path):
    h = hashlib.sha256()
    count = 0
    for label, tail, text, n, field in corpus():
        path = tmp_path / "b.matrix"
        path.write_text(text)
        code, out = run_pperm(path, tail)
        bounds = BOUND.findall(out)
        if "--check-identity" in tail and field != "p61":
            # 20 trials over GF(2^16)
            assert bounds == [str(math.ceil(20 * (math.log2(2 * n) - 16)))], (label, out)
        else:
            assert bounds == [], (label, out)
        h.update(f"{label}\n{code}\n{BOUND.sub(']', out)}".encode())
        h.update(b"\0")
        count += 1
    assert count == 86
    assert h.hexdigest() == GOLDEN_SHA256, f"{count} runs hash to {h.hexdigest()}"
