"""Seeded input corpora for the three benchmark workloads.

Each workload turns a seed into circuit and matrix files in a work
directory plus the list of CLI invocations ("ops") that run on them.  The
program under test only ever sees those files; the in-memory circuits stay
with the benchmark for its output checks.

Why each workload exists, with the shares measured in traced runs (seeds
1-3; ``perfbench/README.md`` has the tables):

* ``small-formulas``: 120 small builds and verifies per pass, most
  matrices of dimension below 64.  Verifying is about 97% of a pass, and
  three quarters of that is re-embedding the matrix constants into Z_p on
  every trial (elimination is under a tenth).  Builds are per-op overhead:
  the CLI itself, ``minimize`` and parsing take about 70% of build time.
* ``large-circuits``: 8 inputs of dimension 41 to 177.  Verifying is about
  99% of a pass: three quarters re-embedding constants, a tenth dense Z_p
  elimination, 5% parsing the dense matrix text.  Builds go to the matrix
  closure (the dense adjacency matrix and its rendering, 40%) and the
  gadget builders (20%).
* ``char2``: the same verify layer over GF(2^16), through generic field
  elements instead of the Z_p integer fast path (elimination is about 80%
  of verify time), so a change that speeds up Z_p and slows GF(2^k) shows.

Sizes follow a fixed schedule and only shapes are random; the counts that
set a matrix's dimension (constant leaves, weighted arrows, multiplications)
are fixed too, so corpora made from different seeds cost about the same to
build and verify.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("small-formulas", "large-circuits", "char2")

# small-formulas: skinny sizes 1..30 once each, interleaved with 10 more
# unweighted formulas of skinny size 15; their sym/skinny verifies cost about
# the median verify op, so the median falls among formulas of one size
SMALL_MEDIAN_SIZE = 15
_regular = iter(range(1, 31))
SMALL_SIZES = [(SMALL_MEDIAN_SIZE, False) if i % 4 == 2 else (next(_regular), True)
               for i in range(40)]
SMALL_VARS = 8
SMALL_CONSTANTS = (1, -1, Fraction(1, 2))
SMALL_WEIGHTS = (1, 1, 1, 2, -1, 3, Fraction(1, 2))
SMALL_CONST_SHARE = 0.12      # of the leaves
SMALL_WEIGHTED_SHARE = 4 / 7  # of the arrows, in weighted formulas

# large-circuits
LARGE_FORMULA_OPS = 40
LARGE_CHAIN_DEPTH = 40
LARGE_WS_FAT = 60
LARGE_DET_N = 5
PROBE_CHAIN_DEPTH = 1000

# char2: fat sizes 2..24 once each, interleaved with 46 circuits of fat size
# 14, so that the median verify op falls among circuits of one size
CHAR2_MEDIAN_FAT = 14
CHAR2_SIZES = [CHAR2_MEDIAN_FAT if i % 3 else 2 + i // 3 for i in range(69)]
CHAR2_VARS = 6
CHAR2_CONSTANTS = (1, 2, 3, 0x1F)
CHAR2_PPERM_N = (5, 6)


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy.

    ``stdout_to`` names the file that receives the command's standard output
    for subcommands that print their matrix (the shell redirect a user
    would write); writing it is part of the op.
    """

    phase: str                      # "build" or "verify"
    label: str
    argv: list[str]
    stdout_to: str | None = None
    # build ops
    matrix: str | None = None       # matrix file the op produces
    method: str | None = None       # build method, or "detsym" / "char2-square"
    size: str | None = None
    circuit: object | None = None   # in-memory source circuit (for checks)
    det_n: int | None = None


@dataclass
class Corpus:
    """A workload's ops in run order: each build op is followed by the verify
    op that checks its matrix, the way a user would run them."""

    seed: int
    ops: list[Op] = field(default_factory=list)
    warmup: list[Op] = field(default_factory=list)
    probe: Op | None = None
    files: list[tuple[str, object]] = field(default_factory=list)  # (path, text or circuit)


def _has_variable(c) -> bool:
    return any(g.kind == "input" for g in c.gates.values())


def _variable_bearing(make):
    c = make()
    while not _has_variable(c):
        c = make()
    return c


class _Writer:
    """Names input files in the work directory and assembles the op lists;
    :func:`write_files` writes the files."""

    def __init__(self, corpus: Corpus, workdir: str, field_flag: str | None = None):
        self.corpus = corpus
        self.workdir = workdir
        self.field_flag = field_flag
        self.verify_index = 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, content) -> str:
        """Queue a file: matrix text, or a circuit rendered when written."""
        p = self.path(name)
        self.corpus.files.append((p, content))
        return p

    def circuit(self, name: str, c) -> str:
        return self.write(f"{name}.circ", c)

    def _field(self) -> list[str]:
        return ["--field", self.field_flag] if self.field_flag else []

    def verify_seed(self) -> str:
        self.verify_index += 1
        return str((self.corpus.seed * 1_000_003 + self.verify_index) % (1 << 31))

    def build_and_verify(self, name, c, circ_path, method, size, into=None):
        """``symdet build`` (or char2-square) on a circuit, then ``verify``."""
        into = self.corpus if into is None else into
        mat = self.path(f"{name}.{method}.{size or 'default'}.mat")
        if method == "char2-square":
            build = Op("build", f"{method} {name}", ["char2-square", circ_path, *self._field()],
                       stdout_to=mat, matrix=mat, method=method, circuit=c)
            extra = ["--power", "2"]
        else:
            build = Op("build", f"{method}/{size} {name}",
                       ["build", circ_path, "--method", method, "--size", size,
                        "-o", mat, *self._field()],
                       matrix=mat, method=method, size=size, circuit=c)
            extra = []
        verify = Op("verify", f"verify {method}/{size or '-'} {name}",
                    ["verify", circ_path, mat, *self._field(), *extra,
                     "--seed", self.verify_seed()])
        into.ops += [build, verify]


def weakly_skew(rng: random.Random, fat: int, n_vars: int, **kwargs):
    """A variable-bearing random weakly skew circuit of fat size ``fat`` with
    (fat + 1) // 6 multiplications, about the most common count.  The
    lowerings' dimensions go down by one per multiplication, so fixing the
    count keeps corpora made from different seeds equally costly."""
    from symdet.circuits import random_circuit

    muls = (fat + 1) // 6
    while True:
        c = random_circuit("weakly-skew", fat, n_vars, rng, **kwargs)
        if _has_variable(c) and sum(g.kind == "mul" for g in c.gates.values()) == muls:
            return c


def small_formula(rng: random.Random, size: int, weighted: bool):
    """A random formula of skinny size ``size`` over SMALL_VARS variables in
    which exactly round(SMALL_CONST_SHARE * leaves) leaves are constants and,
    when ``weighted``, exactly round(SMALL_WEIGHTED_SHARE * arrows) arrows
    carry a weight other than 1.  Fixing the counts fixes the skinny
    dimension, so corpora made from different seeds cost about the same."""
    from symdet.circuits import CircuitBuilder, random_circuit

    shape = random_circuit("formula", size, SMALL_VARS, rng, constant_pool=())
    order = shape.topo_order()
    leaves = [gid for gid in order if not shape.gates[gid].args]
    arrows = [(gid, k) for gid in order if shape.gates[gid].args for k in (0, 1)]
    consts = set(rng.sample(leaves, round(SMALL_CONST_SHARE * len(leaves))))
    heavy = set(rng.sample(arrows, round(SMALL_WEIGHTED_SHARE * len(arrows)) if weighted else 0))
    non_unit = [x for x in SMALL_WEIGHTS if x != 1]
    b = CircuitBuilder()
    new = {}
    for gid in order:
        g = shape.gates[gid]
        if not g.args:
            new[gid] = b.const(rng.choice(SMALL_CONSTANTS)) if gid in consts else b.var(g.name)
            continue
        (x, _), (y, _) = g.args
        wx, wy = (rng.choice(non_unit) if (gid, k) in heavy else 1 for k in (0, 1))
        new[gid] = (b.add if g.kind == "add" else b.mul)(new[x], new[y], wx, wy)
    return b.build([new[shape.outputs[0]]])


def det_expansion_circuit(n: int):
    """DET_n as the signed sum over all n! permutations (Leibniz), in the
    variables x<i>_<j> (1-based) that ``symdet detsym`` uses."""
    from symdet.circuits import CircuitBuilder

    b = CircuitBuilder()
    x = {(i, j): b.var(f"x{i}_{j}") for i in range(1, n + 1) for j in range(1, n + 1)}
    acc = None
    for perm in itertools.permutations(range(1, n + 1)):
        inversions = sum(1 for a, c in itertools.combinations(perm, 2) if a > c)
        sign = -1 if inversions % 2 else 1
        term = x[(1, perm[0])]
        for i in range(2, n + 1):
            term = b.mul(term, x[(i, perm[i - 1])])
        # the identity permutation comes first and has sign +1
        acc = term if acc is None else b.add(acc, term, 1, sign)
    return b.build([acc])


def addition_chain(depth: int, rng: random.Random, n_vars: int = 8):
    """((x + x) + x) + ... with ``depth`` additions and random weights."""
    from symdet.circuits import CircuitBuilder

    b = CircuitBuilder()
    names = [f"x{i + 1}" for i in range(n_vars)]
    acc = b.var(rng.choice(names))
    for _ in range(depth):
        acc = b.add(acc, b.var(rng.choice(names)), 1, rng.choice((1, 1, -1, 2)))
    return b.build([acc])


def _variable_matrix_text(n: int) -> str:
    rows = [" ".join(f"b{i}_{j}" for j in range(1, n + 1)) for i in range(1, n + 1)]
    return f"{n}\n" + "\n".join(rows) + "\n"


def _small_formulas(w: _Writer, rng: random.Random) -> None:
    for i, (e, may_weight) in enumerate(SMALL_SIZES):
        c = small_formula(rng, e, weighted=may_weight and i % 3 == 0)
        p = w.circuit(f"f{i:03d}", c)
        w.build_and_verify(f"f{i:03d}", c, p, "sym", "skinny")
        w.build_and_verify(f"f{i:03d}", c, p, "sym", "green")
        w.build_and_verify(f"f{i:03d}", c, p, "valiant", "green")


def _large_circuits(w: _Writer, rng: random.Random) -> None:
    from symdet.circuits import random_circuit

    # no constant inputs, so the green size and both dimensions are the same
    # for every seed; arrow weights still give the green lowering constants
    f = random_circuit("formula", LARGE_FORMULA_OPS, 8, rng, constant_pool=(),
                       weighted=True, weight_pool=SMALL_WEIGHTS)
    p = w.circuit("formula", f)
    w.build_and_verify("formula", f, p, "sym", "green")
    w.build_and_verify("formula", f, p, "valiant", "green")

    chain = addition_chain(LARGE_CHAIN_DEPTH, rng)
    p = w.circuit("chain", chain)
    w.build_and_verify("chain", chain, p, "sym", "green")

    ws = weakly_skew(rng, LARGE_WS_FAT, 8, constant_pool=SMALL_CONSTANTS, const_prob=0.05)
    p = w.circuit("ws", ws)
    for method in ("ws-sym", "ws-nonsym"):
        for size in ("fat", "green"):
            w.build_and_verify("ws", ws, p, method, size)

    n = LARGE_DET_N
    mat = w.path(f"det{n}.mat")
    p = w.circuit(f"det{n}-leibniz", det_expansion_circuit(n))
    w.corpus.ops += [
        Op("build", f"detsym n={n}", ["detsym", "--n", str(n)],
           stdout_to=mat, matrix=mat, method="detsym", det_n=n),
        Op("verify", f"verify detsym n={n}", ["verify", p, mat, "--seed", w.verify_seed()]),
    ]

    deep = addition_chain(PROBE_CHAIN_DEPTH, rng)
    p = w.circuit("probe-chain", deep)
    mat = w.path("probe-chain.mat")
    w.corpus.probe = Op("build", f"sym/green chain depth {PROBE_CHAIN_DEPTH}",
                        ["build", p, "--method", "sym", "--size", "green", "-o", mat],
                        matrix=mat, method="sym", size="green", circuit=deep)


def _char2(w: _Writer, rng: random.Random) -> None:
    from symdet.fields import GF2_16

    pool = tuple(GF2_16.from_bits(v) for v in CHAR2_CONSTANTS)
    for i, fat in enumerate(CHAR2_SIZES):
        c = weakly_skew(rng, fat, CHAR2_VARS, spec=GF2_16, constant_pool=pool, const_prob=0.15)
        p = w.circuit(f"c{i:03d}", c)
        w.build_and_verify(f"c{i:03d}", c, p, "char2-square", None)
    for n in CHAR2_PPERM_N:
        p = w.write(f"b{n}.mat", _variable_matrix_text(n))
        w.corpus.ops.append(Op(
            "verify", f"pperm --check-identity n={n}",
            ["pperm", p, "--field", "gf2_16", "--check-identity", "--seed", w.verify_seed()]))


def _warmup(name: str, w: _Writer) -> None:
    """Tiny inputs through every subcommand the workload uses."""
    from symdet.circuits import random_circuit
    from symdet.fields import GF2_16

    rng = random.Random(0)
    warm = Corpus(w.corpus.seed)
    if name == "char2":
        pool = tuple(GF2_16.from_bits(v) for v in CHAR2_CONSTANTS)
        c = _variable_bearing(lambda: random_circuit(
            "weakly-skew", 4, 2, rng, spec=GF2_16, constant_pool=pool))
        w.build_and_verify("warm", c, w.circuit("warm", c), "char2-square", None, into=warm)
        p = w.write("warm-b.mat", _variable_matrix_text(5))
        warm.ops.append(Op("verify", "warm pperm",
                           ["pperm", p, "--field", "gf2_16", "--check-identity"]))
    elif name == "small-formulas":
        c = random_circuit("formula", 12, 3, rng, constant_pool=(), weighted=True)
        p = w.circuit("warm", c)
        for method, size in (("sym", "skinny"), ("sym", "green"), ("valiant", "green")):
            w.build_and_verify("warm", c, p, method, size, into=warm)
    else:
        c = _variable_bearing(lambda: random_circuit("weakly-skew", 12, 3, rng))
        p = w.circuit("warm", c)
        for method, size in (("ws-sym", "fat"), ("ws-nonsym", "green")):
            w.build_and_verify("warm", c, p, method, size, into=warm)
        f = random_circuit("formula", 12, 3, rng, constant_pool=())
        p = w.circuit("warm-f", f)
        w.build_and_verify("warm-f", f, p, "sym", "green", into=warm)
        w.build_and_verify("warm-f", f, p, "valiant", "green", into=warm)
    w.corpus.warmup = warm.ops


def make_corpus(name: str, seed: int, workdir: str) -> Corpus:
    """Generate the workload's inputs from ``seed``, in memory; their files
    go into ``workdir`` when :func:`write_files` runs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    corpus = Corpus(seed)
    w = _Writer(corpus, workdir, field_flag="gf2_16" if name == "char2" else None)
    rng = random.Random(f"{name}:{seed}")
    {"small-formulas": _small_formulas,
     "large-circuits": _large_circuits,
     "char2": _char2}[name](w, rng)
    _warmup(name, w)
    return corpus


def write_files(corpus: Corpus) -> None:
    """Render the corpus's circuits and write every input file."""
    from symdet.circuits import render_circuit

    for path, content in corpus.files:
        with open(path, "w") as fh:
            fh.write(content if isinstance(content, str) else render_circuit(content))
