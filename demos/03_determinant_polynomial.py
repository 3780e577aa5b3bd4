"""A symmetric determinantal representation of the determinant itself.

The n x n determinant polynomial DET_n is computed by a layered branching
program over closed-walk sequences; splitting vertices symmetrizes it.  The
resulting symmetric matrix has dimension at most 4n^3+7 (far less here,
because unreachable states are pruned) and determinant exactly DET_n.
"""

import random

from symdet import det_sym_matrix, sample_random, symbolic_det
from symdet.determinant import build_det_abp, det_variable
from symdet.fields import PRIME_DEFAULT, RATIONAL
from symdet.graphs import SymbolicMatrix, Weight
from symdet.verify import det_eval

for n in (1, 2, 3):
    abp = build_det_abp(n)
    print(f"n={n}: branching program has {abp.digraph.n} vertices, "
          f"{len(abp.digraph.arcs)} arcs, "
          f"{len(abp.plus_sinks)}+{len(abp.minus_sinks)} signed sinks")

m = det_sym_matrix(2)
print(f"\nn=2 symmetric matrix: dimension {m.dim} <= {4 * 8 + 7}")
print("det =", symbolic_det(m).render())

# for n = 4 compare against a direct numeric determinant at random points
n = 4
m = det_sym_matrix(n)
print(f"\nn={n}: dimension {m.dim} <= {4 * n**3 + 7}")
value_matrix = SymbolicMatrix(
    [[Weight.var(det_variable(i, j)) for j in range(1, n + 1)]
     for i in range(1, n + 1)],
    spec=RATIONAL,
)
rng = random.Random(0)
for trial in range(3):
    point = {
        det_variable(i, j): sample_random(PRIME_DEFAULT, rng)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }
    lhs = det_eval(m, point, PRIME_DEFAULT)
    rhs = det_eval(value_matrix, point, PRIME_DEFAULT)
    print(f"trial {trial}: det(representation) == det(values): {lhs == rhs}")
