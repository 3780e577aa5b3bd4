"""Characteristic 2: squares, partial permanents, matching parities.

The symmetric closing edge needs the constant 1/2, which does not exist in
GF(2^k).  What survives: the square of any weakly-skew-computable
polynomial is a symmetric determinant (bipartite doubling), and the partial
permanent satisfies det(A + I) = per*(B)^2.
"""

import random

from symdet import (
    CircuitBuilder,
    identity_test,
    measure,
    partial_perm_identity,
    partial_permanent,
    random_circuit,
    square_matrix_char2,
    symbolic_det,
)
from symdet.fields import GF2, GF2_16
from symdet.graphs import SymbolicMatrix, Weight, render_matrix

b = CircuitBuilder(GF2_16)
c = b.build([b.add(b.var("x"), b.var("y"))])
a = square_matrix_char2(c)
print(f"square of x+y over GF(2^16): dimension {a.dim} <= {2 * measure(c).fat + 2}")
print(render_matrix(a))
print("det =", symbolic_det(a).render(), " (Frobenius: (x+y)^2 = x^2 + y^2)")

rng = random.Random(3)
circuit = random_circuit("weakly-skew", 12, 4, rng, spec=GF2_16, constant_pool=(1, 3))
a = square_matrix_char2(circuit)
verdict = identity_test(circuit, a, spec=GF2_16, power=2, seed=9)
print(f"\nrandom 12-gate circuit: dim {a.dim}, det == value^2: {verdict.status}")

bmat = SymbolicMatrix(
    [[Weight.var("a"), Weight.var("b")], [Weight.var("c"), Weight.var("d")]],
    spec=GF2,
)
print("\nper*([[a,b],[c,d]]) =", partial_permanent(bmat).render())
res = partial_perm_identity(bmat)  # tested in GF(2^16), which contains GF(2)
print(f"det(A + I_4) == per*(B)^2: {res.status} "
      f"({res.trials} trials in {res.field}, error <= 2^{res.error_bound_log2:.0f})")

# counting mod 2: for a 0/1 biadjacency matrix the determinant computes the
# parity of the number of partial matchings
ones = SymbolicMatrix([[Weight.const(GF2.one())] * 2 for _ in range(2)], spec=GF2)
parity = partial_permanent(ones)
print("\nparity of partial matchings of K_{2,2}:", parity.render(),
      " (7 matchings: empty, 4 singles, 2 perfect)")
