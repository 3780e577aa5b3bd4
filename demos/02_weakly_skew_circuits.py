"""Weakly skew circuits: sharing beats trees, and still lowers to matrices.

A weakly skew circuit may reuse a gate many times as long as every
multiplication fully owns one of its argument sub-circuits.  This demo
builds (x+y)^2 + 2yz with a reused x+y, compares the fat/green lowerings,
and audits the certificate invariants on a small instance.
"""

import random

from symdet import (
    CircuitBuilder,
    classify,
    identity_test,
    measure,
    random_circuit,
    ws_nonsym_matrix,
    ws_sym_matrix,
)
from symdet.circuits import reachable_from
from symdet.oracles import check_symmetric_certificate
from symdet.weakly_skew import build_ws_graph

b = CircuitBuilder()
x, y = b.var("x"), b.var("y")
shared = b.add(x, y)                 # reusable: feeds the square twice
x2, y2 = b.var("x"), b.var("y")
closed = b.add(x2, y2)               # private copy inside the closed box
square = b.mul(closed, shared)
z = b.var("z")
double_z = b.add(z, z)               # 2z, also inside a closed box
circuit = b.build([b.add(square, b.mul(double_z, y))])

cl = classify(circuit)
rep = measure(circuit)
print(f"weakly skew: {cl.is_weakly_skew}, formula: {cl.is_formula}")
print(f"fat size m = {rep.fat}, skinny e = {rep.skinny}, variable inputs i = {rep.var_inputs}")
print("closed sub-circuits:",
      {gid: sorted(reachable_from(circuit, [arg])) for gid, arg in cl.owned.items()})

for mode, bound in (("fat", 2 * rep.fat + 1),
                    ("green", 2 * (rep.green + rep.var_inputs) + 1)):
    m = ws_sym_matrix(circuit, mode)
    verdict = identity_test(circuit, m, seed=2)
    print(f"ws-sym {mode}: dimension {m.dim} <= {bound}, {verdict.status}")

n = ws_nonsym_matrix(circuit, "fat")
print(f"ws-nonsym fat: dimension {n.dim} <= {rep.fat + 1}")

# certificate audit on a small random circuit: every acceptable s-t_a path
# leaves behind a unique weight-1 perfect matching
rng = random.Random(7)
small = random_circuit("weakly-skew", 5, 3, rng)
cert = build_ws_graph(small, "fat")
check_symmetric_certificate(cert)
print(f"\naudited certificate of a random 5-gate circuit "
      f"({cert.graph.n} vertices): all invariants hold")
