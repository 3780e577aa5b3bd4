"""From an arithmetic formula to a symmetric determinantal representation.

Walks the full pipeline on (x+y)^2 + 2yz: parse an expression into a
formula circuit, build the gadget graph, close it into a symmetric matrix,
and certify the result both exactly (symbolic determinant) and by
randomized identity testing.
"""

from symdet import (
    expand_circuit,
    export_dot,
    identity_test,
    measure,
    parse_expression,
    render_matrix,
    symbolic_det,
    sym_matrix,
    valiant_matrix,
)
from symdet.formulas import build_sym_graph

f = parse_expression("(x+y)*(x+y) + 2*y*z")
rep = measure(f)
print(f"formula sizes: skinny={rep.skinny} fat={rep.fat} green={rep.green}")

# the gadget graph is the vertex split of the formula's branching program
# (build_valiant_digraph): every vertex but s and t becomes an in/out pair
# joined by an edge of weight -1, so every cycle and every s-t path is even,
# and the path sum signed by path length equals the polynomial
cert = build_sym_graph(f, mode="green")
print(f"\ngadget graph: {cert.graph.n} vertices, scalar c0 = {cert.output()[1]}")
print(export_dot(cert.graph))

m = sym_matrix(f, mode="green")
print(f"symmetric matrix, dimension {m.dim} <= 2*{rep.green}+3:")
print(render_matrix(m))

print("exact determinant:", symbolic_det(m, limit=20).render())
print("target polynomial:", expand_circuit(f)[0].render())

verdict = identity_test(f, m, seed=1)
print(f"\nidentity test: {verdict.status} ({verdict.trials} trials over {verdict.field})")

# the non-symmetric construction is smaller: dimension green+1
v = valiant_matrix(f)
print(f"\nnon-symmetric matrix dimension: {v.dim} <= {rep.green + 1}")
print("det:", symbolic_det(v).render())
