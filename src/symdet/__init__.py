"""symdet: determinantal representations of formulas and weakly skew circuits.

A circuit-to-matrix compiler: arithmetic formulas and weakly skew circuits
are lowered to (symmetric) matrices whose determinant equals the computed
polynomial, with proven dimension bounds, plus brute-force oracles and
randomized identity testing that certify every emitted matrix.

Quick tour::

    from symdet import parse_expression, sym_matrix, identity_test

    f = parse_expression("(x+y)*(x+y) + 2*y*z")
    m = sym_matrix(f, "green")           # symmetric, dim <= 2*gsize + 3
    assert identity_test(f, m).ok
"""

from .fields import (
    FieldElement,
    FieldSpec,
    GF2,
    GF2_16,
    PRIME_DEFAULT,
    RATIONAL,
    half,
    parse_element,
    sample_random,
)
from .circuits import (
    Circuit,
    CircuitBuilder,
    Gate,
    classify,
    evaluate,
    is_formula,
    measure,
    parse_circuit,
    parse_expression,
    random_circuit,
    render_circuit,
    validate,
)
from .minimize import minimize
from .polynomials import (
    DensePolynomial,
    bounds_report,
    expand_circuit,
    monomial_sum_circuit,
    parse_polynomial,
    poly_to_formula,
)
from .graphs import (
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    WeightedGraph,
    adjacency,
    close_symmetric,
    export_dot,
    parse_matrix,
    render_matrix,
    split_vertices,
)
from .oracles import (
    cycle_cover_sum,
    cycle_cover_sum_short,
    ryser_permanent,
    symbolic_det,
)
from .formulas import (
    build_sym_graph,
    build_valiant_digraph,
    sym_matrix,
    valiant_matrix,
)
from .weakly_skew import build_ws_graph, ws_nonsym_matrix, ws_sym_matrix
from .determinant import build_det_abp, det_sym_matrix
from .char2 import partial_perm_identity, partial_permanent, square_matrix_char2
from .verify import Verdict, det_eval, identity_test

__version__ = "0.1.0"
