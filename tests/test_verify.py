import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.circuits import CircuitBuilder, MissingAssignment, random_circuit
from symdet.fields import (
    GF2,
    GF2_16,
    PRIME_DEFAULT,
    RATIONAL,
    FieldSpec,
    embed,
    sample_random,
)
from symdet.formulas import sym_matrix
from symdet.graphs import SymbolicMatrix, Weight, parse_matrix
from symdet.oracles import symbolic_det
from tests.conftest import mutate_matrix
from symdet.verify import (
    FAILED,
    FieldTooSmall,
    VERIFIED_EXACT,
    VERIFIED_RANDOM,
    CompiledMatrix,
    Verdict,
    det_eval,
    identity_test,
)


def num(n):
    return RATIONAL.from_int(n)


FIRST_DISPLAY = parse_matrix(
    "5 symmetric\n"
    "0 x 0 y -1\n"
    "x 0 1 0 0\n"
    "0 1 0 -1 0\n"
    "y 0 -1 0 1/2\n"
    "-1 0 0 1/2 0"
)


def test_det_eval_identity_matrix():
    m = parse_matrix("3\n1 0 0\n0 1 0\n0 0 1")
    assert det_eval(m, {}) == num(1)


def test_det_eval_first_display_at_3_4():
    assert det_eval(FIRST_DISPLAY, {"x": num(3), "y": num(4)}) == num(7)


def test_det_eval_singular():
    m = parse_matrix("2\nx x\nx x")
    assert det_eval(m, {"x": num(5)}).is_zero()


def test_det_eval_prime_fast_path_matches_generic():
    rng = random.Random(3)
    Z101 = FieldSpec.prime(101)
    for _ in range(10):
        n = rng.randint(1, 6)
        rows = [
            [Weight.const(RATIONAL.from_int(rng.randint(-9, 9))) for _ in range(n)]
            for _ in range(n)
        ]
        m = SymbolicMatrix(rows)
        exact = det_eval(m, {}, RATIONAL)
        modular = det_eval(m, {}, Z101)
        assert modular == Z101.from_int(exact.value.numerator) / Z101.from_int(
            exact.value.denominator
        )


# Z_101 makes zero pivots and cancellations common; GF(2^24) takes the
# carry-less branch instead of the log/exp tables.
COMPILED_FIELDS = [
    FieldSpec.prime(101),
    PRIME_DEFAULT,
    FieldSpec.binary(8),
    GF2_16,
    FieldSpec.binary(24),
]
FIELD_IDS = [str(f) for f in COMPILED_FIELDS]
NAMES = ("x", "y", "z")


@st.composite
def matrix_shapes(draw, entry, zero):
    """Square matrices of dimension 1-6 drawn from ``entry``: general ones,
    singular ones (a repeated row) and odd permutation patterns."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["general", "singular", "odd-permutation"]))
    if shape == "odd-permutation":
        n = max(n, 2)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "singular" and n > 1:
        rows[-1] = list(rows[0])
    elif shape == "odd-permutation":
        perm = draw(st.permutations(range(n)))
        inversions = sum(perm[j] > perm[i] for i in range(n) for j in range(i))
        if inversions % 2 == 0:
            perm[0], perm[1] = perm[1], perm[0]
        rows = [[rows[i][j] if perm[i] == j else zero for j in range(n)] for i in range(n)]
    return rows


# integer constants, including multiples of 101, plus variables and
# integer multiples of variables
RATIONAL_ENTRY = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 101, 202]).map(
        lambda c: Weight.const(RATIONAL.from_int(c))),
    st.sampled_from(NAMES).map(Weight.var),
    st.tuples(st.sampled_from(NAMES), st.sampled_from([-1, 2, 3, 101])).map(
        lambda t: Weight.scaled(t[0], RATIONAL.from_int(t[1]))),
)


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=60, deadline=None)
@given(rows=matrix_shapes(RATIONAL_ENTRY, Weight.const(RATIONAL.zero())),
       values=st.tuples(*[st.integers(-250, 250)] * len(NAMES)))
def test_compiled_det_matches_dense_rational_reference(spec, rows, values):
    m = SymbolicMatrix(rows, allow_linear=True)
    q_point = {v: RATIONAL.from_int(x) for v, x in zip(NAMES, values)}
    exact = det_eval(m, q_point, RATIONAL)
    point = {v: embed(x, spec) for v, x in q_point.items()}
    assert det_eval(m, point, spec) == embed(exact, spec)


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compiled_det_matches_cofactor_oracle_in_field(spec, data):
    """Constants drawn from the whole field, against cofactor expansion."""
    element = st.integers(0, spec.size - 1).map(
        spec.from_bits if spec.kind == "binary" else spec.from_int)
    zero = Weight.const(spec.zero())
    entry = st.one_of(
        st.just(zero),
        element.map(Weight.const),
        st.sampled_from(NAMES).map(Weight.var),
        st.tuples(st.sampled_from(NAMES), element).map(lambda t: Weight.scaled(*t)),
    )
    rows = data.draw(matrix_shapes(entry, zero))
    m = SymbolicMatrix(rows, spec=spec, allow_linear=True)
    oracle = symbolic_det(m, variables=NAMES)
    compiled = CompiledMatrix(m, spec)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(2):  # a compiled matrix is reused across points
        point = {v: sample_random(spec, rng) for v in NAMES}
        assert det_eval(compiled, point, spec) == oracle.evaluate(point, spec)


@pytest.mark.parametrize("spec", [RATIONAL] + COMPILED_FIELDS, ids=["Q"] + FIELD_IDS)
def test_det_eval_unassigned_variable(spec):
    m = parse_matrix("2\nx 1\n3*y 0")
    with pytest.raises(MissingAssignment, match="'y'"):
        det_eval(m, {"x": spec.one()}, spec)


def test_identity_test_verifies_construction(fig1_formula):
    m = sym_matrix(fig1_formula, "skinny")
    verdict = identity_test(fig1_formula, m, seed=7)
    assert verdict.ok and verdict.status == VERIFIED_RANDOM
    assert verdict.trials == 20 and "2305843009213693951" in verdict.field


def test_identity_test_exact_upgrade_small():
    b = CircuitBuilder()
    f = b.build([b.add(b.var("x"), b.var("y"))])
    m = sym_matrix(f, "skinny")
    verdict = identity_test(f, m)
    assert verdict.status == VERIFIED_EXACT


def test_identity_test_catches_perturbation(fig1_formula):
    m = sym_matrix(fig1_formula, "skinny")
    # flip one -1 entry to 1 (and keep the matrix well-formed)
    for i in range(m.dim):
        for j in range(m.dim):
            w = m.entry(i, j)
            if w.kind == "const" and w.coeff == -RATIONAL.one():
                bad = m.with_entry(i, j, Weight.const(RATIONAL.one()))
                verdict = identity_test(fig1_formula, bad, seed=11)
                assert verdict.status == FAILED
                assert verdict.witness_point
                return
    pytest.fail("no -1 entry found")


def test_failed_witness_reproduces(fig1_formula):
    m = sym_matrix(fig1_formula, "skinny")
    bad = m.with_entry(0, 1, Weight.var("z"))
    verdict = identity_test(fig1_formula, bad, seed=3)
    assert verdict.status == FAILED
    again = identity_test(fig1_formula, bad, seed=3)
    assert again.witness_point == verdict.witness_point
    assert (again.lhs, again.rhs) == (verdict.lhs, verdict.rhs)
    js = verdict.to_json()
    assert js["status"] == FAILED and "witness" in js


def test_field_too_small():
    b = CircuitBuilder()
    f = b.build([b.var("x")])
    m = sym_matrix(f, "skinny")
    with pytest.raises(FieldTooSmall):
        identity_test(f, m, spec=GF2)


def test_small_char2_field_gets_more_trials():
    b = CircuitBuilder(GF2_16)
    c = b.build([b.add(b.var("x"), b.var("y"))])
    from symdet.char2 import square_matrix_char2

    a = square_matrix_char2(c)
    verdict = identity_test(c, a, spec=GF2_16, power=2, exact_upgrade=False)
    assert verdict.ok
    assert verdict.trials == 40


def test_perturbation_catch_rate(rng):
    """Randomized identity testing catches nearly all single-entry mutations."""
    caught = 0
    total = 0
    while total < 200:
        f = random_circuit("formula", rng.randint(2, 8), 3, rng, const_prob=0.1)
        m = sym_matrix(f, "skinny")
        for _ in range(10):
            if total >= 200:
                break
            bad = mutate_matrix(m, rng)
            total += 1
            if identity_test(f, bad, seed=total, exact_upgrade=False).status == FAILED:
                caught += 1
    assert caught / total >= 0.99, f"caught {caught}/{total}"
