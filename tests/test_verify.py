import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdet.circuits import (
    Circuit,
    CircuitBuilder,
    Gate,
    MissingAssignment,
    evaluate,
    parse_circuit,
    random_circuit,
)
from symdet.fields import (
    GF2,
    GF2_16,
    PRIME_DEFAULT,
    RATIONAL,
    FieldElement,
    FieldSpec,
    MixedFields,
    embed,
    sample_random,
)
from symdet.formulas import sym_matrix
from symdet.graphs import (
    SymbolicMatrix,
    Weight,
    WeightedDigraph,
    close_symmetric,
    parse_matrix,
    parse_weight,
    split_vertices,
)
from symdet.oracles import cover_sign, symbolic_det
from symdet.weakly_skew import ws_sym_matrix
from tests.conftest import lanes_of, mutate_matrix
from symdet.verify import (
    FAILED,
    FieldTooSmall,
    VERIFIED_EXACT,
    VERIFIED_RANDOM,
    CompiledCircuit,
    CompiledMatrix,
    Verdict,
    _dense_det,
    _embedder,
    _lockstep_det,
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
    m = SymbolicMatrix(rows)
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
    m = SymbolicMatrix(rows, spec=spec)
    oracle = symbolic_det(m, variables=NAMES)
    compiled = CompiledMatrix(m, spec)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(2):  # a compiled matrix is reused across points
        point = {v: sample_random(spec, rng) for v in NAMES}
        assert compiled.lane_det(lanes_of([point]), 1) == [oracle.evaluate(point, spec).value]
        assert det_eval(m, point, spec) == oracle.evaluate(point, spec)


@pytest.mark.parametrize("spec", [RATIONAL] + COMPILED_FIELDS, ids=["Q"] + FIELD_IDS)
def test_det_eval_unassigned_variable(spec):
    m = parse_matrix("2\nx 1\n3*y 0")
    with pytest.raises(MissingAssignment, match="'y'"):
        det_eval(m, {"x": spec.one()}, spec)
    foreign = GF2_16 if spec != GF2_16 else PRIME_DEFAULT
    with pytest.raises(MixedFields, match="'x'"):
        det_eval(m, {"x": foreign.one(), "y": spec.one()}, spec)


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
    assert verdict.status == VERIFIED_EXACT and verdict.field == "Q"


def test_identity_test_reports_a_symbolic_mismatch_the_trials_miss():
    """det = x + p with p = 2^61 - 1: over Q the exact comparison with the
    circuit x fails, while in Z_p every trial agrees, so the verdict fails
    with the mismatch named on both sides."""
    from symdet.circuits import parse_expression

    m = parse_matrix("2\nx -2305843009213693951\n1 1\n")
    verdict = identity_test(parse_expression("x"), m)
    assert verdict.status == FAILED and not verdict.ok
    assert verdict.lhs == verdict.rhs == "symbolic mismatch"
    assert verdict.trials == 20 and verdict.field == str(PRIME_DEFAULT)


def test_identity_test_refuses_a_two_output_circuit():
    b = CircuitBuilder()
    c = b.build([b.var("x"), b.var("y")])
    with pytest.raises(ValueError, match="single-output"):
        identity_test(c, SymbolicMatrix([[Weight.var("x")]]))


def test_identity_test_of_a_matrix_from_another_field_is_randomized():
    """The exact path needs one field for both sides: a circuit over Q and
    its matrix built over Z_p meet only in the test field, where they agree."""
    from symdet.circuits import parse_expression
    from symdet.formulas import valiant_matrix

    f = parse_expression("x*y + z", RATIONAL)
    m = valiant_matrix(parse_expression("x*y + z", PRIME_DEFAULT))
    verdict = identity_test(f, m, seed=1)
    assert verdict.status == VERIFIED_RANDOM and verdict.field == str(PRIME_DEFAULT)


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


# -- lockstep evaluation against the slow references ---------------------------

LANE_COUNTS = [1, 2, 7]


def field_value(spec, n):
    """n as an element of spec: an integer residue, or a GF(2^k) bit mask."""
    return spec.from_bits(n) if spec.kind == "binary" else spec.from_int(n)


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=50, deadline=None)
@given(rows=matrix_shapes(RATIONAL_ENTRY, Weight.const(RATIONAL.zero())),
       t=st.sampled_from(LANE_COUNTS), data=st.data())
def test_lane_det_matches_dense_rational_reference(spec, rows, t, data):
    """Small values make entries vanish in some lanes but not in others."""
    m = SymbolicMatrix(rows)
    value = st.one_of(st.integers(-2, 2), st.integers(-250, 250))
    q_points = [{v: RATIONAL.from_int(data.draw(value)) for v in NAMES} for _ in range(t)]
    points = [{v: embed(x, spec) for v, x in q.items()} for q in q_points]
    want = [embed(det_eval(m, q, RATIONAL), spec).value for q in q_points]
    assert CompiledMatrix(m, spec).lane_det(lanes_of(points), t) == want


def spy_on_lane_det(monkeypatch) -> list[int]:
    """Record the lane count of every elimination, re-runs included."""
    calls = []
    original = _lockstep_det

    def det(arith, rows, t):
        calls.append(t)
        return original(arith, rows, t)

    monkeypatch.setattr("symdet.verify._lockstep_det", det)
    return calls


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
def test_lane_det_reruns_lanes_where_every_pivot_candidate_vanishes(spec, monkeypatch):
    # column 0 holds x and y only: x vanishes at the first point, y at the
    # second, so no row of it is nonzero in every lane
    m = parse_matrix("2\nx 1\ny 1")
    values = [(0, 5), (5, 0), (5, 6)]
    points = [{"x": field_value(spec, x), "y": field_value(spec, y)} for x, y in values]
    calls = spy_on_lane_det(monkeypatch)
    got = CompiledMatrix(m, spec).lane_det(lanes_of(points), 3)
    assert calls == [3, 1, 1, 1]
    assert got == [(p["x"] - p["y"]).value for p in points]
    assert got == [det_eval(m, p, spec).value for p in points]


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
def test_lane_det_column_vanishing_in_one_lane(spec, monkeypatch):
    m = parse_matrix("3\nx 0 0\n0 1 y\n0 1 1")  # det = x (1 - y)
    values = [(0, 3), (4, 0), (5, 1)]
    points = [{"x": field_value(spec, x), "y": field_value(spec, y)} for x, y in values]
    calls = spy_on_lane_det(monkeypatch)
    got = CompiledMatrix(m, spec).lane_det(lanes_of(points), 3)
    assert calls[0] == 3 and 1 in calls
    assert got == [(p["x"] * (1 - p["y"])).value for p in points]


@st.composite
def mixed_matrices(draw, spec):
    """A sparse matrix of dimension 1-7 over ``spec`` and ``t`` points as
    lanes, in one of seven shapes that steer the lockstep elimination:

    - ``constant``: constants only, so every entry and pivot is a scalar;
    - ``cancel``: constants, variables and scaled variables, with the
      constants of one row a multiple of another's, so they cancel to 0
      during fill-in;
    - ``lane``: variables only, at points where none vanishes, so every
      pivot is a lane;
    - ``rerun``: variables only, each vanishing at one of the first three
      points, so no pivot candidate is nonzero in every lane;
    - ``interleaved``: a diagonal that alternates a variable and a nonzero
      constant, under sparse constants and variables, at points where no
      variable vanishes, so scalar pivots follow lane pivots;
    - ``unit``: a diagonal of 1 and -1 under sparse variables and constants
      1 and -1, at points where no variable vanishes, so most pivots are 1
      or -1 with lanes in their column and row;
    - ``fill``: dimension 4-7 with few zeros, so updating the rows below a
      pivot fills in other columns and raises their counts before they are
      chosen.
    """
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(
        ["constant", "cancel", "lane", "rerun", "interleaved", "unit", "fill"]))
    if shape == "fill":
        n = max(n, 4)
    element = st.one_of(st.integers(1, 3), st.integers(1, spec.size - 1)).map(
        lambda v: field_value(spec, v))
    zero = Weight.const(spec.zero())
    const = element.map(Weight.const)
    var = st.one_of(st.sampled_from(NAMES).map(Weight.var),
                    st.tuples(st.sampled_from(NAMES), element).map(lambda t: Weight.scaled(*t)))
    unit = st.sampled_from([spec.one(), -spec.one()]).map(Weight.const)
    entry = {"constant": st.one_of(st.just(zero), const),
             "cancel": st.one_of(st.just(zero), const, var),
             "interleaved": st.one_of(st.just(zero), st.just(zero), const, var),
             "unit": st.one_of(st.just(zero), st.just(zero), unit, var),
             "fill": st.one_of(st.just(zero), const, const, var)}.get(
        shape, st.one_of(st.just(zero), var))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if shape == "interleaved":
        for i in range(n):
            rows[i][i] = draw(var if i % 2 == 0 else const)
    if shape == "unit":
        for i in range(n):
            rows[i][i] = draw(unit)
    if shape == "cancel" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(element)
        rows[j] = [w.scale(c) if w.kind == "const" else zero for w in rows[i]]
        rows[j][draw(st.integers(0, n - 1))] = draw(var)
    t = draw(st.sampled_from([3, 7] if shape == "rerun" else LANE_COUNTS))
    value = element if shape in ("lane", "rerun", "interleaved", "unit", "fill") else st.one_of(
        st.just(0), st.integers(0, 3), st.integers(0, spec.size - 1)).map(
        lambda v: field_value(spec, v))
    points = [{v: draw(value) for v in NAMES} for _ in range(t)]
    if shape == "rerun":
        for lane, v in enumerate(NAMES):
            points[lane][v] = spec.zero()
    return SymbolicMatrix(rows, spec=spec), points


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lane_det_on_mixed_rows_matches_the_references(spec, data):
    """Scalar constants beside lanes, against ``det_eval`` and against dense
    elimination on field elements, one point at a time."""
    m, points = data.draw(mixed_matrices(spec))
    got = CompiledMatrix(m, spec).lane_det(lanes_of(points), len(points))
    assert got == [det_eval(m, p, spec).value for p in points]
    assert got == [_dense_det([[w.eval(p, spec) for w in row] for row in m.entries], spec).value
                   for p in points]


# every lane operation of the kernel that the elimination calls
LANE_OPS = ("add", "mul", "scale", "inv", "submul")


def spy_on_arith(monkeypatch, arith, names) -> list[tuple[str, tuple]]:
    """Record every call of the ``names`` operations of ``arith`` with its
    arguments, until the test ends."""
    calls = []
    for name in names:
        def spy(*args, name=name, op=getattr(arith, name)):
            calls.append((name, args))
            return op(*args)
        monkeypatch.setattr(arith, name, spy)
    return calls


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
def test_constant_matrix_takes_no_lane_operation(spec, monkeypatch):
    """An all-constant matrix is eliminated on scalars: not one lane is
    multiplied, inverted or updated, however many trial points there are.
    The matrix is the path Laplacian (2 on the diagonal, -1 beside it) of
    dimension 100 with its rows shuffled; over Q its determinant is 101."""
    n, t = 100, 20
    rng = random.Random(5)
    perm = list(range(n))
    rng.shuffle(perm)
    laplacian = [{j: num(2 if i == j else -1) for j in (i - 1, i, i + 1) if 0 <= j < n}
                 for i in range(n)]
    rows = [[Weight.const(laplacian[perm[i]].get(j, num(0))) for j in range(n)]
            for i in range(n)]
    m = SymbolicMatrix(rows)
    inversions = sum(perm[j] > perm[i] for i in range(n) for j in range(i))
    want = embed(num(-101 if inversions % 2 else 101), spec).value
    compiled = CompiledMatrix(m, spec)
    calls = spy_on_arith(monkeypatch, compiled.arith, LANE_OPS)
    assert compiled.lane_det({}, t) == [want] * t
    assert calls == []


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
def test_scalar_pivots_after_a_lane_pivot_multiply_one_scalar(spec, monkeypatch):
    """The diagonal matrix x, c_1, ..., c_39 with c_i = i + 1 (a bit mask in
    GF(2^k)): the lane pivot x comes first, since every column has one
    entry, and the 39 constant pivots after it multiply one scalar; the
    lane meets their product once, at the end."""
    n, t = 40, 20
    diagonal = [field_value(spec, i + 1) for i in range(1, n)]
    rows = [{0: Weight.var("x")}] + [{i: Weight.const(c)} for i, c in enumerate(diagonal, 1)]
    compiled = CompiledMatrix(SymbolicMatrix(rows, spec=spec), spec)
    calls = spy_on_arith(monkeypatch, compiled.arith, LANE_OPS)
    xs = [field_value(spec, 1 + k) for k in range(t)]
    got = compiled.lane_det({"x": [x.value for x in xs]}, t)
    product = math.prod(diagonal, start=spec.one())
    assert got == [(x * product).value for x in xs]
    assert [name for name, _ in calls] == ["scale"]


PRIME_FIELDS = [f for f in COMPILED_FIELDS if f.kind == "prime"]


@pytest.mark.parametrize("spec", PRIME_FIELDS, ids=str)
def test_unit_pivots_of_a_split_chain_invert_nothing_and_negate_no_lane(spec, monkeypatch):
    """The vertex split of the program s -> v1 -> ... -> v5 -> t with arc
    weights x0, ..., x5, closed with c = 2: its constant pivots are the -1
    links and the closing's 1 and -1.  A pivot of 1 or -1 is its own
    inverse, so no constant is inverted, and under a -1 pivot a lane factor
    f adds f * v where the update would negate f first: no lane is scaled
    by -1.  The determinant is 2 x0 ... x5."""
    n, t = 7, 5
    dg = WeightedDigraph(spec)
    for _ in range(n):
        dg.add_vertex()
    for v in range(n - 1):
        dg.add_arc(v, v + 1, Weight.var(f"x{v}"))
    g, copies = split_vertices(dg, [0, n - 1])
    m = close_symmetric(g, 0, copies[n - 1][0], spec.from_int(2))
    lanes = {f"x{v}": [field_value(spec, 2 + v + 10 * k).value for k in range(t)]
             for v in range(n - 1)}
    want = [2 * math.prod(lane[k] for lane in lanes.values()) % spec.p for k in range(t)]
    compiled = CompiledMatrix(m, spec)
    minus_one = spec.arith.neg1(1)
    calls = spy_on_arith(monkeypatch, compiled.arith, ("inv1",) + LANE_OPS)
    assert compiled.lane_det(lanes, t) == want
    assert not [name for name, _ in calls if name == "inv1"]
    assert not [args for name, args in calls if name == "scale" and args[0] == minus_one]


def pivot_order_matrices():
    """3,500 seeded sparse matrices over Z_101 in plain ints: dimension 3-9
    at density 0.45, and every seventh of the ``fill`` shape, dimension 4-7
    at density 0.85, where fill-in raises column counts before the columns
    are chosen."""
    rng = random.Random(2031)
    for k in range(3500):
        fill = k % 7 == 0
        n = rng.randint(4, 7) if fill else rng.randint(3, 9)
        density = 0.85 if fill else 0.45
        yield [{j: rng.randrange(1, 101) for j in range(n) if rng.random() < density}
               for _ in range(n)]


def test_the_elimination_pivots_in_a_pinned_order(monkeypatch):
    """The scalar pivots of ``_lockstep_det`` in the order it takes them:
    it multiplies each into the determinant by one ``mul1``, so the
    arguments of those calls are the pivot sequence.  A determinant does
    not depend on the order, so only this golden sees a change to the
    column heap (a column whose count grew since it was pushed must be
    pushed back, not dropped)."""
    arith = FieldSpec.prime(101).arith
    calls = spy_on_arith(monkeypatch, arith, ("mul1",))
    digest = hashlib.sha256()
    pivots = 0
    for rows in pivot_order_matrices():
        calls.clear()
        det = _lockstep_det(arith, rows, 1)
        digest.update(repr(([args[1] for _, args in calls], det)).encode())
        pivots += len(calls)
    assert pivots == 32448
    assert digest.hexdigest() == (
        "c197786a7fa687140975fc1b2cc0b6773b44194cf2b92e9c8f668d8651d61d82")


def test_compiling_a_parsed_matrix_classifies_each_token_once(monkeypatch):
    """``parse_matrix`` gives every cell of one token one Weight, so
    compiling the parsed path Laplacian of dimension 100, with 2 and 3*x
    alternating on its diagonal and -1 beside it, embeds once per distinct
    token, three times, not once per entry; it compiles to what a matrix
    whose every entry is a Weight of its own compiles to."""
    n = 100
    cells = [["3*x" if i == j and i % 2 else "2" if i == j else "-1" if abs(i - j) == 1
              else "0" for j in range(n)] for i in range(n)]
    text = "\n".join([f"{n} symmetric"] + [" ".join(row) for row in cells])
    embedded = []

    def counting(spec):
        embed_one = _embedder(spec)

        def spy(x):
            embedded.append(x)
            return embed_one(x)
        return spy

    monkeypatch.setattr("symdet.verify._embedder", counting)
    compiled = CompiledMatrix(parse_matrix(text), PRIME_DEFAULT)
    assert len(embedded) == 3
    own = SymbolicMatrix([[parse_weight(tok, RATIONAL) for tok in row] for row in cells])
    reference = CompiledMatrix(own, PRIME_DEFAULT)
    assert len(embedded) == 3 + 3 * n - 2  # and then once per entry
    assert compiled.const_rows == reference.const_rows
    assert compiled.slots == reference.slots
    assert compiled.variables == reference.variables == ("x",)


def test_compiling_a_parsed_circuit_embeds_each_weight_object_once(monkeypatch):
    """``parse_circuit`` gives every arrow of one weight token, and every
    unweighted arrow, one element, so compiling a chain of 100 gates whose
    arrows carry 2, -1 and 1 and whose one constant is 1/2 looks up four
    objects, not one per arrow and constant; it compiles to what a circuit
    whose every weight is an element of its own compiles to."""
    n = 100
    lines = ["vars x", "g0 = input x", "g1 = const 1/2"]
    for i in range(2, n):
        kind, wa, wb = ("add", "*2", "*-1") if i % 2 else ("mul", "", "*2")
        lines.append(f"g{i} = {kind} g{i - 1}{wa} g{i % 2}{wb}")
    lines.append(f"output g{n - 1}")
    embedded = []

    def counting(spec):
        embed_one = _embedder(spec)

        def spy(x):
            embedded.append(x)
            return embed_one(x)
        return spy

    monkeypatch.setattr("symdet.verify._embedder", counting)
    c = parse_circuit("\n".join(lines) + "\n")
    compiled = CompiledCircuit(c, PRIME_DEFAULT)
    assert len(embedded) == 4

    def own(x):
        return RATIONAL.from_fraction(x.value)

    c_own = Circuit({gid: Gate(gid, g.kind, g.name, g.value and own(g.value),
                               tuple((a, own(w)) for a, w in g.args))
                     for gid, g in c.gates.items()}, c.outputs)
    reference = CompiledCircuit(c_own, PRIME_DEFAULT)
    assert len(embedded) == 4 + 1 + 2 * (n - 2)  # and then once per arrow and constant
    assert (compiled.inputs, compiled.consts, compiled.program, compiled.degrees) == (
        reference.inputs, reference.consts, reference.program, reference.degrees)


@pytest.mark.parametrize("t", [1, 3])
def test_lane_det_sign_of_every_permutation_matrix_is_the_cover_sign(t):
    """The elimination's own parity of its pivot map against the oracle's,
    on every permutation matrix up to 6x6 over Z_p: with constant entries,
    which stay scalars, and with a variable in row 0, set to 1 in every
    lane, which makes the determinant a lane."""
    spec = PRIME_DEFAULT
    one = Weight.const(spec.one())
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            want = [spec.from_int(cover_sign(dict(enumerate(perm)))).value] * t
            for first in (one, Weight.var("x")):
                rows = [{j: one} for j in perm]
                rows[0] = {perm[0]: first}
                compiled = CompiledMatrix(SymbolicMatrix(rows, spec=spec), spec)
                assert compiled.lane_det({"x": [1] * t}, t) == want, (perm, first)


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**64)), min_size=1,
                       max_size=7),
       power=st.integers(0, 3))
def test_lane_power_matches_field_element_power(spec, values, power):
    xs = [field_value(spec, v % spec.size).value for v in values]
    before = list(xs)
    got = spec.arith.power(xs, power)
    assert got == [(FieldElement(spec, x) ** power).value for x in xs]
    assert xs == before


def test_identity_tests_never_box_trial_points(monkeypatch, fig1_formula):
    """Trial points are drawn straight into lanes: with ``sample_random``
    disabled everywhere, passing and failing verdicts still come out."""
    import sys

    from symdet.char2 import partial_perm_identity, square_matrix_char2

    gf = CircuitBuilder(GF2_16)
    x, y = gf.var("x"), gf.var("y")
    square = gf.build([gf.add(gf.mul(x, y), gf.var("z"))])
    gf = CircuitBuilder(GF2_16)
    other = gf.build([gf.mul(gf.var("x"), gf.var("y"))])
    m = sym_matrix(fig1_formula, "skinny")
    wrong = mutate_matrix(m, random.Random(1))
    names = [[f"b{i}{j}" for j in range(5)] for i in range(5)]
    b = SymbolicMatrix([[Weight.var(x) for x in row] for row in names], spec=GF2_16)

    def boxed(*args):
        raise AssertionError("a trial point was boxed")

    for module in [m for name, m in sys.modules.items() if name.startswith("symdet")]:
        if getattr(module, "sample_random", None) is sample_random:
            monkeypatch.setattr(module, "sample_random", boxed)
    for spec in (PRIME_DEFAULT, FieldSpec.prime(65537)):
        assert identity_test(fig1_formula, m, spec=spec, exact_upgrade=False).ok
        assert identity_test(fig1_formula, wrong, spec=spec).status == FAILED
    a = square_matrix_char2(square)
    assert identity_test(square, a, spec=GF2_16, power=2).ok
    assert identity_test(other, a, spec=GF2_16, power=2).status == FAILED
    assert partial_perm_identity(b, seed=4).ok


@pytest.mark.parametrize("power", [-1, -2])
def test_identity_test_rejects_negative_power(fig1_formula, power):
    m = sym_matrix(fig1_formula, "skinny")
    with pytest.raises(ValueError, match="power"):
        identity_test(fig1_formula, m, power=power)


def formal_degree(circuit) -> int:
    degree = {}
    for gid in circuit.topo_order():
        g = circuit.gates[gid]
        if g.kind in ("input", "const"):
            degree[gid] = 1 if g.kind == "input" else 0
        else:
            a, b = (degree[arg] for arg, _ in g.args)
            degree[gid] = max(a, b) if g.kind == "add" else a + b
    return degree[circuit.outputs[0]]


# constants and weights that embed into every field under test
CONSTANT_POOL = (0, 1, -1, 2, 7, Fraction(1, 3))
WEIGHT_POOL = (1, 1, 1, 0, 2, -1, 3, Fraction(2, 3))


@pytest.mark.parametrize("spec", COMPILED_FIELDS, ids=FIELD_IDS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), profile=st.sampled_from(["formula", "weakly-skew"]),
       t=st.sampled_from(LANE_COUNTS))
def test_compiled_circuit_matches_evaluate(spec, seed, profile, t):
    rng = random.Random(seed)
    c = random_circuit(profile, rng.randint(0, 12), 3, rng, constant_pool=CONSTANT_POOL,
                       const_prob=0.3, weighted=True, weight_pool=WEIGHT_POOL)
    points = [{v: sample_random(spec, rng) for v in c.variables} for _ in range(t)]
    compiled = CompiledCircuit(c, spec)
    want = [[evaluate(c, p, spec)[k].value for p in points] for k in range(len(c.outputs))]
    assert compiled.lane_evaluate(lanes_of(points), t) == want
    assert compiled.degrees == (formal_degree(c),)


def test_compiled_circuit_raises_like_evaluate():
    """A constant with no image in the field is refused when compiling."""
    b = CircuitBuilder()
    half = b.build([b.const(Fraction(1, 2))])
    with pytest.raises(MixedFields):
        evaluate(half, {}, GF2_16)
    with pytest.raises(MixedFields):
        CompiledCircuit(half, GF2_16)


def variable_lines(m: SymbolicMatrix) -> int:
    """The smaller of the number of rows and of columns of ``m`` holding a
    variable entry, which bounds the degree of det(m)."""
    cells = [(i, j) for i, row in enumerate(m.entries) for j, w in enumerate(row)
             if w.kind != "const"]
    return min(len({i for i, _ in cells}), len({j for _, j in cells}))


def reference_identity_test(circuit, m, spec, seed, power=1) -> dict:
    """A trial-by-trial identity test: ``circuits.evaluate`` against dense
    elimination on field elements, one point at a time."""
    trials = 20 if spec.size >= (1 << 32) else 40
    variables = tuple(sorted(set(circuit.variables) | set(m.variables())))
    bound = max(variable_lines(m), power * formal_degree(circuit), 1)
    out = {"status": VERIFIED_RANDOM, "trials": trials, "field": str(spec),
           "dimension": m.dim, "seed": seed, "degree_bound": bound,
           "error_bound_log2": trials * (math.log2(bound) - math.log2(spec.size))}
    rng = random.Random(seed)
    for _ in range(trials):
        point = {v: sample_random(spec, rng) for v in variables}
        lhs = evaluate(circuit, point, spec)[0] ** power
        rhs = _dense_det([[w.eval(point, spec) for w in row] for row in m.entries], spec)
        if lhs != rhs:
            out["status"] = FAILED
            out["witness"] = {"point": {v: x.render() for v, x in point.items()},
                              "lhs": lhs.render(), "rhs": rhs.render()}
            break
    return out


@pytest.mark.parametrize("spec", [PRIME_DEFAULT, FieldSpec.prime(65537)], ids=str)
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32), profile=st.sampled_from(["formula", "weakly-skew"]))
def test_identity_test_matches_trial_by_trial_reference(spec, seed, profile):
    rng = random.Random(seed)
    c = random_circuit(profile, rng.randint(1, 5), 3, rng, const_prob=0.1,
                       weighted=rng.random() < 0.5)
    m = sym_matrix(c, "skinny") if profile == "formula" else ws_sym_matrix(c, "fat")
    candidates = [m]
    if any(not w.is_zero() for row in m.entries for w in row):
        i, j = rng.choice([(i, j) for i in range(m.dim) for j in range(m.dim)
                           if not m.entry(i, j).is_zero()])
        candidates.append(m.with_entry(i, j, Weight.var(rng.choice(c.variables or ("x1",)))))
    for matrix in candidates:
        verdict = identity_test(c, matrix, spec=spec, seed=seed, exact_upgrade=False)
        assert verdict.to_json() == reference_identity_test(c, matrix, spec, seed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_char2_square_identity_test_matches_reference(seed):
    from symdet.char2 import square_matrix_char2

    rng = random.Random(seed)
    c = random_circuit("weakly-skew", rng.randint(1, 5), 2, rng, spec=GF2_16,
                       constant_pool=(1,), const_prob=0.2)
    a = square_matrix_char2(c)
    i, j = rng.randrange(a.dim), rng.randrange(a.dim)
    bad = a.with_entry(i, j, Weight.var("x1") if a.entry(i, j).is_zero()
                       else Weight.const(GF2_16.zero()))
    for matrix in (a, bad):
        verdict = identity_test(c, matrix, spec=GF2_16, power=2, seed=seed,
                                exact_upgrade=False)
        assert verdict.to_json() == reference_identity_test(c, matrix, GF2_16, seed, 2)


# -- trial counts and the stated bound -------------------------------------------


@pytest.mark.parametrize("trials", [0, -5])
def test_identity_test_rejects_fewer_than_one_trial(trials):
    b = CircuitBuilder()
    c = b.build([b.mul(b.var("x"), b.var("y"))])
    wrong = parse_matrix("1\n1")
    with pytest.raises(ValueError, match="at least one trial"):
        identity_test(c, wrong, trials=trials)


def test_verdict_states_schwartz_zippel_bound(fig1_formula):
    m = sym_matrix(fig1_formula, "skinny")
    js = identity_test(fig1_formula, m, seed=7).to_json()
    bound = max(variable_lines(m), 2)
    assert js["degree_bound"] == bound < m.dim
    assert js["error_bound_log2"] == pytest.approx(20 * math.log2(bound / PRIME_DEFAULT.p))
    assert js["error_bound_log2"] < -1000
    b = CircuitBuilder()
    f = b.build([b.add(b.var("x"), b.var("y"))])
    exact = identity_test(f, sym_matrix(f, "skinny")).to_json()
    assert "degree_bound" not in exact and "error_bound_log2" not in exact


@pytest.mark.parametrize("power", [0, 1, 3])
def test_identity_test_of_the_empty_matrix(power):
    """det of the 0x0 matrix is 1, which every power of 1 matches; the
    degree bound is clamped at 1, where log2 is defined."""
    b = CircuitBuilder()
    one = b.build([b.const(num(1))])
    js = identity_test(one, parse_matrix("0"), power=power, exact_upgrade=False).to_json()
    assert js["status"] == VERIFIED_RANDOM and js["degree_bound"] == 1
    assert js["error_bound_log2"] == pytest.approx(-20 * math.log2(PRIME_DEFAULT.p))


def test_identity_test_takes_the_variables_from_the_compiled_matrix(fig1_formula, monkeypatch):
    """Without the exact upgrade the dense matrix is scanned once, to compile
    it: with ``SymbolicMatrix.variables`` disabled the verdicts, witnesses
    included, stay the same."""
    m = sym_matrix(fig1_formula, "skinny")
    wrong = mutate_matrix(m, random.Random(1))
    expected = [identity_test(fig1_formula, x, seed=3, exact_upgrade=False).to_json()
                for x in (m, wrong)]
    assert [e["status"] for e in expected] == [VERIFIED_RANDOM, FAILED]

    def no_scan(self):
        raise AssertionError("second scan of the dense matrix")

    monkeypatch.setattr(SymbolicMatrix, "variables", no_scan)
    assert [identity_test(fig1_formula, x, seed=3, exact_upgrade=False).to_json()
            for x in (m, wrong)] == expected


# -- embedding each distinct constant once -----------------------------------


def spy_on_embed(monkeypatch) -> list:
    """Record every constant that compiling hands to ``fields.embed``."""
    calls = []

    def spy(x, spec):
        calls.append(x)
        return embed(x, spec)

    monkeypatch.setattr("symdet.verify.embed", spy)
    return calls


def test_compiling_a_weighted_circuit_embeds_each_distinct_constant_once(monkeypatch):
    c = random_circuit("weakly-skew", 60, 4, random.Random(7), constant_pool=CONSTANT_POOL,
                       const_prob=0.3, weighted=True, weight_pool=WEIGHT_POOL)
    constants = [g.value for g in c.gates.values() if g.kind == "const"]
    constants += [w for g in c.gates.values() for _, w in g.args]
    calls = spy_on_embed(monkeypatch)
    CompiledCircuit(c, PRIME_DEFAULT)
    assert len(calls) == len(set(calls)) and set(calls) == set(constants)
    assert len(calls) < len(constants)


def test_compiling_det_3_embeds_each_distinct_constant_once(monkeypatch):
    from symdet.determinant import det_sym_matrix

    m = det_sym_matrix(3)
    constants = [w.coeff for row in m.rows for w in row.values() if w.kind != "var"]
    calls = spy_on_embed(monkeypatch)
    CompiledMatrix(m, PRIME_DEFAULT)
    assert len(calls) == len(set(calls)) and set(calls) == set(constants)
    assert len(calls) < len(constants)


Z7 = FieldSpec.prime(7)


@pytest.mark.parametrize("first", [3, 5], ids=["same value first", "other value first"])
def test_compiling_a_circuit_refuses_a_constant_of_another_field(first):
    """A Z_7 constant among rational ones has no image in the test field,
    also when a rational constant of the same value was embedded before."""
    one = RATIONAL.one()
    for late in ("gate", "weight"):
        gates = {0: Gate(0, "const", value=num(first)), 1: Gate(1, "input", name="x")}
        if late == "gate":
            gates[2] = Gate(2, "const", value=Z7.from_int(3))
            gates[3] = Gate(3, "add", args=((0, one), (2, one)))
            gates[4] = Gate(4, "mul", args=((3, one), (1, one)))
        else:
            gates[3] = Gate(3, "add", args=((0, one), (1, Z7.from_int(3))))
        c = Circuit(gates, [max(gates)])
        with pytest.raises(MixedFields):
            CompiledCircuit(c, PRIME_DEFAULT)


@pytest.mark.parametrize("first", [3, 5], ids=["same value first", "other value first"])
def test_compiling_a_matrix_refuses_a_constant_of_another_field(first):
    for late in (Weight.const(Z7.from_int(3)), Weight.scaled("x", Z7.from_int(3))):
        m = SymbolicMatrix([{0: Weight.const(num(first)), 1: Weight.var("x")},
                            {0: Weight.var("y"), 1: late}])
        with pytest.raises(MixedFields):
            CompiledMatrix(m, PRIME_DEFAULT)
