"""Output checks for benchmark ops, with references independent of the CLI.

A build op passes when its matrix file is well formed, its dimension is
within the theorem bound recomputed here from ``measure`` (the CLI's own
"dimension <= bound" report is not read), and, for the symmetric methods,
the header says ``symmetric``, the rows are textually symmetric and the
entries stay in the construction's alphabet.  A verify op passes when the
CLI exits 0 with a positive verdict; ``verify`` reaches that verdict through
``identity_test`` against the circuit interpreter, and the DET_n matrix is
verified against the benchmark's own permutation expansion.
"""

from __future__ import annotations

SYMMETRIC_METHODS = ("sym", "ws-sym", "detsym", "char2-square")
ZERO_TOKENS = ("0", "0x0")


def theorem_bound(op) -> int:
    """Dimension bound of the construction, from the paper's theorems."""
    from symdet.circuits import measure

    if op.method == "detsym":
        return 4 * op.det_n**3 + 7
    c = op.circuit
    rep = measure(c)
    if op.method == "char2-square":
        return 2 * rep.fat + 2
    if op.method == "sym":
        if op.size == "green":
            return 2 * rep.green + 3
        # the skinny construction first turns each non-unit arrow weight
        # into a multiplication by a constant
        weighted = sum(1 for g in c.gates.values() for _, w in g.args if not w.is_one())
        return 2 * (rep.skinny + weighted) + 3
    if op.method == "valiant":
        from symdet.minimize import minimize

        # an addition-free green form takes the diagonal fallback
        has_add = any(g.kind == "add" for g in minimize(c).gates.values())
        return rep.green + 1 if has_add else rep.var_inputs + 1
    e_plus_i = rep.green + rep.var_inputs
    if op.method == "ws-sym":
        return 2 * rep.fat + 1 if op.size == "fat" else 2 * e_plus_i + 1
    if op.method == "ws-nonsym":
        return rep.fat + 1 if op.size == "fat" else e_plus_i + 1
    raise ValueError(f"no bound for method {op.method!r}")


def _alphabet_extras(op):
    """Constants beyond {0, 1, -1, 1/2} a matrix may hold, or None when the
    construction promises no alphabet (constants ride on computed scalars)."""
    if op.method == "detsym":
        return ()
    if op.method == "sym" and op.size == "skinny":
        # the weightless construction copies circuit constants and expanded
        # arrow weights onto edges
        c = op.circuit
        extras = {g.value for g in c.gates.values() if g.kind == "const"}
        extras.update(w for g in c.gates.values() for _, w in g.args)
        return extras
    return None


def matrix_stats(text: str) -> tuple[int, int]:
    """(dimension, nonzero entries) read from the matrix text."""
    lines = text.split("\n")
    dim = int(lines[0].split()[0])
    nnz = sum(1 for ln in lines[1 : dim + 1] for tok in ln.split() if tok not in ZERO_TOKENS)
    return dim, nnz


def check_build(op, text: str) -> list[str]:
    """Problems with a build op's matrix text (empty when it passes)."""
    errors = []
    lines = [ln.split() for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0][0].isdigit():
        return [f"{op.label}: no matrix header"]
    dim = int(lines[0][0])
    rows = lines[1:]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        return [f"{op.label}: matrix is not {dim}x{dim}"]
    bound = theorem_bound(op)
    if dim > bound:
        errors.append(f"{op.label}: dimension {dim} exceeds the theorem bound {bound}")
    if op.method in SYMMETRIC_METHODS:
        if lines[0][1:] != ["symmetric"]:
            errors.append(f"{op.label}: header {' '.join(lines[0])!r} is not symmetric")
        if any(rows[i][j] != rows[j][i] for i in range(dim) for j in range(i)):
            errors.append(f"{op.label}: entries are not symmetric")
    extras = _alphabet_extras(op)
    if extras is not None:
        from symdet.graphs import entries_alphabet_ok, parse_matrix

        try:
            if not entries_alphabet_ok(parse_matrix(text), extras):
                errors.append(f"{op.label}: entry outside the construction's alphabet")
        except ValueError as exc:
            errors.append(f"{op.label}: matrix does not parse: {exc}")
    return errors


def check_verify(op, rc: int, stdout: str) -> list[str]:
    """Problems with a verify op's verdict (empty when it passes)."""
    out = stdout.strip()
    if op.argv[0] == "pperm":
        ok = out.endswith(": True")
    else:
        ok = out.startswith("verified-")
    if rc != 0 or not ok:
        last = out.splitlines()[-1] if out else ""
        return [f"{op.label}: exit {rc}, verdict {last!r}"]
    return []
