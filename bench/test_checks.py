"""Tests of the benchmark's own checks: each must pass starform's real
outputs and fail a corrupted one.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks                                    # noqa: E402
import run                                       # noqa: E402
import starform                                  # noqa: E402
import workloads                                 # noqa: E402
from starform import PolyMatrix, StarPoly, Tower, canonicalize   # noqa: E402


def canonical_output(op):
    T = Tower(op["p"])
    A = PolyMatrix(T, [[StarPoly.from_ints(T, e) for e in row] for row in op["A"]])
    cert, cb = canonicalize(A, op["eps"])
    F = checks.Field.of_tower(T)
    return (F, checks.matrix_from_ints(F, op["A"]), checks.matrix_of(F, cert.S),
            checks.matrix_of(F, cert.B),
            [checks.block_of(F, b, op["eps"]) for b in cb.blocks])


@pytest.fixture(scope="module")
def scrambled():
    """A nonsingular skew 4x4 scrambled input over F_5, with a 2x2 block,
    and its canonical output.  (A singular one would let a corruption of S
    along the kernel go unseen, rightly.)"""
    for s in range(workloads.POOL["scrambled"]):
        op = workloads.operation("scrambled", (5, 4, -1), s)
        out = canonical_output(op)
        if all(op["sequence"]) and any(len(blk) == 2 for blk in out[4]):
            return op, out
    raise AssertionError("no suitable pool member")


@pytest.fixture(scope="module")
def extension():
    """A dense hermitian input whose reduction grows the tower."""
    op = workloads.operation("dense", (3, 2, 1), 0)
    out = canonical_output(op)
    assert out[0].top >= 1, "input chosen to leave the prime field"
    return op, out


def corrupt(F, M, i, j):
    """M with the t coefficient of entry (i, j) changed.  (Changing a
    constant can give another valid certificate: scaling a column of S by
    c with c^2 = 1.)"""
    M = [[list(e) for e in row] for row in M]
    M[i][j] = checks.padd(F, M[i][j], [F.zero, F.one])
    return M


@pytest.mark.parametrize("case", ["scrambled", "extension"])
def test_real_outputs_pass(case, request):
    op, (F, A, S, B, blocks) = request.getfixturevalue(case)
    checks.check_congruence(F, A, S, B)
    checks.check_direct_sum(F, B, blocks)
    if "sequence" in op:
        checks.check_invariant_factors(
            F, blocks, [checks.poly_from_ints(F, f) for f in op["sequence"]])


@pytest.mark.parametrize("case", ["scrambled", "extension"])
def test_frozen_outputs_pass(case, request):
    """The run checks each output in its frozen form, after the last pass."""
    op, _ = request.getfixturevalue(case)
    lib = run.Library(starform, decide=False)
    state = lib.prepare(op)
    lib.check(op, checks.frozen(lib.observe(op, state, lib.run(op, state))))


@pytest.mark.parametrize("case", ["scrambled", "extension"])
@pytest.mark.parametrize("which", ["S", "B", "A"])
def test_one_corrupted_coefficient_fails(case, which, request):
    _, (F, A, S, B, _) = request.getfixturevalue(case)
    n = len(A)
    mats = {"A": A, "S": S, "B": B}
    for i in range(n):
        for j in range(n):
            mats[which] = corrupt(F, {"A": A, "S": S, "B": B}[which], i, j)
            with pytest.raises(checks.CheckError):
                checks.check_congruence(F, mats["A"], mats["S"], mats["B"])


def test_non_unimodular_s_fails(scrambled):
    _, (F, A, S, B, _) = scrambled
    t = [F.zero, F.one]
    S2 = [list(row) for row in S]
    S2[0] = [checks.pmul(F, t, e) for e in S2[0]]      # det S2 = t det S
    B2 = checks.matmul(F, checks.matmul(F, checks.star_transpose(F, S2), A), S2)
    with pytest.raises(checks.CheckError, match="not unimodular"):
        checks.check_congruence(F, A, S2, B2)
    zero_row = [list(row) for row in S]
    zero_row[1] = [[] for _ in zero_row[1]]
    with pytest.raises(checks.CheckError, match="not unimodular"):
        checks.check_congruence(F, A, zero_row, B)


def test_block_with_nonzero_diagonal_fails(scrambled):
    _, (F, _, _, B, blocks) = scrambled
    k = next(i for i, blk in enumerate(blocks) if len(blk) == 2)
    off = sum(len(blk) for blk in blocks[:k])
    bad_block = [list(row) for row in blocks[k]]
    bad_block[0] = [[F.one], bad_block[0][1]]
    bad_B = [list(row) for row in B]
    bad_B[off] = list(bad_B[off])
    bad_B[off][off] = [F.one]
    bad_blocks = blocks[:k] + [bad_block] + blocks[k + 1:]
    with pytest.raises(checks.CheckError, match="nonzero diagonal"):
        checks.check_direct_sum(F, bad_B, bad_blocks)
    with pytest.raises(checks.CheckError):
        checks.check_direct_sum(F, bad_B, blocks)


def test_wrong_invariant_factors_fail(scrambled):
    op, (F, _, _, _, blocks) = scrambled
    seq = [checks.poly_from_ints(F, f) for f in op["sequence"]]
    seq[0] = checks.pmul(F, seq[0], [F.one, F.one])
    with pytest.raises(checks.CheckError):
        checks.check_invariant_factors(F, blocks, seq)


def test_wrong_congruence_decision_fails():
    checks.check_decision(True, True)
    checks.check_decision(False, False)
    with pytest.raises(checks.CheckError):
        checks.check_decision(True, False)
    with pytest.raises(checks.CheckError):
        checks.check_decision(False, True)


def test_decide_truth_by_construction():
    """The congruent pair's second matrix is E* C E with det E a unit."""
    op = workloads.operation("decide", (5, 3, 1), 7, congruent=True)
    no = workloads.operation("decide", (5, 3, 1), 7, congruent=False)
    assert op["truth"] is True and no["truth"] is False
    assert op["A"] != op["A2"]


def test_field_arithmetic_against_starform_tower():
    """The checks' extension arithmetic agrees with a tower's own on a
    quadratic extension of F_7 (x^2 - 3)."""
    T = Tower(7)
    u = T.grow_quadratic()
    F = checks.Field.of_tower(T)
    a = u + 2
    b = u * 3 + 5
    assert F.mul(checks.lift(a, 1), checks.lift(b, 1)) == checks.lift(a * b, 1)
    assert F.mul(checks.lift(a, 1), F.inv(checks.lift(a, 1))) == F.one


CERTIFICATE = """p = 5
epsilon = +1
n = 2
# generator u1: t^2 + 2
generator = u1^2 + 2
A = [ [ 1, 0 ], [ 0, 1 ] ]
S = [ [ u1, 0 ], [ 0, 1 ] ]
B = [ [ 1, 0 ], [ 0, 1 ] ]
"""


def test_split_certificate_keeps_every_generator_line():
    header, matrices = run.split_certificate(CERTIFICATE)
    assert header == ["p = 5", "# generator u1: t^2 + 2", "generator = u1^2 + 2"]
    assert matrices == {"A": "[ [ 1, 0 ], [ 0, 1 ] ]",
                        "S": "[ [ u1, 0 ], [ 0, 1 ] ]",
                        "B": "[ [ 1, 0 ], [ 0, 1 ] ]"}


def test_cli_check(tmp_path):
    """Only the known fault, a certificate whose generators cannot be read
    back, counts as a failed operation; any other exit code 2 is wrong."""
    cli = run.Cli(starform, tmp_path)
    yes = (0, "yes\n", "")
    cli.check({}, (yes, (0, "pass\n", "")))
    with pytest.raises(run.OperationFailed):
        cli.check({}, (yes, (2, "", "error: no generator for level 1\n")))
    with pytest.raises(checks.CheckError):
        cli.check({}, (yes, (2, "", "error: unparseable line: 'x'\n")))
    with pytest.raises(checks.CheckError):
        cli.check({}, (yes, (1, "fail: entry (0, 0)\n", "")))
    with pytest.raises(checks.CheckError):
        cli.check({}, ((0, "no\n", ""), (0, "pass\n", "")))
