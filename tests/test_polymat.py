import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from starform.tower import Tower
from starform.starpoly import StarPoly, parse_poly
from starform.polymat import (HERMITIAN, SKEW, Certificate, PolyMatrix,
                              Reduction, apply_matrix, determinant, form_kind,
                              form_value, gcd_of_matrix, invariant_factors,
                              inverse, is_unimodular, kernel_split,
                              smith_form, unimodular_completion, vector_gcd)
from starform.canonical import Block1, canonicalize


def M(rows, T):
    return PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in rows])


def rand_poly(T, rng, maxdeg):
    deg = rng.randint(-1, maxdeg)
    if deg < 0:
        return StarPoly.zero(T)
    coeffs = [rng.randrange(T.p) for _ in range(deg)]
    coeffs.append(rng.randrange(1, T.p))
    return StarPoly.from_ints(T, coeffs)


def rand_matrix(T, rng, n, maxdeg):
    return PolyMatrix(T, [[rand_poly(T, rng, maxdeg) for _ in range(n)]
                          for _ in range(n)])


def rand_ext_poly(T, rng, maxdeg):
    """A random polynomial whose coefficients lie in the top level of T."""
    deg = rng.randint(-1, maxdeg)
    coeffs = [T.random_element(T.num_levels(), rng) for _ in range(deg + 1)]
    while coeffs and coeffs[-1].is_zero():
        coeffs[-1] = T.random_element(T.num_levels(), rng)
    return StarPoly(T, coeffs)


def quadratic_tower(p):
    """A tower over F_p grown by one quadratic level u1."""
    T = Tower(p)
    T.grow_quadratic()
    return T


def elimination_cases(rng, trials, maxn, maxdeg):
    """(label, A) over towers that exercise both branches of the
    elimination loops: entries in a quadratic level u1, F_p entries with one
    u1 entry away from the corner, F_p entries in a tower that has already
    grown a level (the loop must take the level from the entries, not from
    the tower), and F_65537."""
    for label in ("u1", "mixed", "grown", "65537"):
        T = Tower(65537) if label == "65537" else quadratic_tower(rng.choice([3, 5]))
        for _ in range(trials):
            m, n = rng.randint(1, maxn), rng.randint(1, maxn)
            poly = rand_ext_poly if label == "u1" else rand_poly
            rows = [[poly(T, rng, maxdeg) for _ in range(n)] for _ in range(m)]
            if label == "mixed":
                i, j = rng.randrange(m), rng.randrange(n)
                if m * n > 1 and (i, j) == (0, 0):
                    i, j = m - 1, n - 1
                e = StarPoly.monomial(T, T.generator(1), rng.randint(0, maxdeg))
                rows[i][j] = rows[i][j] + e
            yield label, PolyMatrix(T, rows)


def det_by_cofactors(A):
    """The determinant by expansion along the first row."""
    n = A.rows
    if n == 0:
        return StarPoly.one(A.tower)
    total = StarPoly.zero(A.tower)
    for j in range(n):
        minor = A.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = A.entries[0][j] * det_by_cofactors(minor)
        total = total - term if j % 2 else total + term
    return total


def rand_eps_form(T, rng, n, eps, maxdeg):
    z = StarPoly.zero(T)
    E = [[z] * n for _ in range(n)]
    for i in range(n):
        deg = rng.randint(0, maxdeg)
        coeffs = [rng.randrange(T.p) if (k % 2 == (0 if eps == 1 else 1)) else 0
                  for k in range(deg + 1)]
        E[i][i] = StarPoly.from_ints(T, coeffs)
        for j in range(i + 1, n):
            a = rand_poly(T, rng, maxdeg)
            E[i][j] = a
            E[j][i] = a.star() if eps == 1 else -a.star()
    return PolyMatrix(T, E)


# ---------------- star transpose and form kind ----------------

def test_star_transpose_examples():
    T = Tower(5)
    A = M([["0", "t"], ["t", "t^3"]], T)
    assert A.star_transpose() == M([["0", "-t"], ["-t", "-t^3"]], T)
    I = PolyMatrix.identity(T, 3)
    assert I.star_transpose() == I


def test_star_transpose_involutive():
    T = Tower(5)
    rng = random.Random(1)
    for _ in range(50):
        A = rand_matrix(T, rng, rng.randint(1, 4), 4)
        assert A.star_transpose().star_transpose() == A
        B = rand_matrix(T, rng, A.rows, 3)
        assert (A @ B).star_transpose() == B.star_transpose() @ A.star_transpose()


def test_form_kind_examples():
    T = Tower(5)
    assert form_kind(M([["0", "1"], ["1", "0"]], T)) == HERMITIAN
    assert form_kind(M([["0", "t"], ["t", "t^3"]], T)) == SKEW
    assert form_kind(M([["t", "0"], ["0", "0"]], T)) == SKEW
    assert form_kind(M([["t", "1"], ["1", "0"]], T)) is None


def _form_kind_by_definition(A):
    st = A.star_transpose()
    return HERMITIAN if st == A else SKEW if st == -A else None


def test_form_kind_compares_entries():
    """form_kind against its definition (A* = A or A* = -A): square
    hermitian, skew, zero, neither, non-square, and forms changed in one
    entry, above, on or below the diagonal."""
    T = Tower(5)
    assert form_kind(M([["0", "0"], ["0", "0"]], T)) == HERMITIAN
    assert form_kind(M([["1", "t"]], T)) is None
    assert form_kind(M([["1"], ["t"]], T)) is None
    assert form_kind(M([["t^2", "t+1", "2"], ["-t+1", "1", "0"], ["2", "0", "0"]],
                       T)) == HERMITIAN
    assert form_kind(M([["t", "t+1"], ["t-1", "0"]], T)) == SKEW
    assert form_kind(M([["t", "t+1"], ["t+1", "0"]], T)) is None
    rng = random.Random(31)
    for trial in range(60):
        n = rng.randint(1, 4)
        eps = rng.choice([HERMITIAN, SKEW])
        A = rand_eps_form(T, rng, n, eps, 3)
        assert form_kind(A) == _form_kind_by_definition(A) == (
            HERMITIAN if A.is_zero() else eps)
        rows = [list(row) for row in A.entries]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rows[i][j] + StarPoly.monomial(T, rng.randrange(1, 5), rng.randint(0, 2))
        B = PolyMatrix(T, rows)
        assert form_kind(B) == _form_kind_by_definition(B)
        if i != j:
            assert form_kind(B) is None


def _in_towers(p, rows):
    """The matrix of ``rows`` in a fresh tower and in one grown a level."""
    grown = Tower(p)
    grown.grow()
    return [PolyMatrix(T, [[StarPoly.from_ints(T, e) for e in row] for row in rows])
            for T in (Tower(p), grown)]


def test_form_kind_level0_matches_element_branch():
    """form_kind on a level-0 matrix in a fresh tower, where it negates by
    residue, agrees with the same matrix in a tower grown a level, where it
    negates elements, and with the definition: hermitian, skew and neither
    forms, and forms with one coefficient changed."""
    rng = random.Random(41)
    for trial in range(120):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 4)
        eps = rng.choice([HERMITIAN, SKEW])
        A = rand_eps_form(Tower(p), rng, n, eps, 4)
        rows = [[[c.rep for c in e.coeffs] for e in row] for row in A.entries]
        if trial % 3 == 1:  # one coefficient changed
            e = rows[rng.randrange(n)][rng.randrange(n)]
            if e:
                k = rng.randrange(len(e))
                e[k] = (e[k] + rng.randrange(1, p)) % p
        elif trial % 3 == 2:
            rows = [[[rng.randrange(p) for _ in range(rng.randint(0, 3))]
                     for _ in range(n)] for _ in range(n)]
        fresh, grown = _in_towers(p, rows)
        assert form_kind(fresh) == form_kind(grown) == _form_kind_by_definition(fresh)


def test_level0_elimination_matches_element_branch(monkeypatch):
    """smith_form, invariant_factors and determinant of level-0 matrices
    give the same results on int lists as on element lists: square and
    rectangular, singular (a repeated row), and with a constant pivot."""
    from starform import polymat
    rng = random.Random(43)
    for _ in range(80):
        p = rng.choice([3, 5, 7])
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[[rng.randrange(p) for _ in range(rng.randint(0, 4))]
                 for _ in range(n)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            rows[-1] = rows[0]
        if rng.random() < 0.3:
            rows[rng.randrange(m)][0] = [rng.randrange(1, p)]
        for A in _in_towers(p, rows):
            def results():
                sf = smith_form(A)
                det = determinant(A) if A.is_square() else None
                return sf.U, sf.V, sf.D, sf.factors, invariant_factors(A), det
            want = results()
            with monkeypatch.context() as mp:
                mp.setattr(polymat, "_above_fp", lambda A: True)
                assert results() == want


def test_form_value_examples():
    T = Tower(5)
    A = PolyMatrix.identity(T, 2)
    e1 = [StarPoly.one(T), StarPoly.zero(T)]
    assert form_value(A, e1, e1).is_one()
    # [[1, t], [-t, 1]] with v = (i, 1), i^2 = -1, is isotropic
    i = T.sqrt(T.elem(-1))
    A = M([["1", "t"], ["-t", "1"]], T)
    v = [StarPoly.const(T, i), StarPoly.one(T)]
    assert form_value(A, v, v).is_zero()


def test_form_value_symmetry():
    T = Tower(5)
    rng = random.Random(2)
    for eps in (HERMITIAN, SKEW):
        for _ in range(40):
            n = rng.randint(1, 3)
            A = rand_eps_form(T, rng, n, eps, 3)
            v = [rand_poly(T, rng, 2) for _ in range(n)]
            w = [rand_poly(T, rng, 2) for _ in range(n)]
            lhs = form_value(A, v, w).star()
            rhs = form_value(A, w, v)
            assert lhs == (rhs if eps == HERMITIAN else -rhs)


# ---------------- determinant ----------------

def test_determinant_examples():
    T = Tower(5)
    a = parse_poly("t+1", T)
    b = parse_poly("t^2", T)
    A = PolyMatrix(T, [[StarPoly.zero(T), a], [a.star(), b]])
    assert determinant(A) == -(a * a.star())
    assert determinant(PolyMatrix.identity(T, 4)).is_one()


def test_determinant_congruence_law():
    T = Tower(5)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = rand_matrix(T, rng, n, 3)
        red = Reduction(A)
        for _ in range(4):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                red.transvection(i, j, rand_poly(T, rng, 2))
        dS = determinant(red.S)
        assert determinant(red.B) == dS.star() * determinant(A) * dS


def test_determinant_multiplicative():
    """det(AB) = det A det B, and det A equals its cofactor expansion, over
    F_3 and over the towers of elimination_cases."""
    T = Tower(3)
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 3)
        A = rand_matrix(T, rng, n, 3)
        B = rand_matrix(T, rng, n, 3)
        assert determinant(A @ B) == determinant(A) * determinant(B)
        assert determinant(A) == det_by_cofactors(A)
    for label, A in elimination_cases(rng, 12, 3, 2):
        A = A.submatrix(range(min(A.rows, A.cols)), range(min(A.rows, A.cols)))
        B = PolyMatrix(A.tower, [list(reversed(row)) for row in A.entries])
        dA = determinant(A)
        assert dA == det_by_cofactors(A), label
        assert determinant(B) == det_by_cofactors(B), label
        assert determinant(A @ B) == dA * determinant(B), label


# ---------------- smith form ----------------

def test_smith_examples():
    T = Tower(5)
    A = M([["1", "0"], ["0", "t^2-1"]], T)
    sf = smith_form(A)
    assert [str(f) for f in sf.factors] == ["1", "t^2-1"]
    A = M([["0", "t"], ["t", "t^3"]], T)
    sf = smith_form(A)
    assert str(sf.factors[0]) == "t"
    assert (sf.U @ A) @ sf.V == sf.D


def test_smith_random_properties():
    rng = random.Random(5)
    for _ in range(60):
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(1, 4)
        A = rand_matrix(T, rng, n, 3)
        sf = smith_form(A)
        assert (sf.U @ A) @ sf.V == sf.D
        assert is_unimodular(sf.U) and is_unimodular(sf.V)
        nz = [f for f in sf.factors if not f.is_zero()]
        for f in nz:
            assert f.lc().is_one()
        for a, b in zip(nz, nz[1:]):
            assert a.divides(b)
        # factors invariant under unimodular multiplication
        red = Reduction(A)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                red.transvection(i, j, rand_poly(T, rng, 2))
        assert invariant_factors(red.B) == sf.factors
    for label, A in elimination_cases(rng, 8, 3, 2):
        sf = smith_form(A)
        assert (sf.U @ A) @ sf.V == sf.D, label
        assert is_unimodular(sf.U) and is_unimodular(sf.V), label
        nz = [f for f in sf.factors if not f.is_zero()]
        assert all(f.lc().is_one() for f in nz), label
        assert all(a.divides(b) for a, b in zip(nz, nz[1:])), label
        assert invariant_factors(A) == sf.factors, label


def test_t_scaling_law():
    rng = random.Random(6)
    for _ in range(40):
        T = Tower(rng.choice([3, 5]))
        t = StarPoly.t(T)
        n = rng.randint(1, 3)
        A = rand_matrix(T, rng, n, 3)
        fa = invariant_factors(A)
        fta = invariant_factors(A.scale(t))
        expected = tuple(f if f.is_zero() else (t * f) for f in fa)
        assert fta == expected


def test_invariant_factors_match_smith_form():
    """invariant_factors runs the Smith loop without U and V; its diagonal
    must be the one smith_form reports."""
    rng = random.Random(12)
    for p in (3, 5):
        T = Tower(p)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            A = PolyMatrix(T, [[rand_poly(T, rng, 3) for _ in range(n)]
                               for _ in range(m)])
            assert invariant_factors(A) == smith_form(A).factors
            if 2 <= m <= n:  # rank below min(m, n): a repeated row
                rows = [list(r) for r in A.entries]
                rows[-1] = rows[0]
                S = PolyMatrix(T, rows)
                fs = invariant_factors(S)
                assert fs == smith_form(S).factors and fs[-1].is_zero()
    T = Tower(5)
    u = T.sqrt(T.elem(2))
    assert "u1" in str(u)
    A = PolyMatrix(T, [[parse_poly("t^2+1", T), StarPoly.const(T, u)],
                       [parse_poly("t", T), parse_poly("t^3-t", T)]])
    fs = invariant_factors(A)
    assert fs == smith_form(A).factors
    assert fs[0].is_one() and fs[1].degree() == 5
    for label, A in elimination_cases(rng, 10, 4, 3):
        fs = invariant_factors(A)
        assert fs == smith_form(A).factors, label
        if A.rows >= 2:  # a repeated row lowers the rank
            S = PolyMatrix(A.tower, list(A.entries[:-1]) + [A.entries[0]])
            fs = invariant_factors(S)
            assert fs == smith_form(S).factors, label
            if A.rows <= A.cols:
                assert fs[-1].is_zero(), label


def _diag(T, entries, rows=None, cols=None):
    """The matrix with the given diagonal (entries parsed over T), zero
    elsewhere, of size rows x cols (square by default)."""
    rows = rows or len(entries)
    cols = cols or rows
    return PolyMatrix(T, [[parse_poly(entries[i], T) if i == j and i < len(entries)
                           else StarPoly.zero(T) for j in range(cols)]
                          for i in range(rows)])


def test_invariant_factors_of_diagonals_out_of_chain_order():
    """invariant_factors skips the divisibility sweep: the untracked loop
    leaves these diagonals as they are, and the gcd/lcm pass makes them a
    chain."""
    T = Tower(5)
    T.sqrt(T.elem(2))  # grows u1, u1^2 = 2
    cases = [
        (_diag(T, ["t+1", "t"]), ["1", "t^2+t"]),
        (_diag(T, ["t^2+1", "t^2+2", "0"]), ["1", "t^4-2*t^2+2", "0"]),
        (_diag(T, ["t+u1", "t-u1"]), ["1", "t^2-2"]),
        (_diag(T, ["t^2", "t^3+t", "t"]), ["t", "t", "t^4+t^2"]),
        (_diag(T, ["t", "t+1"], rows=2, cols=3), ["1", "t^2+t"]),
        (_diag(T, ["t^2-1", "t"], rows=3, cols=2), ["1", "t^3-t"]),
    ]
    for A, want in cases:
        fs = invariant_factors(A)
        assert [str(f) for f in fs] == want, str(A)
        assert fs == smith_form(A).factors, str(A)


def _unimodular(T, rng, n, poly):
    """A random unimodular n x n matrix: unit lower times unit upper
    triangular, with entries drawn by poly."""
    z, o = StarPoly.zero(T), StarPoly.one(T)
    L = PolyMatrix(T, [[poly() if j < i else (o if i == j else z) for j in range(n)]
                       for i in range(n)])
    R = PolyMatrix(T, [[poly() if j > i else (o if i == j else z) for j in range(n)]
                       for i in range(n)])
    return L @ R


def test_invariant_factors_of_scrambled_non_chain_diagonals():
    """U D V with U, V unimodular and D a diagonal that is not a chain, at
    level 0 and with u1 coefficients: invariant_factors agrees with
    smith_form, and the factors form a monic chain whose product is the
    product of D's monic entries."""
    rng = random.Random(31)
    seen_non_chain = 0
    for level in (0, 1):
        for _ in range(25):
            T = quadratic_tower(rng.choice([3, 5])) if level else Tower(rng.choice([3, 5, 7]))
            n = rng.randint(2, 4)
            poly = ((lambda: rand_ext_poly(T, rng, 1)) if level
                    else (lambda: rand_poly(T, rng, 1)))
            diag = []
            for _ in range(n):
                f = StarPoly.zero(T)
                while f.degree() < 1:
                    f = poly()
                diag.append(f.monic())
            if all(a.divides(b) for a, b in zip(diag, diag[1:])):
                continue
            seen_non_chain += 1
            D = PolyMatrix.diagonal(T, diag)
            A = (_unimodular(T, rng, n, poly) @ D) @ _unimodular(T, rng, n, poly)
            fs = invariant_factors(A)
            assert fs == smith_form(A).factors
            assert fs == invariant_factors(D) == smith_form(D).factors
            assert all(f.lc().is_one() for f in fs)
            assert all(a.divides(b) for a, b in zip(fs, fs[1:]))
            prod_f, prod_d = StarPoly.one(T), StarPoly.one(T)
            for f, d in zip(fs, diag):
                prod_f, prod_d = prod_f * f, prod_d * d
            assert prod_f == prod_d
    assert seen_non_chain >= 30


def test_smith_form_pinned():
    """smith_form's U, V and D text, fixed: a diagonal whose divisibility
    sweep finds a culprit, and a matrix with a u1 entry."""
    T = Tower(5)
    sf = smith_form(M([["t", "0"], ["0", "t+1"]], T))
    assert str(sf.U) == "[[1, 1], [t+1, t]]"
    assert str(sf.V) == "[[-1, t+1], [1, -t]]"
    assert str(sf.D) == "[[1, 0], [0, t^2+t]]"
    u = T.sqrt(T.elem(2))
    assert str(u) == "u1"
    A = PolyMatrix(T, [[parse_poly("t^2+1", T), StarPoly.const(T, u)],
                       [parse_poly("t", T), parse_poly("t^3-t", T)]])
    sf = smith_form(A)
    assert str(sf.U) == "[[(3*u1), 0], [t^3-t, (4*u1)]]"
    assert str(sf.V) == "[[0, 1], [1, (2*u1)*t^2+(2*u1)]]"
    assert str(sf.D) == "[[1, 0], [0, t^5+(4*u1+4)*t]]"


def test_level0_products_match_element_branch(monkeypatch):
    """Matrix products, window products and Reduction.embed over F_p give
    the same entries on int lists as on element lists, sparse entries
    included."""
    from starform import polymat
    rng = random.Random(44)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        T = Tower(p) if rng.random() < 0.5 else quadratic_tower(p)
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = PolyMatrix(T, [[rand_poly(T, rng, 3) if rng.random() < 0.6
                            else StarPoly.zero(T) for _ in range(k)] for _ in range(m)])
        B = PolyMatrix(T, [[rand_poly(T, rng, 3) if rng.random() < 0.6
                            else StarPoly.zero(T) for _ in range(n)] for _ in range(k)])
        w = rng.randint(1, k)
        off = rng.randint(0, k - w)
        S = rand_matrix(T, rng, w, 2)
        F = rand_eps_form(T, rng, k, 1, 2)

        def results():
            red = Reduction(F)
            red.embed(S, off)
            return A @ B, polymat.mul_window(A, S, off), red.S, red.B
        want = results()
        with monkeypatch.context() as mp:
            mp.setattr(polymat, "_above_fp", lambda A: True)
            assert results() == want


def _poly_of_length(T, rng, length, full=False):
    """A polynomial with ``length`` coefficients (zero when 0), random with
    a nonzero top, or every one p - 1 when ``full``."""
    if not length:
        return StarPoly.zero(T)
    if full:
        return StarPoly.from_ints(T, [T.p - 1] * length)
    return StarPoly.from_ints(T, [rng.randrange(T.p) for _ in range(length - 1)]
                              + [rng.randrange(1, T.p)])


def _product_by_entries(A, B):
    """A B by the definition, each entry a sum of StarPoly products."""
    z = StarPoly.zero(A.tower)
    return PolyMatrix(A.tower, [[sum((a * b for a, b in zip(row, col)), z)
                                 for col in zip(*B.entries)] for row in A.entries])


def _near_identities(T, n):
    """n x n matrices that differ from the identity in one entry: the last
    diagonal entry, an entry below the diagonal, one above it."""
    one, z = StarPoly.one(T), StarPoly.zero(T)
    x = StarPoly.from_ints(T, [1, 1])
    changes = [(n - 1, n - 1, x)]
    if n > 1:
        changes += [(n - 1, 0, one), (0, n - 1, x)]
    out = []
    for i, j, e in changes:
        rows = [[one if a == b else z for b in range(n)] for a in range(n)]
        rows[i][j] = e
        out.append(PolyMatrix(T, rows))
    return out


@pytest.mark.parametrize("p", [3, 7, 65537])
def test_packed_products_match_schoolbook(p):
    """Products over F_p on packed ints equal the entry-by-entry product:
    entries of 0 to 40 coefficients (at 65537 a slot then passes 32 bits),
    entries whose every coefficient is p - 1, so that a slot reaches its
    bound, all-zero rows, 1 x 1 matrices and windows.  An identity operand
    is returned as the other one, and a matrix one entry away from the
    identity is multiplied."""
    from starform import polymat
    rng = random.Random(p)
    T = Tower(p)
    for trial in range(30):
        m, k, n = ((1, 1, 1) if trial < 3 else
                   (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)))
        top = rng.choice([1, 2, 8, 40])
        full = trial % 4 == 0
        rows = [[_poly_of_length(T, rng, top if full else rng.randint(0, top), full)
                 for _ in range(k)] for _ in range(m)]
        if trial % 5 == 1:
            rows[rng.randrange(m)] = [StarPoly.zero(T)] * k
        A = PolyMatrix(T, rows)
        B = PolyMatrix(T, [[_poly_of_length(T, rng, top if full else rng.randint(0, top),
                                            full) for _ in range(n)] for _ in range(k)])
        assert A @ B == _product_by_entries(A, B)
        w = rng.randint(1, k)
        off = rng.randint(0, k - w)
        S = PolyMatrix(T, [[_poly_of_length(T, rng, rng.randint(0, top), full)
                            for _ in range(w)] for _ in range(w)])
        E = PolyMatrix.block_diag(T, [PolyMatrix.identity(T, off), S,
                                      PolyMatrix.identity(T, k - off - w)])
        assert PolyMatrix(T, polymat.mul_window(A, S, off)) == _product_by_entries(A, E)
        I_m, I_k = PolyMatrix.identity(T, m), PolyMatrix.identity(T, k)
        assert (I_m @ A) is A and (A @ I_k) is A and (I_k @ I_k) is I_k
        assert polymat.mul_window(A, PolyMatrix.identity(T, w), off) == \
            [list(row) for row in A.entries]
        for X in _near_identities(T, k):
            assert A @ X == _product_by_entries(A, X)
            assert X @ B == _product_by_entries(X, B)


def _congruence_by_entries(S, A):
    return _product_by_entries(_product_by_entries(S.star_transpose(), A), S)


@pytest.mark.parametrize("p", [3, 7, 65537])
def test_congruence_product_matches_star_transpose_products(p):
    """The fused S* A S equals (S* A) S by entries: hermitian, skew and
    general A, square and rectangular S, entries of up to 40 coefficients,
    every coefficient p - 1 (each slot of the triple product at its
    bound), odd coefficients in S (the star), S one entry away from the
    identity, and the identity itself, which returns A."""
    from starform.polymat import congruence_product
    rng = random.Random(p + 1)
    T = Tower(p)
    for trial in range(24):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        full = trial % 4 == 0
        top = 1 if trial % 8 == 0 else rng.choice([2, 6, 40])
        kind = trial % 3
        if kind == 2 or full:
            A = PolyMatrix(T, [[_poly_of_length(T, rng, top if full else rng.randint(0, top),
                                                full) for _ in range(n)] for _ in range(n)])
        else:
            A = rand_eps_form(T, rng, n, (1, -1)[kind], min(top, 8))
        S = PolyMatrix(T, [[_poly_of_length(T, rng, top if full else rng.randint(0, top),
                                            full) for _ in range(m)] for _ in range(n)])
        assert congruence_product(S, A) == _congruence_by_entries(S, A)
        assert congruence_product(PolyMatrix.identity(T, n), A) is A
        for X in _near_identities(T, n):
            assert congruence_product(X, A) == _congruence_by_entries(X, A)


def test_congruence_product_level0_matches_element_branch(monkeypatch):
    """In a grown tower, with and without u1 coefficients, the fused S* A S
    equals (S* A) S by entries, and the element branch, forced for entries
    over F_p, gives the same entries."""
    from starform import polymat
    congruence_product = polymat.congruence_product
    rng = random.Random(45)
    for p in (3, 5, 7):
        T = quadratic_tower(p)
        for trial in range(10):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            poly = rand_ext_poly if trial % 2 else rand_poly
            A = PolyMatrix(T, [[poly(T, rng, 4) for _ in range(n)] for _ in range(n)])
            S = PolyMatrix(T, [[poly(T, rng, 4) for _ in range(m)] for _ in range(n)])
            want = congruence_product(S, A)
            assert want == _congruence_by_entries(S, A)
            with monkeypatch.context() as mp:
                mp.setattr(polymat, "_above_fp", lambda A: True)
                assert congruence_product(S, A) == want


_CERTIFICATE_CORRUPTIONS = r"""
import sys
from starform import PolyMatrix, Tower, parse_poly
from starform.polymat import Certificate, CertificateError, congruence_product

def M(rows, T):
    return PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in rows])

def corrupt(M, i, j, k):
    # M with the t^k coefficient of entry (i, j) raised by one
    rows = [list(row) for row in M.entries]
    rows[i][j] = rows[i][j] + parse_poly(f"t^{k}", M.tower)
    return PolyMatrix(M.tower, rows)

for p in (7, 65537):
    T = Tower(p)
    A = M([["t^6+1", "t^3+2*t+5"], ["-t^3-2*t+5", "3*t^6-2"]], T)
    S = M([["1", "t^3+t^2+3"], ["0", "1"]], T)
    B = congruence_product(S, A)
    Certificate(S, B).check(A)
    D = M([["t", "0"], ["0", "1"]], T)
    for S1, B1 in ((D, congruence_product(D, A)), (S, corrupt(B, 1, 0, 5)),
                   (corrupt(S, 0, 1, 2), B)):
        try:
            Certificate(S1, B1).check(A)
        except CertificateError as exc:
            print(p, exc)
        else:
            sys.exit("a corrupt certificate passed")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_certificate_check_rejects_corruptions(flags):
    """At p = 7 and p = 65537, with and without python -O, the check
    rejects a non-unimodular S with S* A S = B, one changed coefficient of
    B and one changed coefficient of S, which keeps det S = 1, so only the
    product finds it."""
    src = str(Path(__import__("starform").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-c", _CERTIFICATE_CORRUPTIONS],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6
    for p, got in zip((7, 65537), (lines[:3], lines[3:])):
        assert got[0] == f"{p} not unimodular"
        assert got[1].startswith(f"{p} entry (2,1): ")
        assert got[2].startswith(f"{p} entry (")


# ---------------- matrix gcd ----------------

def test_gcd_of_matrix_examples():
    T = Tower(5)
    A = M([["0", "t"], ["t", "t^3"]], T)
    d, par = gcd_of_matrix(A)
    assert str(d) == "t" and par == "odd"
    U = M([["1", "t"], ["0", "1"]], T)
    d, _ = gcd_of_matrix(U)
    assert d.is_one()
    with pytest.raises(ValueError):
        gcd_of_matrix(PolyMatrix.zeros(T, 2, 2))


def test_gcd_matches_first_invariant_factor():
    rng = random.Random(7)
    for _ in range(40):
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(1, 4)
        A = rand_eps_form(T, rng, n, rng.choice([1, -1]), 3)
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        assert d == invariant_factors(A)[0]


# ---------------- kernel split ----------------

def test_kernel_split_examples():
    T = Tower(5)
    A = PolyMatrix.zeros(T, 2, 2)
    cert = kernel_split(A)
    assert cert.B.is_zero() and cert.verify(A)

    A = M([["t", "t"], ["t", "t"]], T)
    cert = kernel_split(A)
    assert cert.verify(A)
    assert cert.B.entries[0][0].is_zero()
    assert str(cert.B.entries[1][1]) == "t"

    A = M([["0", "1"], ["1", "0"]], T)
    cert = kernel_split(A)
    assert cert.B == A and cert.S == PolyMatrix.identity(T, 2)


def test_kernel_split_random():
    rng = random.Random(8)
    for _ in range(30):
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(2, 4)
        A = rand_eps_form(T, rng, n, rng.choice([1, -1]), 2)
        cert = kernel_split(A)
        assert cert.verify(A)
        r = sum(1 for f in invariant_factors(A) if not f.is_zero())
        k = n - r
        for i in range(n):
            for j in range(n):
                if i < k or j < k:
                    assert cert.B.entries[i][j].is_zero()
        if r:
            core = cert.B.submatrix(range(k, n), range(k, n))
            assert not determinant(core).is_zero()


def test_canonicalize_full_rank_and_singular():
    """canonicalize calls kernel_split only below full rank; both paths
    must verify and put the zero blocks last."""
    rng = random.Random(13)
    for p in (3, 5):
        T = Tower(p)
        for eps in (HERMITIAN, SKEW):
            for kernel in (0, 1, 2):
                core = rand_eps_form(T, rng, 2, eps, 2)
                while determinant(core).is_zero():
                    core = rand_eps_form(T, rng, 2, eps, 2)
                n = 2 + kernel
                A = PolyMatrix.block_diag(
                    T, [core, PolyMatrix.zeros(T, kernel, kernel)])
                red = Reduction(A)
                for _ in range(3):
                    i, j = rng.sample(range(n), 2)
                    red.transvection(i, j, rand_poly(T, rng, 1))
                A = red.B
                cert, cb = canonicalize(A, eps)
                assert cert.verify(A)
                assert cert.B == cb.matrix()
                zero = [isinstance(b, Block1) and b.f.is_zero()
                        for b in cb.blocks]
                assert sum(zero) == kernel
                assert zero == sorted(zero)


# ---------------- unimodular completion ----------------

def test_unimodular_completion_examples():
    T = Tower(5)
    e2 = [StarPoly.zero(T), StarPoly.one(T), StarPoly.zero(T)]
    C = unimodular_completion(e2)
    assert C.column(0) == e2 and is_unimodular(C)

    i = T.sqrt(T.elem(-1))
    v = [StarPoly.const(T, i), StarPoly.one(T)]
    C = unimodular_completion(v)
    assert C.column(0) == v and is_unimodular(C)

    with pytest.raises(ValueError):
        unimodular_completion([parse_poly("t", T), parse_poly("t^2", T)])


def test_unimodular_completion_random():
    rng = random.Random(9)
    done = 0
    while done < 40:
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(2, 4)
        v = [rand_poly(T, rng, 3) for _ in range(n)]
        if all(x.is_zero() for x in v):
            continue
        g = vector_gcd(v)
        v = [x.exact_div(g) for x in v]
        C = unimodular_completion(v)
        assert C.column(0) == v
        assert is_unimodular(C)
        done += 1


_BROKEN_UNDER_O = r"""
import sys
if __debug__:
    sys.exit("not running under python -O")
from starform import StarPoly, Tower, parse_poly, polymat, randgen, starpoly
from starform.randgen import RandomSpec, generate

def report(run):
    try:
        run()
    except AssertionError as exc:
        print(exc)
    else:
        sys.exit("a broken invariant went unnoticed")

# a gcd that does not divide: the squarefree split of find_roots
T = Tower(3)
T.poly_gcd = lambda f, g: [T.one, T.one]
report(lambda: T.find_roots(parse_poly("t^2+1", T).coeffs))
# a Bezout gcd that is not 1 for a pure a
T = Tower(5)
good_bezout = starpoly.gcd_bezout
starpoly.gcd_bezout = lambda a, b: (StarPoly.t(a.tower), a, b)
report(lambda: starpoly.solve_norm_equation(StarPoly.one(T), StarPoly.const(T, 2), "+"))
starpoly.gcd_bezout = good_bezout
# a kernel that drops every product after the first, in its dot and in
# its fused multiply-add, f + c g taken as the dot of (1, f) and (c, g)
T = Tower(5)
good_dot = T.poly_dot
T.poly_dot = lambda pairs: good_dot(list(pairs)[:1])
T.poly_axpy = lambda f, c, g: list(f)
report(lambda: polymat.unimodular_completion(
    [parse_poly(e, T) for e in ("t", "t+1", "t^2")]))
# a scrambling that leaves the eps-form class
randgen.form_kind = lambda A: None
report(lambda: generate(RandomSpec(seed=1, p=5, n=2, eps=1, max_degree=2)))
"""


def test_library_checks_survive_python_O():
    """The tower's, starpoly's, polymat's and randgen's checks on their own
    results raise, so they still run under python -O, where an assert
    would be skipped."""
    src = str(Path(__import__("starform").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "gcd(g, g') does not divide g",
        "a pure polynomial is not coprime to its star",
        "unimodular completion does not extend the vector",
        "scrambling left the eps-form class"]


# ---------------- congruence accumulation ----------------

def test_reduction_identity_move():
    T = Tower(5)
    A = M([["0", "1"], ["1", "0"]], T)
    red = Reduction(A)
    red.apply(PolyMatrix.identity(T, 2))
    assert red.B == A and red.S == PolyMatrix.identity(T, 2)


def test_reduction_first_move_takes_the_matrix():
    """A fresh reduction's first apply takes S = M with no product by the
    identity; after any other move, or an S set by hand, apply multiplies."""
    T = Tower(5)
    A = M([["0", "t"], ["-t", "t^3"]], T)
    X = M([["1", "t"], ["0", "1"]], T)
    red = Reduction(A)
    red.apply(X)
    assert red.S is X and red.B == (X.star_transpose() @ A) @ X
    red.apply(X)
    assert red.S == X @ X
    red = Reduction(A)
    red.transvection(1, 0, StarPoly.one(T))
    S1 = red.S
    red.apply(X)
    assert red.S == S1 @ X
    red = Reduction(A)
    red.S = X
    red.apply(X)
    assert red.S == X @ X


def test_reduction_single_transvection_matches_direct():
    T = Tower(5)
    A = M([["0", "t"], ["-t", "t^3"]], T)
    x = parse_poly("t+2", T)
    red = Reduction(A)
    red.transvection(0, 1, x)
    Mv = M([["1", "0"], ["0", "1"]], T)
    Mv = PolyMatrix(T, [[StarPoly.one(T), x],
                        [StarPoly.zero(T), StarPoly.one(T)]])
    assert red.B == (Mv.star_transpose() @ A) @ Mv
    assert red.S == Mv


def test_reduction_hundred_moves_certificate():
    T = Tower(5)
    rng = random.Random(10)
    A = rand_eps_form(T, rng, 4, -1, 3)
    red = Reduction(A)
    for _ in range(100):
        kind = rng.random()
        if kind < 0.7:
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                red.transvection(i, j, rand_poly(T, rng, 1))
        elif kind < 0.85:
            red.scale_col(rng.randrange(4), StarPoly.const(T, rng.randrange(1, 5)))
        else:
            perm = list(range(4))
            rng.shuffle(perm)
            red.permute(perm)
    cert = red.certificate()
    assert cert.verify(A)


def test_inverse_roundtrip():
    rng = random.Random(11)
    T = Tower(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        red = Reduction(PolyMatrix.identity(T, n))
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                red.transvection(i, j, rand_poly(T, rng, 2))
        S = red.S
        assert S @ inverse(S) == PolyMatrix.identity(T, n)
        assert inverse(S) @ S == PolyMatrix.identity(T, n)
    # unimodular with u1 entries: det [[u, u^2 - 1], [1, u]] = 1, then a
    # transvection by u t
    u = StarPoly.const(T, T.sqrt(T.elem(2)))
    one, zero = StarPoly.one(T), StarPoly.zero(T)
    S = (PolyMatrix(T, [[u, u * u - one], [one, u]])
         @ PolyMatrix(T, [[one, u * StarPoly.t(T)], [zero, one]]))
    assert any(c.level for row in S.entries for e in row for c in e.coeffs)
    assert S @ inverse(S) == PolyMatrix.identity(T, 2)
    assert inverse(S) @ S == PolyMatrix.identity(T, 2)
    # not unimodular: det = t
    with pytest.raises(ValueError, match="not unimodular"):
        inverse(M([["1", "t"], ["0", "t"]], T))


def test_certificate_rejects_wrong_data():
    T = Tower(5)
    A = M([["0", "1"], ["1", "0"]], T)
    bad = Certificate(M([["t", "0"], ["0", "1"]], T), A)
    assert not bad.verify(A)
    wrong_b = Certificate(PolyMatrix.identity(T, 2), M([["0", "t"], ["t", "0"]], T))
    assert not wrong_b.verify(A)
