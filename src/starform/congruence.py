"""Constructive congruence reductions for hermitian and skew-hermitian
matrices over F[t] with t -> -t.

Every public operation returns data wrapped in an exactly verified
Certificate (S unimodular, S* A S = B).  The entry points:

- ``compress_form``: a nonsingular form -> a congruent one whose entries
  have degree at most deg det A, in at most sum s - deg det / 2
  leading-matrix moves for shifts s with deg a_ij <= s_i + s_j (on tA for
  skew A).  ``represent_one`` and ``sk_split`` check and reduce their
  input for the unchecked ``_unit_vector`` and ``_sk_split``, which the
  canonicalizer calls directly on windows it has reduced once.
- ``isotropic_vector``: a primitive nonzero v with v* A v = 0.
- ``represent_one`` / ``split_one``: hermitian gcd-1 matrices represent 1
  and split off a (1) block.
- ``her2_diagonalize``: 2x2 hermitian, gcd 1, det != 0 -> diag(1, det A).
- ``sk2_zero_diagonal``: 2x2 skew, gcd 1, det != 0 -> zero diagonal.
- ``sk_split``: n x n skew, gcd 1, det != 0 -> [[0,p],[-p*,0]] (+) D with
  p the canonical pure factor of the second invariant factor f2 = p p*
  and p p* dividing every entry of D.  Its pivot is a primitive isotropic
  x whose pairing x* A has content of degree deg p: the isotropic vector
  when that has it, else built in one pass from a left Smith transform
  U A V = diag(1, f2, ...), as x = p* a U* e0 + r U* e_d (f_d = f2) with
  (a, r) isotropic for a 2x2 form and a prime to p.  No search is made.
- ``block_swap``: congruence between 2x2 zero-diagonal skew blocks whose
  pure off-diagonal entries share a norm, in one move built from a gcd
  and an even Bezout relation; ``sk_split`` ends with it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .starpoly import (EVEN, StarPoly, canonical_pure_factor,
                       coprime_even_bezout, even_bezout, gcd as poly_gcd,
                       gcd_bezout, gcd_many, is_pure, norm_factor,
                       norm_factor_avoiding, pure_split, solve_norm_equation)
from .polymat import (HERMITIAN, SKEW, Certificate, PolyMatrix, Reduction,
                      apply_matrix, determinant, form_kind, form_value,
                      gcd_of_matrix, invariant_factors, kernel_split,
                      reduce_columns, smith_form, unimodular_completion,
                      vector_gcd)
from .tower import FieldElem, Tower

_SCAN_CAP = 4096


class ReductionError(RuntimeError):
    """A reduction failed to make progress; indicates an invariant violation."""


def _require(ok: bool, what: str) -> None:
    """A reduction's check on its own result: raise ReductionError unless
    ``ok``.  Unlike ``assert`` it also runs under ``python -O``."""
    if not ok:
        raise ReductionError(what)


def _scan(tower: Tower, what: str) -> Iterator[FieldElem]:
    """The scalars of ``tower.enumerate_scalars()``, at most _SCAN_CAP of
    them: asking for one more raises ReductionError(what)."""
    for count, lam in enumerate(tower.enumerate_scalars()):
        if count == _SCAN_CAP:
            raise ReductionError(what)
        yield lam


def _basis_vector(tower: Tower, n: int, i: int, value: Optional[StarPoly] = None):
    v = [StarPoly.zero(tower)] * n
    v[i] = value if value is not None else StarPoly.one(tower)
    return v


# ---------------------------------------------------------------------------
# degree reduction
# ---------------------------------------------------------------------------

def compress_form(A: PolyMatrix) -> Certificate:
    """Congruence from a nonsingular eps-form A to one whose entries have
    degree at most deg det A: the congruence analogue of leading-matrix
    reduction (Mulders-Storjohann, JSC 2003).

    It reduces the hermitian form H = A, or H = tA when A is skew (the same
    moves then give S* A S = S* H S / t), under shifts s with
    deg h_ij <= s_i + s_j.  The leading matrix L_ij = [t^(s_i+s_j)] h_ij has
    det L = [t^(2 sum s)] det H, so 2 sum s >= deg det H, with equality
    exactly when L is nonsingular.
    - While L is singular, take c with L c = 0 and j in its support with the
      largest s_j.  col_j += (c_i/c_j) t^(s_j-s_i) col_i clears the
      t^(s_k+s_j) coefficient of every entry of column j (the even diagonal
      drops by 2), so s_j - 1 is a shift: sum s falls by one per move.
    - Then L is nonsingular.  While the least shift s_i lies below 0 (below 1
      for skew A), row i of L has an entry L_iq != 0 with L_ii = 0.  Clearing
      row q of L against column i lets s_i rise and s_q fall by one, which
      keeps sum s and lowers sum s^2 when s_q >= s_i + 2.  A skew pair with
      s = (0, 1) is instead split off at infinity by also clearing row i
      against column q.
    Then deg h_ij <= s_i + s_j <= 2 sum s for hermitian A; for skew A the
    pairs and the shifts >= 1 bound deg a_ij by deg det A = 2 sum s - n."""
    T = A.tower
    n = A.rows
    red = Reduction(A)
    if n < 2:
        return red.certificate()
    # h_ij = t^o a_ij; a nonzero entry and its mirror tell the kind
    i0, j0 = next((i, j) for i in range(n) for j in range(i, n) if A.entries[i][j])
    o = int(A.entries[j0][i0] != A.entries[i0][j0].star())
    s = [max(e.degree() + o for e in row) for row in A.entries]

    def lead(i: int, j: int):
        return red.B.entries[i][j].coeff(s[i] + s[j] - o)

    def lower() -> None:
        # coordinate descent: each shift as low as the others allow
        D = [[(j, e.degree() + o) for j, e in enumerate(row) if e.coeffs]
             for row in red.B.entries]
        changed = True
        while changed:
            changed = False
            for i, row in enumerate(D):
                lo = max(d - s[j] if j != i else d // 2 for j, d in row)
                if lo < s[i]:
                    s[i] = lo
                    changed = True

    def clear(i: int, q: int) -> None:
        # zero row q of L outside column i by col_k += x col_i (L_ii = 0)
        piv = lead(q, i)
        if lead(q, q):
            red.transvection(i, q, StarPoly.monomial(
                T, -lead(q, q) / (2 * piv), s[q] - s[i]))
        for k in range(n):
            if k != i and k != q and lead(q, k):
                red.transvection(i, k, StarPoly.monomial(
                    T, -lead(q, k) / piv, s[k] - s[i]))

    def transfer() -> bool:
        for i in sorted(range(n), key=lambda k: (s[k], k)):
            if s[i] >= o:
                return False
            q = max((k for k in range(n) if lead(i, k)), key=lambda k: (s[k], -k))
            if s[q] >= s[i] + 2:
                clear(i, q)
                s[i] += 1
                s[q] -= 1
                return True
        return False

    lower()
    moves = 0
    while True:
        c = _null_vector([[lead(i, j) for j in range(n)] for i in range(n)])
        if c is None:
            break
        if not moves:
            # deg det H = deg det A + n o, found only when a move is due
            dd = determinant(A).degree()
            _require(dd >= 0, "compress_form needs a nonsingular form")
            budget = sum(s) - (dd + n * o) // 2
        moves += 1
        _require(moves <= budget, "compress_form overran its move bound")
        support = [i for i in range(n) if c[i]]
        j = max(support, key=lambda i: (s[i], -i))
        for i in support:
            if i != j:
                red.transvection(i, j, StarPoly.monomial(T, c[i] / c[j], s[j] - s[i]))
        s[j] -= 1
        lower()
    while transfer():
        pass
    for i in range(n):
        if s[i] < o:  # skew, s_i = 0: its partners at infinity have s = 1
            q = next(k for k in range(n) if lead(i, k))
            clear(i, q)
            clear(q, i)
    return red.certificate()


def _null_vector(L):
    """A nonzero c with L c = 0 for a square matrix of field elements, or
    None when L is nonsingular.  Gauss-Jordan elimination stops at the first
    column k without a pivot; columns 0..k-1 are then unit columns, so
    c = (-L'_0k, ..., -L'_(k-1)k, 1, 0, ..., 0) in the reduced L'."""
    M = [list(row) for row in L]
    n = len(M)
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            T = M[0][0].tower
            return [-M[i][k] for i in range(k)] + [T.one] + [T.zero] * (n - k - 1)
        M[k], M[p] = M[p], M[k]
        inv = 1 / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                f = M[i][k]
                M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return None


# ---------------------------------------------------------------------------
# isotropic vectors
# ---------------------------------------------------------------------------

def isotropic_vector(A: PolyMatrix, kind: int) -> List[StarPoly]:
    """Primitive nonzero v with v* A v = 0.

    Realizes the existence argument over the closure: a zero diagonal entry
    gives a basis vector; otherwise coordinates (i, j) and a norm factor
    w w* = b b* - a c (hermitian) or a c + b b* (skew) build one.  The pair
    is chosen to minimize the degree of the polynomial being factored, and a
    cheap constant-combination scan runs first.
    """
    T = A.tower
    n = A.rows
    for i in range(n):
        if A.entries[i][i].is_zero():
            return _basis_vector(T, n, i)
    if n < 2:
        raise ValueError("a 1x1 matrix with nonzero entry has no isotropic vector")
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            # constants lam with v = e_i + lam e_j isotropic need no factoring
            for value, v in _constant_mixes(A, i, j):
                if value.is_zero():
                    return v
            alpha = A.entries[i][i]
            beta = A.entries[i][j]
            gamma = A.entries[j][j]
            bb = beta * beta.star()
            y = bb - alpha * gamma if kind == HERMITIAN else alpha * gamma + bb
            if best is None or y.degree() < best[0]:
                best = (y.degree(), i, j, alpha, beta, y)
    _, i, j, alpha, beta, y = best
    w = StarPoly.zero(T) if y.is_zero() else norm_factor(y)
    v = _basis_vector(T, n, j, alpha)
    v[i] = w - beta
    g = vector_gcd(v)
    if not g.is_one():
        v = [e.exact_div(g) for e in v]
    _require(form_value(A, v, v).is_zero(), "isotropic vector is not isotropic")
    return v


def _isotropic_to_corner(red: Reduction, kind: int) -> None:
    """Congruence so the (0,0) entry of the working matrix becomes zero."""
    if red.B.entries[0][0].is_zero():
        return
    v = isotropic_vector(red.B, kind)
    red.apply(unimodular_completion(v))
    _require(red.B.entries[0][0].is_zero(),
             "isotropic completion left a nonzero corner")


def _reduce_row_tail(red: Reduction, target: int) -> None:
    """Column-Euclid on row 0 entries at columns >= 1, collecting their gcd
    at column ``target`` and zeroing the rest (paired row moves mirror it)."""
    T = red.B.tower
    n = red.B.rows
    while True:
        row = red.B.entries[0]
        nz = [j for j in range(1, n) if not row[j].is_zero()]
        if not nz:
            raise ValueError("row tail is zero; matrix is singular")
        piv = min(nz, key=lambda j: (row[j].degree(), j))
        changed = False
        for j in nz:
            if j == piv:
                continue
            q = red.B.entries[0][j] // red.B.entries[0][piv]
            red.transvection(piv, j, -q)
            if not red.B.entries[0][j].is_zero():
                changed = True
        if not changed:
            nz = [j for j in range(1, n) if not red.B.entries[0][j].is_zero()]
            if len(nz) == 1:
                piv = nz[0]
                break
    if piv != target:
        perm = list(range(n))
        perm[piv], perm[target] = perm[target], perm[piv]
        red.permute(perm)


# ---------------------------------------------------------------------------
# representing 1 (hermitian)
# ---------------------------------------------------------------------------

def _homogeneous_bezout(a0: StarPoly, b: StarPoly) -> Tuple[StarPoly, StarPoly]:
    """x homogeneous, y even with a0 x + b y = 1, given a0 homogeneous,
    b even, gcd(a0, b) = 1.  Adjusts so that y(0) != 0."""
    T = a0.tower
    g, u, v = gcd_bezout(a0, b)
    if not g.is_one():
        raise ValueError("a0 and b are not coprime")
    sigma = 1 if a0.star() == a0 else -1
    half = StarPoly.const(T, T.inv(T.elem(2)))
    us = u.star() if sigma == 1 else -u.star()
    x = (u + us) * half
    y = (v + v.star()) * half
    if y.eval(T.zero).is_zero():
        # a0(0) != 0 is forced here (else a0 x + b y = 1 fails at 0)
        x = x - b
        y = y + a0
    _require((a0 * x + b * y).is_one(), "homogeneous Bezout identity failed")
    _require(y.parity() in (EVEN,) and not y.eval(T.zero).is_zero(),
             "homogeneous Bezout cofactor is not even with y(0) != 0")
    return x, y


def _constant_mixes(A: PolyMatrix, i: int, j: int):
    """(v* A v, v) for v = e_i + m e_j, m = 1, 2, ... below p and _SCAN_CAP,
    skipping each m at which the top coefficient of v* A v does not vanish
    (there v* A v has positive degree, so it is neither 0 nor a constant)."""
    T = A.tower
    E = A.entries
    a, b, c = E[i][i], E[i][j] + E[j][i], E[j][j]
    k = max(a.degree(), b.degree(), c.degree())
    for m in range(1, min(T.p, _SCAN_CAP)):
        if k > 0 and a.coeff(k) + m * b.coeff(k) + m * m * c.coeff(k):
            continue
        lam = StarPoly.const(T, m)
        v = _basis_vector(T, A.rows, i)
        v[j] = lam
        yield a + lam * b + lam * lam * c, v


def _cheap_unit_vector(A: PolyMatrix) -> Optional[List[StarPoly]]:
    """Degree-zero probes for a vector representing 1: a constant unit on
    the diagonal, possibly after a constant two-coordinate mix.  A probe
    whose constant is a square in the current field wins, so the square
    root grows the tower only when no probe has one."""
    T = A.tower
    n = A.rows
    half = (T.field_order(T.num_levels()) - 1) // 2

    def probes():
        for i in range(n):
            yield A.entries[i][i], _basis_vector(T, n, i)
        for i in range(n):
            for j in range(n):
                if i != j:
                    yield from _constant_mixes(A, i, j)

    found = None
    for value, v in probes():
        if value.degree() == 0:
            c = value.constant_value()
            square = T.pow(c, half).is_one()
            if found is None or square:
                found = (c, v)
            if square:
                break
    if found is None:
        return None
    s = StarPoly.const(T, T.inv(T.sqrt(found[0])))
    return [e * s for e in found[1]]


def _unit_vector_2x2(red: Reduction) -> List[StarPoly]:
    """In the coordinates of red.B = [[0, a],[a*, b]] (hermitian, gcd 1,
    det != 0), a vector u with f(u, u) = 1."""
    T = red.B.tower
    a = red.B.entries[0][1]
    b = red.B.entries[1][1]
    a0, a1 = pure_split(a)
    x, y = _homogeneous_bezout(a0, b)
    z = norm_factor_avoiding(y, a1)
    w = solve_norm_equation(a1 * z, StarPoly.one(T), "+")
    u = [x.star() * w.star(), z]
    _require(form_value(red.B, u, u).is_one(), "2x2 unit vector does not represent 1")
    return u


def represent_one(A: PolyMatrix) -> List[StarPoly]:
    """v with v* A v = 1 for hermitian A with gcd(A) = 1."""
    if form_kind(A) != HERMITIAN:
        raise ValueError("represent_one needs a hermitian matrix")
    d, _ = gcd_of_matrix(A)
    if not d.is_one():
        raise ValueError("represent_one needs gcd(A) = 1")
    return _represent_one(A)


def _represent_one(A: PolyMatrix) -> List[StarPoly]:
    """represent_one, with its input checks left to the caller."""
    T = A.tower
    n = A.rows
    if determinant(A).is_zero():
        cert = kernel_split(A)
        # the zero block leads; its size is the index of the first nonzero row
        k = 0
        while k < n and all(cert.B.entries[k][j].is_zero() for j in range(n)):
            k += 1
        core = cert.B.submatrix(range(k, n), range(k, n))
        v1 = _represent_one(core)
        v = [StarPoly.zero(T)] * k + v1
    else:
        cert = compress_form(A)
        v = _unit_vector(cert.B)
    v = apply_matrix(cert.S, v)
    _require(form_value(A, v, v).is_one(),
             "represent_one vector does not represent 1")
    return v


def _unit_vector(A: PolyMatrix) -> List[StarPoly]:
    """v with v* A v = 1 for reduced nonsingular hermitian A with
    gcd(A) = 1, unchecked."""
    T = A.tower
    n = A.rows
    u = _cheap_unit_vector(A)
    if u is not None:
        return u
    red = Reduction(A)
    _isotropic_to_corner(red, HERMITIAN)
    if n == 2:
        return apply_matrix(red.S, _unit_vector_2x2(red))
    _reduce_row_tail(red, n - 1)
    # scan lambda until the trailing (n-1)-block of the shifted matrix has
    # entry gcd 1; only finitely many scalars fail.  Shifting by lambda only
    # changes the (1, n-1) entry (and its mirror), so the gcd updates
    # incrementally from the gcd of the untouched entries.
    B = red.B
    a0n = B.entries[0][n - 1]
    base = StarPoly.zero(T)
    for i in range(1, n):
        for j in range(1, n):
            if (i, j) in ((1, n - 1), (n - 1, 1)):
                continue
            e = B.entries[i][j]
            if not e.is_zero():
                base = e.monic() if base.is_zero() else poly_gcd(base, e)
            if base.is_one():
                break
        if base.is_one():
            break
    corner = B.entries[1][n - 1]
    lam_poly = None
    for lam in _scan(T, "lambda scan failed to reach gcd 1"):
        x = StarPoly.const(T, lam)
        moved = corner + x * a0n
        g = base
        for e in (moved, moved.star()):
            if not e.is_zero():
                g = e.monic() if g.is_zero() else poly_gcd(g, e)
        if g.is_one():
            lam_poly = x
            break
    red.transvection(0, 1, lam_poly)
    sub = red.B.submatrix(range(1, n), range(1, n))
    sub_g, _ = gcd_of_matrix(sub)
    _require(sub_g.is_one(), "lambda scan left a trailing block with gcd != 1")
    return apply_matrix(red.S, [StarPoly.zero(T)] + _represent_one(sub))


def split_one(A: PolyMatrix, v: Sequence[StarPoly]) -> Certificate:
    """Congruence (1) (+) A'' from a vector with f(v, v) = 1."""
    T = A.tower
    if not form_value(A, v, v).is_one():
        raise ValueError("split_one needs f(v, v) = 1")
    n = A.rows
    if n == 2:
        # the rotation of the pairing row completes v for free: r = v* A has
        # r . v = f(v,v) = 1 = det S, and w = (-r2, r1) satisfies f(v, w) =
        # r . w = 0 identically, so S* A S = diag(1, f(w, w)) by construction
        r = [form_value(A, v, _basis_vector(T, 2, j)) for j in range(2)]
        w = [-r[1], r[0]]
        S = PolyMatrix(T, [[v[0], w[0]], [v[1], w[1]]])
        B = PolyMatrix(T, [[StarPoly.one(T), StarPoly.zero(T)],
                           [StarPoly.zero(T), form_value(A, w, w)]])
        return Certificate(S, B)
    red = Reduction(A)
    red.apply(unimodular_completion(list(v)))
    for j in range(1, n):
        q = red.B.entries[0][j]
        if not q.is_zero():
            red.transvection(0, j, -q)
    cert = red.certificate()
    _require(cert.B.entries[0][0].is_one()
             and all(cert.B.entries[0][j].is_zero() and cert.B.entries[j][0].is_zero()
                     for j in range(1, n)), "split_one did not split off (1)")
    return cert


def her2_diagonalize(A: PolyMatrix) -> Certificate:
    """2x2 hermitian, gcd 1, det != 0: congruence to diag(1, det A), exactly."""
    T = A.tower
    if A.rows != 2 or form_kind(A) != HERMITIAN:
        raise ValueError("her2_diagonalize needs a 2x2 hermitian matrix")
    d, _ = gcd_of_matrix(A)
    if not d.is_one():
        raise ValueError("her2_diagonalize needs gcd(A) = 1")
    detA = determinant(A)
    if detA.is_zero():
        raise ValueError("her2_diagonalize needs det(A) != 0")
    v = represent_one(A)
    cert = split_one(A, v)
    red = Reduction(A)
    red.S = cert.S
    red.B = cert.B
    c = determinant(red.S).constant_value()
    red.scale_col(1, StarPoly.const(T, T.inv(c)))
    _require(red.B == PolyMatrix.diagonal(T, [StarPoly.one(T), detA]),
             "her2_diagonalize did not reach diag(1, det A)")
    return red.certificate()


# ---------------------------------------------------------------------------
# 2x2 skew: zero diagonal
# ---------------------------------------------------------------------------

def sk2_zero_diagonal(A: PolyMatrix) -> Certificate:
    """2x2 skew-hermitian, gcd 1, det != 0: congruence to
    [[0, r],[-r*, 0]] with r = a1 c^2 pure."""
    if A.rows != 2 or form_kind(A) != SKEW:
        raise ValueError("sk2_zero_diagonal needs a 2x2 skew-hermitian matrix")
    d, _ = gcd_of_matrix(A)
    if not d.is_one():
        raise ValueError("sk2_zero_diagonal needs gcd(A) = 1")
    if determinant(A).is_zero():
        raise ValueError("sk2_zero_diagonal needs det(A) != 0")
    return _sk2_zero_diagonal(A)


def _sk2_zero_diagonal(A: PolyMatrix) -> Certificate:
    """sk2_zero_diagonal, unchecked."""
    T = A.tower
    red = Reduction(A)
    _isotropic_to_corner(red, SKEW)
    a = red.B.entries[0][1]
    b = red.B.entries[1][1]
    if b.is_zero():
        return red.certificate()
    # gcd 1 with b odd forces a(0) != 0, so gcd(a, a*) is even with nonzero
    # constant term and factors as c c* with a1 c pure
    a0, a1 = pure_split(a)
    c = norm_factor_avoiding(a0, a1)
    x, dd = coprime_even_bezout(b, c)
    ccs = c * c.star()
    bcs = b * c.star()
    for lam in _scan(T, "sk2 lambda scan failed"):
        lp = StarPoly.const(T, lam)
        x_try = x + lp * ccs
        if a1.is_constant() or poly_gcd(a1, x_try).is_one():
            x = x_try
            dd = dd - lp * bcs
            break
    w = solve_norm_equation(-c, b, "-")
    e = x * w.star() - dd.star()
    cx = c * x
    if cx.is_zero():
        # then c dd = 1 and a1 is coprime to 0 only when constant
        v_ = e.exact_div(a1.star())
        p = StarPoly.zero(T)
    else:
        g2, u1, _ = gcd_bezout(a1.star(), cx)
        _require(g2.is_one(), "a1* and c x are not coprime")
        v_ = u1 * e
        if cx.degree() > 0:
            v_ = v_ % cx
        pstar = (a1.star() * v_ - e).exact_div(cx)
        p = pstar.star()
    q = solve_norm_equation(a1.star(), p - p.star(), "-")
    y_ = v_ + cx * q
    z_ = w + c.star() * (p + a1 * q.star())
    S2 = PolyMatrix(T, [[cx, y_], [a1.star() * c.star(), z_]])
    det2 = determinant(S2)
    _require(det2.is_one(), "sk2 transform is not in SL_2")
    r = a1 * c * c
    N = PolyMatrix(T, [[StarPoly.zero(T), r],
                       [-r.star(), StarPoly.zero(T)]])
    _require((S2.star_transpose() @ N) @ S2 == red.B, "sk2 identity failed")
    S2inv = PolyMatrix(T, [[z_, -y_], [-(a1.star() * c.star()), cx]])
    red.apply(S2inv)
    _require(red.B == N, "sk2_zero_diagonal did not reach a zero diagonal")
    return red.certificate()


# ---------------------------------------------------------------------------
# block swap (2x2 zero-diagonal skew blocks with a common norm)
# ---------------------------------------------------------------------------

def _skew_block(f: StarPoly) -> PolyMatrix:
    T = f.tower
    z = StarPoly.zero(T)
    return PolyMatrix(T, [[z, f], [-f.star(), z]])


def block_swap(f: StarPoly, f_new: StarPoly) -> Certificate:
    """Certificate S with S* [[0,f],[-f*,0]] S = [[0,f'],[-f'*,0]].

    Needs f, f' pure with f f* = u f' f'* for a constant u.
    """
    if not (is_pure(f) and is_pure(f_new)):
        raise ValueError("block_swap needs pure polynomials")
    q, rem = divmod(f * f.star(), f_new * f_new.star())
    if not rem.is_zero() or q.degree() != 0:
        raise ValueError("block_swap needs matching norms up to a constant")
    return _block_swap(f, f_new)


def _block_swap(f: StarPoly, f_new: StarPoly) -> Certificate:
    """block_swap, unchecked, in one move.

    f is pure, so f f* holds each irreducible power h^m of f together with
    (h*)^m and nothing else, and the pure f' of the same norm holds exactly
    one of the two.  So b = gcd(f, f'*) gathers the powers that flip and
    a = f / b the ones that stay: f' = c a b* for a constant c, and a a* is
    coprime to b b*.  With the even Bezout relation b b* x + a a* y = 1,
    M = [[b, a y], [-a*, b* x]] takes [[0, ab],[-(ab)*, 0]] to
    [[0, ab*],[-(ab*)*, 0]]; it is skipped when nothing flips (b = 1).
    Scaling column 1 by c then ends on f'.
    """
    T = f.tower
    red = Reduction(_skew_block(f))
    b = poly_gcd(f, f_new.star())
    if b.degree() > 0:
        a = f.exact_div(b)
        g, x, y = even_bezout(b * b.star(), a * a.star())
        _require(g.is_one(), "block swap norm factors are not coprime")
        red.apply(PolyMatrix(T, [[b, a * y], [-a.star(), b.star() * x]]))
    c = red.B.entries[0][1].exact_div(f_new)
    red.scale_col(1, StarPoly.const(T, T.inv(c.lc())))
    _require(red.B == _skew_block(f_new), "block swap did not reach the target block")
    return red.certificate()


# ---------------------------------------------------------------------------
# skew split: [[0, f],[-f*, 0]] (+) D
# ---------------------------------------------------------------------------

class SkewSplitResult:
    __slots__ = ("cert", "f", "D")

    def __init__(self, cert: Certificate, f: StarPoly, D: PolyMatrix):
        self.cert = cert
        self.f = f
        self.D = D


def _skew_pivot(red: Reduction, p: StarPoly) -> None:
    """Bring the reduced skew window red.B (gcd 1, det != 0, n >= 3) to row 0
    = (0, g, 0, ..., 0) with deg g = deg p, p the canonical pure factor of
    the second invariant factor f2 = p p* (up to a unit).  The isotropic
    vector v of ``isotropic_vector`` is kept when the content of B v has
    degree deg p; otherwise ``_smith_pivot`` builds one."""
    B = red.B
    v = isotropic_vector(B, SKEW)
    if vector_gcd(apply_matrix(B, v)).degree() != p.degree():
        v = _smith_pivot(B, p)
    red.apply(unimodular_completion(v))
    _require(red.B.entries[0][0].is_zero(),
             "isotropic completion left a nonzero corner")
    _reduce_row_tail(red, 1)
    _require(red.B.entries[0][1].degree() == p.degree(),
             "skew pivot pairing degree is not deg p")


def _smith_pivot(B: PolyMatrix, p: StarPoly) -> List[StarPoly]:
    """A primitive isotropic x whose content of x* B is p* up to a unit,
    built from a left Smith transform U B V = diag(1, f2, f3, ...) of the
    reduced skew window B (gcd 1, det != 0, n >= 3), f2 = p p* up to a unit.

    - x = U* r has x* B = r* diag(1, f2, ...) V^-1, so the content of x* B
      is gcd(r_0, f2 r_1, f3 r_2, ...).  Adding a multiple of row k of U
      to row j gives another left Smith transform when f_j | f_k: any row
      to row 0, and to a row d with f_d = f2 every row k >= 1, and row 0
      too when f2 = 1.  So x0 = U* e0, then x_d = U* e_d, are
      degree-reduced against those columns of U* first.
    - G = U B U* has row i divisible by f_i, so m = x0* B x0 is prime to f2,
      and b = x0* B x_d / p p* and c = x_d* B x_d / p p* are polynomials.
    - r = p* a e0 + r1 e_d is isotropic exactly when (a, r1) is for
      [[m, p b], [-(p b)*, c]]: (a, r1) = (w - p b, m) with w w* = y =
      m c + (p b)(p b)*, as in ``isotropic_vector``.  w takes the roots of
      y among those of p* (w0, by repeated gcds) and a norm factor of the
      rest, so w and a are nonzero at every root of p, and the content of
      x* B is p* up to a unit.
    m = 0 only when f2 = 1, and then x0 is the pivot; y = 0 moves on to the
    next d with f_d = f2."""
    n = B.rows
    sf = smith_form(B)
    cols = [sf.U.star_transpose().column(j) for j in range(n)]

    def reduced(j: int, others: List[int]) -> List[StarPoly]:
        work = [cols[k] for k in others] + [cols[j]]
        reduce_columns(work, range(len(others)), 6)
        return work[-1]

    x0 = cols[0] = reduced(0, list(range(1, n)))
    m = form_value(B, x0, x0)
    if m.is_zero():
        return x0
    ps = p.star()
    ff = p * ps
    f2 = sf.factors[1]
    for d in range(1, n):
        if sf.factors[d] != f2:
            break
        xd = reduced(d, [k for k in range(n)
                         if k != d and (sf.factors[k] % f2).is_zero()])
        beta = p * form_value(B, x0, xd).exact_div(ff)
        y = m * form_value(B, xd, xd).exact_div(ff) + beta * beta.star()
        if y.is_zero():
            continue
        w0 = StarPoly.one(B.tower)
        rest = y
        while True:
            g = poly_gcd(rest, ps)
            if g.degree() < 1:
                break
            w0 = w0 * g
            rest = rest.exact_div(g)
        w = w0 * norm_factor(rest.exact_div(w0.star()))
        a = ps * (w - beta)
        x = [a * e0 + m * ed for e0, ed in zip(x0, xd)]
        g = vector_gcd(x)
        return x if g.is_one() else [e.exact_div(g) for e in x]
    raise ReductionError("skew pivot: y = 0 in every direction of f2")


def _dx_descent(red: Reduction) -> None:
    """Shrink d = gcd(a12, a21, a22) by the Vandermonde lambda-scans until the
    stuck state, where d divides t * (every entry) and hence d in {1, t}.
    Row 0 of the working matrix is preserved exactly."""
    T = red.B.tower
    n = red.B.rows
    t = StarPoly.t(T)
    one = StarPoly.one(T)

    def current_d() -> StarPoly:
        g = red.B.entries[0][1]
        return gcd_many([g, g.star(), red.B.entries[1][1]])

    def lam_scan(s: int, x: StarPoly, d: StarPoly) -> bool:
        """Scan T(1, s, lam*x); succeeds iff d fails to divide a component."""
        a2s = red.B.entries[1][s]
        ass = red.B.entries[s][s]
        w = a2s * x.star() - a2s.star() * x
        v = ass * x * x.star()
        if (w % d).is_zero() and (v % d).is_zero():
            return False
        for lam in _scan(T, "d_X lambda scan exhausted"):
            if lam.is_zero():
                continue
            lp = StarPoly.const(T, lam)
            cand = red.B.entries[1][1] + lp * w + lp * lp * v
            g = red.B.entries[0][1]
            dtry = gcd_many([g, g.star(), cand])
            if dtry.degree() < d.degree():
                red.transvection(s, 1, lp * x)
                _require(red.B.entries[1][1] == cand,
                         "lambda-scan move disagrees with its candidate")
                return True
        return False

    while True:
        d = current_d()
        if d.degree() == 0 or not any(lam_scan(s, x, d)
                                      for s in range(2, n) for x in (one, t)):
            return


def sk_split(A: PolyMatrix) -> SkewSplitResult:
    """Skew-hermitian A with gcd 1 and det != 0: verified congruence to
    [[0, p],[-p*, 0]] (+) D, p the canonical pure factor of the second
    invariant factor f2 (``canonical_pure_factor``), p p* | D entrywise."""
    T = A.tower
    if form_kind(A) != SKEW:
        raise ValueError("sk_split needs a skew-hermitian matrix")
    d, _ = gcd_of_matrix(A)
    if not d.is_one():
        raise ValueError("sk_split needs gcd(A) = 1")
    factors = invariant_factors(A)
    if factors[-1].is_zero():
        raise ValueError("sk_split needs det(A) != 0")
    if A.rows < 2:
        raise ValueError("sk_split needs n >= 2")
    f2 = factors[1]
    if f2.parity() != EVEN or f2.eval(T.zero).is_zero():
        raise ReductionError("second invariant factor is not an admissible norm")
    comp = compress_form(A)
    res = _sk_split(comp.B, canonical_pure_factor(f2))
    return SkewSplitResult(Certificate(comp.S @ res.cert.S, res.cert.B),
                           res.f, res.D)


def _sk_split(A: PolyMatrix, p: StarPoly) -> SkewSplitResult:
    """sk_split of a reduced A, unchecked: p is the canonical pure factor of
    the second invariant factor f2 of A.  The split reaches some pure f with
    f f* = p p* up to a unit, and _block_swap carries its corner to p."""
    n = A.rows
    red = Reduction(A)
    if n > 2:
        _skew_pivot(red, p)
        _dx_descent(red)
        g = red.B.entries[0][1]
        if not gcd_many([g, g.star(), red.B.entries[1][1]]).is_one():
            raise ReductionError("d_X did not reach 1 at the minimal pairing degree")
    red.embed(_sk2_zero_diagonal(red.B.submatrix((0, 1), (0, 1))).S, 0)
    f = red.B.entries[0][1]
    _require(is_pure(f) and f.degree() == p.degree(),
             "skew split f is not pure of degree deg p")
    # minimality of deg p forces f | row 0 and f* | row 1 against the rest;
    # the zero diagonal keeps each move off the other row
    fs = f.star()
    for j in range(2, n):
        e0, e1 = red.B.entries[0][j], red.B.entries[1][j]
        if not e0.is_zero():
            red.transvection(1, j, -e0.exact_div(f))
        if not e1.is_zero():
            red.transvection(0, j, e1.exact_div(fs))
    B = red.B
    for j in range(2, n):
        _require(B.entries[0][j].is_zero() and B.entries[1][j].is_zero()
                 and B.entries[j][0].is_zero() and B.entries[j][1].is_zero(),
                 "skew split left entries beside the 2x2 block")
    D = B.submatrix(range(2, n), range(2, n))
    ffs = f * fs
    for row in D.entries:
        for e in row:
            if not (e % ffs).is_zero():
                raise ReductionError("f f* fails to divide the complement")
    q, rem = divmod(p * p.star(), ffs)
    _require(rem.is_zero() and q.degree() == 0, "f f* is not f2 up to a unit")
    if f != p:
        red.embed(_block_swap(f, p).S, 0)
    return SkewSplitResult(red.certificate(), p, D)
