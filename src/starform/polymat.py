"""Matrices over R = F[t]: star-transpose, determinants, Smith normal form
with transformation matrices and invariant factors without them, unimodular
completion, zero-block splitting, and congruence-move accumulation with
verified certificates.

Matrices are immutable; all operations are exact.

The Smith loop and the fraction-free determinant run on the tower kernel's
coefficient lists, not on StarPolys: they find the highest coefficient level
of the matrix once, and run the whole elimination on int lists mod p at
level 0, or on FieldElem lists above it (``_Lists``).  StarPolys are built
only for the returned entries.  Matrix products and transvections still go
through ``Tower.poly_dot``, which finds the level on every call once the
tower has grown.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .starpoly import EVEN, ODD, StarPoly, format_poly, gcd as poly_gcd
from .tower import Tower

HERMITIAN = 1
SKEW = -1


class PolyMatrix:
    __slots__ = ("tower", "rows", "cols", "entries")

    def __init__(self, tower: Tower, entries):
        rows = tuple(tuple(row) for row in entries)
        self.tower = tower
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        self.entries = rows

    # ---------------- constructors ----------------

    @staticmethod
    def zeros(tower: Tower, rows: int, cols: int) -> "PolyMatrix":
        z = StarPoly.zero(tower)
        return PolyMatrix(tower, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(tower: Tower, n: int) -> "PolyMatrix":
        z, o = StarPoly.zero(tower), StarPoly.one(tower)
        return PolyMatrix(tower, [[o if i == j else z for j in range(n)]
                                  for i in range(n)])

    @staticmethod
    def from_rows(tower: Tower, rows: Sequence[Sequence[StarPoly]]) -> "PolyMatrix":
        return PolyMatrix(tower, rows)

    @staticmethod
    def block_diag(tower: Tower, blocks: Sequence["PolyMatrix"]) -> "PolyMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[StarPoly.zero(tower) for _ in range(m)] for _ in range(n)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.entries[i][j]
            r += b.rows
            c += b.cols
        return PolyMatrix(tower, out)

    @staticmethod
    def diagonal(tower: Tower, diag: Sequence[StarPoly]) -> "PolyMatrix":
        n = len(diag)
        z = StarPoly.zero(tower)
        return PolyMatrix(tower, [[diag[i] if i == j else z for j in range(n)]
                                  for i in range(n)])

    # ---------------- basics ----------------

    def __getitem__(self, ij: Tuple[int, int]) -> StarPoly:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.tower,
                          [[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.tower,
                          [[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.tower, [[-a for a in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        T = self.tower
        dot = T.poly_dot
        ocols = [[b.coeffs for b in col] for col in zip(*other.entries)]
        rows = [[a.coeffs for a in row] for row in self.entries]
        return PolyMatrix(T, [[StarPoly(T, dot(zip(row, col))) for col in ocols]
                              for row in rows])

    def scale(self, c: StarPoly) -> "PolyMatrix":
        return PolyMatrix(self.tower, [[c * a for a in row] for row in self.entries])

    def exact_div(self, c: StarPoly) -> "PolyMatrix":
        return PolyMatrix(self.tower,
                          [[a.exact_div(c) for a in row] for row in self.entries])

    def star_transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.tower,
                          [[self.entries[j][i].star() for j in range(self.rows)]
                           for i in range(self.cols)])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(self.tower,
                          [[self.entries[i][j] for j in cols] for i in rows])

    def column(self, j: int) -> List[StarPoly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def row(self, i: int) -> List[StarPoly]:
        return list(self.entries[i])

    def __str__(self):
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]"
                               for row in self.entries) + "]"

    __repr__ = __str__


def _add_mul(e: StarPoly, c, f: StarPoly) -> StarPoly:
    """e + c f in one kernel call, for a coefficient list c: the update of
    transvections and column reductions."""
    T = e.tower
    return StarPoly(T, T.poly_dot((((T.one,), e.coeffs), (c, f.coeffs))))


class _Lists:
    """The entries of a matrix as the kernel's coefficient lists, with the
    kernel that runs on them, chosen once from the highest level of the
    entries.  At level 0 the lists hold ints mod p and ``dot`` and
    ``divmod`` are the tower's int kernel; above, they hold FieldElems and
    the element-list kernel dispatches per call.  Elimination never takes an
    entry above the level of its matrix, so the choice holds for a whole
    loop, and ``poly`` builds StarPolys only for the returned entries."""

    __slots__ = ("rows", "dot", "divmod", "neg", "one", "poly")

    def __init__(self, A: PolyMatrix):
        T = A.tower
        E = A.entries
        if any(c.level for row in E for e in row for c in e.coeffs):
            self.rows = [[e.coeffs for e in row] for row in E]
            self.dot, self.divmod, self.neg = T.poly_dot, T.poly_divmod, T.poly_neg
            self.one = [T.one]
            self.poly = lambda f: StarPoly(T, f)
        else:
            self.rows = [[[c.rep for c in e.coeffs] for e in row] for row in E]
            dot, minus_one, elem = T._int_dot, [T.p - 1], T.elem
            self.dot, self.divmod = dot, T._int_divmod
            self.neg = lambda f: dot(((minus_one, f),))
            self.one = [1]
            self.poly = lambda f: StarPoly(T, [elem(v) for v in f])


# ---------------- form structure ----------------

def form_kind(A: PolyMatrix) -> Optional[int]:
    """+1 for hermitian, -1 for skew-hermitian, None for neither.

    The zero matrix is both; hermitian is reported.  Compares A[j][i] with
    A[i][j]* and -A[i][j]* over i <= j, coefficient by coefficient (the t^k
    coefficient of a* is (-1)^k a_k), dropping each kind at its first
    mismatch.
    """
    if not A.is_square():
        return None
    E = A.entries
    neg = A.tower.neg
    herm = skew = True
    for i, row in enumerate(E):
        for j in range(i, A.cols):
            a, b = row[j].coeffs, E[j][i].coeffs
            if len(a) != len(b):
                return None
            for k, (x, y) in enumerate(zip(a, b)):
                # hermitian: y = x at even k, y = -x at odd k; skew: the
                # other way round
                if herm and not (y == neg(x) if k & 1 else y is x or y == x):
                    herm = False
                if skew and not (y is x or y == x if k & 1 else y == neg(x)):
                    skew = False
                if not (herm or skew):
                    return None
    return HERMITIAN if herm else SKEW


def form_value(A: PolyMatrix, v: Sequence[StarPoly], w: Sequence[StarPoly]) -> StarPoly:
    """The sesquilinear value v* A w, as the sum of v_i* (A w)_i over the
    nonzero v_i."""
    T = A.tower
    x = [e.coeffs for e in w]
    return StarPoly(T, T.poly_dot([(vi.star().coeffs,
                                    T.poly_dot(zip([a.coeffs for a in row], x)))
                                   for vi, row in zip(v, A.entries) if vi.coeffs]))


def apply_matrix(A: PolyMatrix, v: Sequence[StarPoly]) -> List[StarPoly]:
    T = A.tower
    x = [e.coeffs for e in v]
    return [StarPoly(T, T.poly_dot(zip([a.coeffs for a in row], x)))
            for row in A.entries]


def gcd_of_matrix(A: PolyMatrix) -> Tuple[StarPoly, str]:
    """Monic gcd of all entries and its parity tag.

    For a nonzero hermitian/skew-hermitian matrix the entry ideal is
    star-invariant, so the generator is homogeneous (even or odd).
    """
    entries = [e for row in A.entries for e in row if not e.is_zero()]
    if not entries:
        raise ValueError("gcd of the zero matrix")
    g = entries[0].monic()
    for e in entries[1:]:
        if g.is_one():
            break
        g = poly_gcd(g, e)
    return g, g.parity()


# ---------------- determinant (fraction-free) ----------------

def determinant(A: PolyMatrix) -> StarPoly:
    if not A.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    T = A.tower
    if n == 0:
        return StarPoly.one(T)
    K = _Lists(A)
    dot, divmod_, neg = K.dot, K.divmod, K.neg
    M = K.rows
    sign = 1
    prev = None
    for k in range(n - 1):
        if not M[k][k]:
            pivot = None
            for i in range(k + 1, n):
                if M[i][k]:
                    pivot = i
                    break
            if pivot is None:
                return StarPoly.zero(T)
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        Mk = M[k]
        mkk = Mk[k]
        for i in range(k + 1, n):
            # M_ij <- (M_kk M_ij - M_ik M_kj) / prev, exactly; prev = 1 at k = 0
            Mi = M[i]
            nik = neg(Mi[k])
            for j in range(k + 1, n):
                e = dot(((mkk, Mi[j]), (nik, Mk[j])))
                if k:
                    e, r = divmod_(e, prev)
                    if r:
                        raise ValueError("division is not exact")
                Mi[j] = e
            Mi[k] = []
        prev = mkk
    d = K.poly(M[n - 1][n - 1])
    return -d if sign < 0 else d


def is_unimodular(S: PolyMatrix) -> bool:
    d = determinant(S)
    return d.degree() == 0 and not d.is_zero()


# ---------------- Smith normal form ----------------

class SmithForm:
    """U A V = D with U, V unimodular, D diagonal, monic divisibility chain."""

    __slots__ = ("U", "V", "D", "factors")

    def __init__(self, U: PolyMatrix, V: PolyMatrix, D: PolyMatrix,
                 factors: Tuple[StarPoly, ...]):
        self.U = U
        self.V = V
        self.D = D
        self.factors = factors


def _smith(A: PolyMatrix, track: bool):
    """The Smith elimination loop: (M, U, V, poly), with M, U, V row lists
    of coefficient lists (``_Lists``) such that U A V = M is diagonal with a
    monic divisibility chain, and ``poly`` building a StarPoly from one of
    them.  U and V are None unless track.

    Step k clears row and column k, so later operations only meet zeros
    outside rows and columns >= k: M is updated there alone, and zero
    entries of the pivot row or column are skipped."""
    K = _Lists(A)
    dot, divmod_, neg, one = K.dot, K.divmod, K.neg, K.one
    m, n = A.rows, A.cols
    M = K.rows
    U = V = None
    if track:
        U = [[one if i == j else [] for j in range(m)] for i in range(m)]
        V = [[one if i == j else [] for j in range(n)] for i in range(n)]

    def row_op(i, j, c, k):  # row_i += c * row_j  (on M from column k, and U)
        Mi, Mj = M[i], M[j]
        for col in range(k, n):
            if Mj[col]:
                Mi[col] = dot(((one, Mi[col]), (c, Mj[col])))
        if track:
            Ui, Uj = U[i], U[j]
            for col in range(m):
                if Uj[col]:
                    Ui[col] = dot(((one, Ui[col]), (c, Uj[col])))

    def col_op(i, j, c, k):  # col_i += c * col_j  (on M from row k, and V)
        for R in M[k:] + V if track else M[k:]:
            if R[j]:
                R[i] = dot(((one, R[i]), (c, R[j])))

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        if track:
            U[i], U[j] = U[j], U[i]

    def col_swap(i, j, k):
        for R in M[k:] + V if track else M[k:]:
            R[i], R[j] = R[j], R[i]

    for k in range(min(m, n)):
        while True:
            # minimal-degree nonzero pivot, ties row-major
            pivot = None
            best = None
            for i in range(k, m):
                Mi = M[i]
                for j in range(k, n):
                    e = Mi[j]
                    if e and (best is None or len(e) < best):
                        best = len(e)
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != k:
                row_swap(k, pivot[0])
            if pivot[1] != k:
                col_swap(k, pivot[1], k)
            pk = M[k][k]
            dirty = False
            for i in range(k + 1, m):
                if M[i][k]:
                    row_op(i, k, neg(divmod_(M[i][k], pk)[0]), k)
                    if M[i][k]:
                        dirty = True
            Mk = M[k]
            for j in range(k + 1, n):
                if Mk[j]:
                    col_op(j, k, neg(divmod_(Mk[j], pk)[0]), k)
                    if Mk[j]:
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if divmod_(M[i][j], pk)[1]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(k, culprit, one, k)  # row_k += row_culprit
        pk = M[k][k]
        if not pk:
            break
        if pk[-1] != one[0]:
            # row k is zero off the pivot, so only the pivot (and U) rescale
            lc = [pk[-1]]
            M[k][k] = divmod_(pk, lc)[0]
            if track:
                U[k] = [divmod_(e, lc)[0] if e else e for e in U[k]]
    return M, U, V, K.poly


def smith_form(A: PolyMatrix) -> SmithForm:
    T = A.tower
    M, U, V, poly = _smith(A, True)
    U, V, D = (PolyMatrix(T, [[poly(e) for e in row] for row in X]) for X in (U, V, M))
    return SmithForm(U, V, D, tuple(D.entries[i][i] for i in range(min(A.rows, A.cols))))


def invariant_factors(A: PolyMatrix) -> Tuple[StarPoly, ...]:
    """The diagonal of the Smith form, computed without U and V."""
    M, _, _, poly = _smith(A, False)
    return tuple(poly(M[i][i]) for i in range(min(A.rows, A.cols)))


def inverse(S: PolyMatrix) -> PolyMatrix:
    """Inverse of a unimodular matrix from its Smith form: U S V = I, so
    S^-1 = V U."""
    sf = smith_form(S)
    if not (S.is_square() and all(f.is_one() for f in sf.factors)):
        raise ValueError("matrix is not unimodular")
    return sf.V @ sf.U


# ---------------- certificates and congruence moves ----------------

class CertificateError(RuntimeError):
    """A computed congruence failed its exact check."""


class Certificate:
    """A verified congruence: S unimodular with S* A S = B."""

    __slots__ = ("S", "B")

    def __init__(self, S: PolyMatrix, B: PolyMatrix):
        self.S = S
        self.B = B

    def check(self, A: PolyMatrix) -> None:
        """Raise CertificateError, with the reason, unless S is unimodular
        and S* A S = B."""
        S, B = self.S, self.B
        n = A.rows
        if not (A.cols == n and S.rows == S.cols == n and B.rows == B.cols == n):
            raise CertificateError(
                f"shape mismatch: A is {A.rows}x{A.cols}, S is {S.rows}x{S.cols}, "
                f"B is {B.rows}x{B.cols}")
        if not is_unimodular(S):
            raise CertificateError("not unimodular")
        got = (S.star_transpose() @ A) @ S
        for i in range(n):
            for j in range(n):
                if got.entries[i][j] != B.entries[i][j]:
                    raise CertificateError(
                        f"entry ({i + 1},{j + 1}): {format_poly(got.entries[i][j])} "
                        f"!= {format_poly(B.entries[i][j])}")

    def verify(self, A: PolyMatrix) -> bool:
        try:
            self.check(A)
        except CertificateError:
            return False
        return True


def mul_window(M: PolyMatrix, S_small: PolyMatrix, offset: int) -> List[list]:
    """The rows of M (I (+) S_small (+) I): M with its columns offset, ...,
    offset + k - 1 multiplied by the k x k matrix S_small, and the other
    columns kept."""
    T = M.tower
    dot = T.poly_dot
    win = slice(offset, offset + S_small.rows)
    cols = [[e.coeffs for e in col] for col in zip(*S_small.entries)]
    out = [list(row) for row in M.entries]
    for row in out:
        old = [e.coeffs for e in row[win]]
        row[win] = [StarPoly(T, dot(zip(old, col))) for col in cols]
    return out


class Reduction:
    """Accumulates congruence moves: S tracks the product, B = S* A0 S.

    Elementary moves update only the touched rows/columns instead of doing
    full matrix products."""

    __slots__ = ("A0", "S", "B")

    def __init__(self, A: PolyMatrix):
        self.A0 = A
        self.S = PolyMatrix.identity(A.tower, A.rows)
        self.B = A

    def apply(self, M: PolyMatrix) -> None:
        self.S = self.S @ M
        self.B = (M.star_transpose() @ self.B) @ M

    def transvection(self, i: int, j: int, x: StarPoly) -> None:
        """col_j += x * col_i, mirrored on rows (M = I + x E_ij)."""
        if x.is_zero():
            return
        T = self.B.tower
        n = self.B.rows
        xc, xs = x.coeffs, x.star().coeffs
        B = [list(row) for row in self.B.entries]
        for k in range(n):
            if B[k][i].coeffs:
                B[k][j] = _add_mul(B[k][j], xc, B[k][i])
        for k in range(n):
            if B[i][k].coeffs:
                B[j][k] = _add_mul(B[j][k], xs, B[i][k])
        self.B = PolyMatrix(T, B)
        S = [list(row) for row in self.S.entries]
        for k in range(n):
            if S[k][i].coeffs:
                S[k][j] = _add_mul(S[k][j], xc, S[k][i])
        self.S = PolyMatrix(T, S)

    def scale_col(self, i: int, c: StarPoly) -> None:
        T = self.B.tower
        n = self.B.rows
        cs = c.star()
        B = [list(row) for row in self.B.entries]
        for k in range(n):
            B[k][i] = B[k][i] * c
        for k in range(n):
            B[i][k] = B[i][k] * cs
        self.B = PolyMatrix(T, B)
        S = [list(row) for row in self.S.entries]
        for k in range(n):
            S[k][i] = S[k][i] * c
        self.S = PolyMatrix(T, S)

    def permute(self, perm: Sequence[int]) -> None:
        """Columns reordered so new col k = old col perm[k]."""
        T = self.B.tower
        n = self.B.rows
        self.B = PolyMatrix(T, [[self.B.entries[perm[i]][perm[j]]
                                 for j in range(n)] for i in range(n)])
        self.S = PolyMatrix(T, [[self.S.entries[i][perm[j]]
                                 for j in range(n)] for i in range(n)])

    def embed(self, S_small: PolyMatrix, offset: int) -> None:
        """Apply I (+) S_small (+) I acting on the coordinate window."""
        T = self.B.tower
        dot = T.poly_dot
        win = slice(offset, offset + S_small.rows)
        B = mul_window(self.B, S_small, offset)
        # then its window rows by S_small*
        wcols = list(zip(*[[e.coeffs for e in row] for row in B[win]]))
        srows = [[e.coeffs for e in row] for row in S_small.star_transpose().entries]
        B[win] = [[StarPoly(T, dot(zip(r, c))) for c in wcols] for r in srows]
        self.B = PolyMatrix(T, B)
        self.S = PolyMatrix(T, mul_window(self.S, S_small, offset))

    def certificate(self) -> Certificate:
        return Certificate(self.S, self.B)


# ---------------- unimodular completion and splitting ----------------

def vector_gcd(v: Sequence[StarPoly]) -> StarPoly:
    g = StarPoly.zero(v[0].tower)
    for e in v:
        if not e.is_zero():
            g = poly_gcd(g, e) if not g.is_zero() else e.monic()
        if g.is_one():
            break
    return g


def unimodular_completion(v: Sequence[StarPoly]) -> PolyMatrix:
    """T invertible over R with T e1 = v, for primitive v (entry gcd 1)."""
    T = v[0].tower
    n = len(v)
    g = vector_gcd(list(v))
    if not g.is_one():
        raise ValueError("vector is not primitive")
    if n == 2:
        from .starpoly import gcd_bezout
        _, u1, u2 = gcd_bezout(v[0], v[1])
        return PolyMatrix(T, [[v[0], -u2], [v[1], u1]])
    w = list(v)
    # each row operation on w is undone by a column operation on out
    out = [list(row) for row in PolyMatrix.identity(T, n).entries]
    while True:
        nz = [i for i in range(n) if not w[i].is_zero()]
        piv = min(nz, key=lambda i: (w[i].degree(), i))
        done = True
        for j in range(n):
            if j == piv or w[j].is_zero():
                continue
            q = w[j] // w[piv]
            w[j] = w[j] - q * w[piv]
            # row_j -= q row_piv on w; col_piv += q col_j on out
            for R in out:
                if R[j].coeffs:
                    R[piv] = _add_mul(R[piv], q.coeffs, R[j])
            if not w[j].is_zero():
                done = False
        nz = [i for i in range(n) if not w[i].is_zero()]
        if len(nz) == 1:
            piv = nz[0]
            break
        if done:
            piv = min(nz, key=lambda i: (w[i].degree(), i))
    if piv != 0:
        w[0], w[piv] = w[piv], w[0]
        for R in out:
            R[0], R[piv] = R[piv], R[0]
    c = w[0]
    if c.degree() != 0:
        raise ValueError("vector is not primitive")
    # w[0] = c -> 1 by scaling; column 0 of out scales back by c
    for R in out:
        R[0] = R[0] * c
    if [R[0] for R in out] != list(v):
        raise AssertionError("unimodular completion does not extend the vector")
    return PolyMatrix(T, out)


def reduce_columns(cols: List[List[StarPoly]], pivots: Sequence[int],
                   passes: int) -> None:
    """Degree-reduce the columns in place: each pivot column i replaces
    every other column j by cols[j] - q cols[i], q the quotient at a row
    where deg cols[j] >= deg cols[i], when that lowers the total degree of
    column j.  At most `passes` sweeps; stops after one with no change.

    Entries are read from cols after every replacement, so a later row sees
    the column as it now is."""
    def total(col):
        return sum(max(e.degree(), 0) for e in col)

    T = cols[0][0].tower
    rows = len(cols[0])
    for _ in range(passes):
        changed = False
        for i in pivots:
            for j in range(len(cols)):
                if j == i:
                    continue
                for r in range(rows):
                    a, b = cols[i][r], cols[j][r]
                    if a.is_zero() or b.is_zero() or b.degree() < a.degree():
                        continue
                    q = b // a
                    if q.is_zero():
                        continue
                    nq = T.poly_neg(q.coeffs)
                    cand = [_add_mul(cj, nq, ci) for cj, ci in zip(cols[j], cols[i])]
                    if total(cand) < total(cols[j]):
                        cols[j] = cand
                        changed = True
        if not changed:
            break


def kernel_split(A: PolyMatrix) -> Certificate:
    """Congruence to 0_{n-r} (+) A' with det A' != 0, via the Smith kernel."""
    T = A.tower
    n = A.rows
    sf = smith_form(A)
    r = sum(1 for f in sf.factors if not f.is_zero())
    if r == n:
        return Certificate(PolyMatrix.identity(T, n), A)
    cols = list(range(r, n)) + list(range(r))
    scols = [[sf.V.entries[i][cols[j]] for i in range(n)] for j in range(n)]
    # degree-reduce: kernel columns against each other, and complement
    # columns by kernel columns; both leave S* A S unchanged since the
    # kernel columns annihilate A on both sides
    reduce_columns(scols, range(n - r), 4)
    S = PolyMatrix(T, [[scols[j][i] for j in range(n)] for i in range(n)])
    B = (S.star_transpose() @ A) @ S
    for i in range(n):
        for j in range(n):
            if (i < n - r or j < n - r) and not B.entries[i][j].is_zero():
                raise AssertionError("kernel split failed to isolate the zero block")
    return Certificate(S, B)
