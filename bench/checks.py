"""Checks of starform's outputs made apart from starform's own arithmetic.

Field elements, polynomials and matrices are plain Python values here:

* an element of level 0 (the prime field F_p) is an ``int`` in ``[0, p)``;
  an element of level ``L >= 1`` is a tuple of ``d_L`` elements of level
  ``L - 1``, its coordinates over the level below, where ``d_L`` is the
  degree of the level's minimal polynomial;
* a polynomial in ``t`` is a list of elements, lowest degree first, with no
  trailing zero (the zero polynomial is ``[]``);
* a matrix is a list of rows of polynomials.

Only the tower's minimal polynomials and the coordinates of each element are
read from starform; every sum, product, determinant and gcd is computed here
by schoolbook arithmetic, so a fault in starform's arithmetic cannot hide
itself from these checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class CheckError(AssertionError):
    """An output failed a check; the message says which and where."""


class Field:
    """The finite field at the top of a tower: F_p extended level by level,
    each level by a monic minimal polynomial over the level below."""

    def __init__(self, p: int, minpolys: Sequence[Sequence] = ()):
        # minpolys[L - 1] is the level-L minimal polynomial: d_L + 1
        # coefficients of level L - 1, lowest first, the last one 1.
        self.p = p
        self.minpolys = [list(m) for m in minpolys]
        self.top = len(self.minpolys)
        self.degrees = [len(m) - 1 for m in self.minpolys]
        self.order = p
        for d in self.degrees:
            self.order **= d
        self.zeros = [self._zero(L) for L in range(self.top + 1)]
        self.zero = self.zeros[self.top]
        self.one = self.from_int(1)
        self._products = [{} for _ in range(self.top + 1)]  # memo per level

    @classmethod
    def of_tower(cls, tower) -> "Field":
        """The field of a starform ``Tower`` as it stands now."""
        minpolys = []
        for k, level in enumerate(tower.levels):
            minpolys.append([lift(c, k) for c in level.minpoly])
        return cls(tower.p, minpolys)

    def _zero(self, L: int):
        return 0 if L == 0 else (self._zero(L - 1),) * self.degrees[L - 1]

    def from_int(self, v: int, L: Optional[int] = None):
        L = self.top if L is None else L
        if L == 0:
            return v % self.p
        return ((self.from_int(v, L - 1),)
                + (self.zeros[L - 1],) * (self.degrees[L - 1] - 1))

    # -- arithmetic at level L (the top level when L is omitted) --

    def add(self, a, b, L: Optional[int] = None):
        L = self.top if L is None else L
        if L == 0:
            return (a + b) % self.p
        return tuple(self.add(x, y, L - 1) for x, y in zip(a, b))

    def neg(self, a, L: Optional[int] = None):
        L = self.top if L is None else L
        if L == 0:
            return (-a) % self.p
        return tuple(self.neg(x, L - 1) for x in a)

    def sub(self, a, b, L: Optional[int] = None):
        return self.add(a, self.neg(b, L), L)

    def mul(self, a, b, L: Optional[int] = None):
        L = self.top if L is None else L
        if L == 0:
            return (a * b) % self.p
        memo = self._products[L]
        c = memo.get((a, b))
        if c is None:
            c = memo[(a, b)] = self._mul(a, b, L)
        return c

    def _mul(self, a, b, L: int):
        z = self.zeros[L - 1]
        if a == self.zeros[L] or b == self.zeros[L]:
            return self.zeros[L]
        d = self.degrees[L - 1]
        conv = [z] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b):
                if y != z:
                    conv[i + j] = self.add(conv[i + j], self.mul(x, y, L - 1), L - 1)
        mp = self.minpolys[L - 1]
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c == z:
                continue
            for i in range(d):
                if mp[i] != z:
                    conv[k - d + i] = self.sub(conv[k - d + i],
                                               self.mul(c, mp[i], L - 1), L - 1)
        return tuple(conv[:d])

    def pow(self, a, e: int):
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)


def lift(elem, L: int):
    """The coordinates of a starform ``FieldElem`` at level ``L`` (which must
    be at least the element's own level)."""
    if L == 0:
        if elem.level != 0:
            raise CheckError(f"element of level {elem.level} read at level 0")
        return elem.rep
    d = len(elem.tower.levels[L - 1].minpoly) - 1
    if elem.level == L:
        coords = [lift(c, L - 1) for c in elem.rep]
    else:
        coords = [lift(elem, L - 1)]
    z = lift(elem.tower.zero, L - 1)
    return tuple(coords + [z] * (d - len(coords)))


# ---------------- polynomials ----------------

def trim(F: Field, f: List) -> List:
    while f and f[-1] == F.zero:
        f.pop()
    return f


def poly_of(F: Field, starpoly) -> List:
    """A starform ``StarPoly`` as a polynomial over the top field of F."""
    return trim(F, [lift(c, F.top) for c in starpoly.coeffs])


def poly_from_ints(F: Field, ints: Sequence[int]) -> List:
    return trim(F, [F.from_int(v) for v in ints])


def padd(F: Field, f: List, g: List) -> List:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = F.add(out[i], c)
    return trim(F, out)


def pneg(F: Field, f: List) -> List:
    return [F.neg(c) for c in f]


def pmul(F: Field, f: List, g: List) -> List:
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    if F.top == 0:
        p = F.p
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g):
                    out[i + j] = (out[i + j] + x * y) % p
        return trim(F, out)
    for i, x in enumerate(f):
        if x == F.zero:
            continue
        for j, y in enumerate(g):
            if y != F.zero:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(F, out)


def pstar(F: Field, f: List) -> List:
    """f(-t): the involution fixes the field and sends t to -t."""
    return [F.neg(c) if k % 2 else c for k, c in enumerate(f)]


def pmonic(F: Field, f: List) -> List:
    if not f:
        return []
    c = F.inv(f[-1])
    return [F.mul(c, x) for x in f]


def pdivmod(F: Field, f: List, g: List):
    """Quotient and remainder of f by g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    q = [F.zero] * max(0, len(f) - len(g) + 1)
    cinv = F.inv(g[-1])
    while len(r) >= len(g):
        c = F.mul(r[-1], cinv)
        shift = len(r) - len(g)
        q[shift] = c
        for i, x in enumerate(g):
            r[shift + i] = F.sub(r[shift + i], F.mul(c, x))
        r.pop()
        trim(F, r)
    return trim(F, q), r


def pmod(F: Field, f: List, g: List) -> List:
    return pdivmod(F, f, g)[1]


def pgcd(F: Field, f: List, g: List) -> List:
    """Monic gcd (the gcd of 0 and 0 is 0)."""
    while g:
        f, g = g, pmod(F, f, g)
    return pmonic(F, f)


def pdivides(F: Field, f: List, g: List) -> bool:
    if not f:
        return not g
    return not pmod(F, g, f)


# ---------------- matrices ----------------

def matrix_of(F: Field, M) -> List[List[List]]:
    """A starform ``PolyMatrix`` as a matrix over the top field of F."""
    return [[poly_of(F, e) for e in row] for row in M.entries]


def thawed(M) -> List[List[List]]:
    """A matrix from its ``frozen`` form."""
    return [[list(e) for e in row] for row in M]


def matrix_from_ints(F: Field, rows) -> List[List[List]]:
    return [[poly_from_ints(F, e) for e in row] for row in rows]


def matmul(F: Field, X, Y):
    n, m, k = len(X), len(Y), len(Y[0]) if Y else 0
    out = []
    for i in range(n):
        row = []
        for j in range(k):
            acc: List = []
            for r in range(m):
                if X[i][r] and Y[r][j]:
                    acc = padd(F, acc, pmul(F, X[i][r], Y[r][j]))
            row.append(acc)
        out.append(row)
    return out


def star_transpose(F: Field, M):
    return [[pstar(F, M[j][i]) for j in range(len(M))]
            for i in range(len(M[0]) if M else 0)]


def determinant(F: Field, M) -> List:
    """Laplace expansion along the rows, memoised on the set of columns still
    free: 2^n minors, division-free, so it holds over any commutative ring."""
    n = len(M)
    memo = {}

    def minor(row: int, free: int) -> List:
        if row == n:
            return [F.one]
        if free in memo:
            return memo[free]
        acc: List = []
        sign_pos = 0
        for col in range(n):
            bit = 1 << col
            if not free & bit:
                continue
            entry = M[row][col]
            if entry:
                term = pmul(F, entry, minor(row + 1, free & ~bit))
                acc = padd(F, acc, term if sign_pos % 2 == 0 else pneg(F, term))
            sign_pos += 1
        memo[free] = acc
        return acc

    return minor(0, (1 << n) - 1)


# ---------------- the checks ----------------

def check_congruence(F: Field, A, S, B) -> None:
    """S is unimodular (det S a nonzero constant) and S* A S = B, where
    S*(t) = S(-t)^T."""
    n = len(A)
    for name, M in (("S", S), ("B", B)):
        if len(M) != n or any(len(row) != n for row in M):
            raise CheckError(f"{name} is not {n}x{n}")
    d = determinant(F, S)
    if len(d) != 1:
        raise CheckError(f"det S has degree {len(d) - 1}, so S is not unimodular"
                         if d else "det S = 0, so S is not unimodular")
    got = matmul(F, matmul(F, star_transpose(F, S), A), S)
    for i in range(n):
        for j in range(n):
            if got[i][j] != B[i][j]:
                raise CheckError(f"(S* A S)[{i}][{j}] differs from B[{i}][{j}]")


def block_of(F: Field, block, eps: int) -> List[List[List]]:
    """The matrix of a starform canonical block, built here: (f), or
    [[0, g p], [eps (g p)*, 0]]."""
    if hasattr(block, "f"):
        return [[poly_of(F, block.f)]]
    q = pmul(F, poly_of(F, block.g), poly_of(F, block.p))
    qs = pstar(F, q) if eps == 1 else pneg(F, pstar(F, q))
    return [[[], q], [qs, []]]


def check_direct_sum(F: Field, B, blocks: Sequence[List[List[List]]]) -> None:
    """Each block is 1x1 or 2x2 with a zero diagonal, and B is their direct
    sum in order."""
    n = len(B)
    off = 0
    for k, blk in enumerate(blocks):
        size = len(blk)
        if size not in (1, 2) or any(len(row) != size for row in blk):
            raise CheckError(f"block {k} is not 1x1 or 2x2")
        if size == 2 and (blk[0][0] or blk[1][1]):
            raise CheckError(f"2x2 block {k} has a nonzero diagonal")
        off += size
    if off != n:
        raise CheckError(f"blocks cover {off} rows, B has {n}")
    off = 0
    for k, blk in enumerate(blocks):
        size = len(blk)
        for i in range(size):
            for j in range(n):
                want = blk[i][j - off] if off <= j < off + size else []
                if B[off + i][j] != want:
                    raise CheckError(f"B[{off + i}][{j}] is not block {k}'s entry")
        off += size


def block_invariant_factors(F: Field, blocks) -> List[List]:
    """Invariant factors of the direct sum, read block by block: (f) gives
    monic f; [[0, q], [eps q*, 0]] gives d = gcd(q, q*) and q q* / d, both
    monic.  The list must be a divisibility chain, with zeros last, for it to
    be the Smith form of the sum."""
    out: List[List] = []
    for blk in blocks:
        if len(blk) == 1:
            out.append(pmonic(F, blk[0][0]))
            continue
        q = blk[0][1]
        qs = pstar(F, q)
        d = pgcd(F, q, qs)
        out.append(d)
        out.append(pmonic(F, pdiv_exact(F, pmul(F, q, qs), d)) if d else [])
    nonzero = [f for f in out if f]
    if out[:len(nonzero)] != nonzero:
        raise CheckError("zero invariant factors are not last")
    for k in range(len(nonzero) - 1):
        if not pdivides(F, nonzero[k], nonzero[k + 1]):
            raise CheckError(f"invariant factor {k} does not divide factor {k + 1}")
    return out


def pdiv_exact(F: Field, f: List, g: List) -> List:
    """f / g when g divides f."""
    q, r = pdivmod(F, f, g)
    if r:
        raise CheckError("inexact polynomial division")
    return q


def check_invariant_factors(F: Field, blocks, expected: Sequence[List]) -> None:
    got = block_invariant_factors(F, blocks)
    if len(got) != len(expected):
        raise CheckError(f"{len(got)} invariant factors, expected {len(expected)}")
    for k, (f, g) in enumerate(zip(got, expected)):
        if f != g:
            raise CheckError(f"invariant factor {k} differs from the generated one")


def frozen(value):
    """Plain data as nested tuples: after one collection the garbage
    collector stops tracking them, so keeping every pass-0 output costs later
    collections nothing."""
    if isinstance(value, Field):
        return value.p, frozen(value.minpolys)
    if isinstance(value, (list, tuple)):
        return tuple(frozen(v) for v in value)
    return value


def check_decision(answer: bool, truth: bool) -> None:
    if answer is not truth:
        raise CheckError(f"decided congruent={answer}, truth is {truth}")
