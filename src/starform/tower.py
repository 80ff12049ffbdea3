"""Exact arithmetic in the algebraic closure of F_p, p an odd prime.

The closure is realized as a growing tower F_p = L0 < L1 < L2 < ... where
each level adjoins a root of a monic polynomial irreducible over the level
below.  Levels are append-only: growing the tower never invalidates existing
elements, and arithmetic between elements of different levels lifts to the
higher one.

Elements are immutable values.  Operations that may *grow* the tower
mutate the Tower and need exclusive access to it; everything else is safe to
run concurrently on a frozen snapshot.  The library grows it only through
``sqrt``, by one quadratic level x^2 - a for a non-square a: the half
splits of ``starpoly`` and ``grow_quadratic`` (so ``enumerate_scalars``)
call it.  ``sqrt`` decides by Euler's criterion at a's level, and at level 0
takes the root by Tonelli-Shanks on ints.  ``find_roots`` and ``grow`` add
levels of any degree, for callers of the public API and for the CLI's
``parse_problem``, which rebuilds a certificate's levels.

The Tower also owns the one polynomial kernel of the package: the
``poly_*`` methods add, multiply, divide, take gcds and modular powers of
coefficient lists (trimmed; zero is ``[]``), and ``poly_dot`` sums the
products of a list of pairs, the kernel of matrix products, matrix-vector
products, form values and determinants.  Root finding and factoring here,
and ``StarPoly`` and ``PolyMatrix`` arithmetic, run on it.  Field
operations and each kernel call dispatch once on the highest level
involved, to one of two branches:

- level 0: plain ints mod p, reduced once per output coefficient;
- an extension level: packed F_p coordinates over the flattened field
  (``_FlatField``).  ``poly_mul_flat`` and ``poly_dot`` accumulate each
  output coefficient in one packed int, and ``poly_divmod`` keeps the
  remainder packed and subtracts packed rows of the monic divisor, so only
  output coefficients are built as elements.  Products go through
  multiplication rows (``_mul_rows``): for a coefficient a, the packed
  a e_j for each basis element e_j, built once per coefficient of the
  shorter factor, so each product term costs one multiply-add per nonzero
  coordinate of the other factor, not one per pair of coordinates.  The
  rows live only for one call; they are not kept on elements.  The slot
  width follows p and the level's F_p-dimension, so a slot holds at least
  255 products before the packed accumulators are reduced mod p; every
  prime takes this one branch.

The level-0 branch runs on int lists mod p (``_int_dot``, ``_int_divmod``),
and the element-list kernel converts to them and back.  A tower that has
not grown holds only level-0 elements, so there the kernel skips the scan
for the highest level.  The elimination
loops of ``polymat`` (Smith form, determinant) find the level of a matrix
once and, at level 0, call these int bodies directly for the whole loop;
above level 0 they run on element lists through the per-call dispatch.

An extension-level inverse solves a linear system mod p once per element
and is kept on it (``FieldElem._inv``); canonical elements are shared per
level, so a divisor's leading coefficient is inverted once, not at every
division.

p must be an odd prime below 2^24, since the element caches key each
element by its F_p coordinates packed into 24-bit slots.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

DEFAULT_SEED = 0x5EED


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Level:
    """One extension step: a root of ``minpoly`` (monic, over the level below)."""

    __slots__ = ("name", "minpoly", "degree")

    def __init__(self, name: str, minpoly: Tuple["FieldElem", ...]):
        self.name = name
        self.minpoly = minpoly
        self.degree = len(minpoly) - 1


class FieldElem:
    """Element of the tower.

    ``level == 0``: ``rep`` is an int in [0, p).  ``level >= 1``: ``rep`` is a
    tuple of canonical FieldElems of strictly lower level, length >= 2, last
    entry nonzero (coefficients over the level below).  Canonical form is
    unique, so equality and hashing are structural.
    """

    __slots__ = ("tower", "level", "rep", "_key", "_terms", "_inv")

    def __init__(self, tower: "Tower", level: int, rep):
        self.tower = tower
        self.level = level
        self.rep = rep
        self._key = None
        self._terms = None
        self._inv = None

    # -- canonical order key: level-major, then F_p coordinates --

    def key(self):
        if self._key is None:
            self._key = (self.level, self.tower.fp_coords(self, self.level))
        return self._key

    def _coord_terms(self) -> List[Tuple[int, int]]:
        """The nonzero F_p coordinates as (index, value) pairs.  They are the
        same at every level above the element's own, whose F_p basis
        extends that of the level below."""
        if self._terms is None:
            self._terms = [(i, c) for i, c in enumerate(self.key()[1]) if c]
        return self._terms

    def is_zero(self) -> bool:
        return self.level == 0 and self.rep == 0

    def is_one(self) -> bool:
        return self.level == 0 and self.rep == 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.tower.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.level == other.level and self.rep == other.rep

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        if self.level == 0:
            return hash(self.rep)
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __add__(self, other):
        if isinstance(other, int):
            other = self.tower.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.tower.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower.sub(self, other)

    def __rsub__(self, other):
        return self.tower.elem(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.tower.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.tower.elem(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.tower.div(self, other)

    def __rtruediv__(self, other):
        return self.tower.elem(other).__truediv__(self)

    def __neg__(self):
        return self.tower.neg(self)

    def __pow__(self, e: int):
        return self.tower.pow(self, e)

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return self.tower.format_elem(self)

    def __repr__(self):
        return f"FieldElem({self})"


# The element caches key each element by its F_p coordinates packed into
# _KEY_BITS-bit slots, so p must fit one
_KEY_BITS = 24
_MAX_P = 1 << _KEY_BITS


def _poly_key(h) -> tuple:
    """The order in which factors are sorted: by degree, then coefficients."""
    return len(h), [c.key() for c in h]


class _FlatField:
    """Flat F_p-coordinate arithmetic for one extension level of F_p-dimension
    D: multiplication uses the D^2 precomputed basis products (rows packed
    into single integers so a product is one fused multiply-add per term),
    and inversion solves the multiplication-by-a linear system mod p.

    A packed slot is ``bits`` wide.  It holds sums of unreduced terms
    a_i b_j (e_i e_j)_k, each below (p-1)^3, and one product of coefficient
    vectors adds at most D^2 of them.  The width leaves room for
    ``max_pairs`` such products, at least 255, on top of a value below p,
    which is what a slot holds at the start and after ``reduce``.

    ``wide[i]`` holds the D packed rows e_i e_j side by side, so the
    multiplication rows of an element (``Tower._mul_rows``) cost one
    multiply-add per nonzero coordinate."""

    __slots__ = ("D", "p", "bits", "mask", "shifts", "basis_prod", "packed",
                 "wide", "row_shifts", "row_mask", "max_pairs")

    def __init__(self, D: int, p: int, basis_prod):
        self.D = D
        self.p = p
        product = D * D * (p - 1) ** 3
        self.bits = product.bit_length() + 8
        self.mask = (1 << self.bits) - 1
        self.max_pairs = (self.mask - (p - 1)) // product
        self.shifts = range(0, self.bits * D, self.bits)
        self.basis_prod = basis_prod  # [i][j] -> coordinate list of e_i e_j
        self.packed = [[self.pack(row) for row in rows] for rows in basis_prod]
        width = self.bits * D
        self.wide = [sum(v << (width * j) for j, v in enumerate(rows))
                     for rows in self.packed]
        self.row_shifts = range(0, width * D, width)
        self.row_mask = (1 << width) - 1

    def pack(self, coords) -> int:
        return sum(c << s for c, s in zip(coords, self.shifts))

    def unpack(self, v: int) -> List[int]:
        """The F_p coordinates held in v's slots, each mod p."""
        coords = [0] * self.D
        bits, mask, p = self.bits, self.mask, self.p
        k = 0
        while v:
            coords[k] = (v & mask) % p
            v >>= bits
            k += 1
        return coords

    def reduce(self, v: int) -> int:
        """v with each slot reduced mod p."""
        return self.pack(self.unpack(v)) if v else 0


class Tower:
    """The algebraic closure of F_p as an append-only tower of extensions."""

    def __init__(self, p: int, seed: int = DEFAULT_SEED):
        if p >= _MAX_P:
            raise ValueError(f"p must be below 2^{_KEY_BITS}, got {p}")
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        self.p = p
        self.levels: List[Level] = []
        self.rng = random.Random(seed)
        self._fp_cache = [FieldElem(self, 0, n) for n in range(p)]
        self.zero = self._fp_cache[0]
        self.one = self._fp_cache[1]
        self._flats: List = [None]
        self._coord_sizes: List[int] = [1]
        self._elem_cache: List[dict] = [{}]

    # ---------------- basic constructors ----------------

    def elem(self, n: int) -> FieldElem:
        return self._fp_cache[n % self.p]

    def generator(self, level: int) -> FieldElem:
        """The adjoined root that defines ``level`` (level >= 1)."""
        if not 1 <= level <= len(self.levels):
            raise ValueError(f"no generator for level {level}")
        return self._canon(level, [self.zero, self.one])

    def num_levels(self) -> int:
        return len(self.levels)

    def level_degree(self, level: int) -> int:
        return self.levels[level - 1].degree

    def coord_size(self, level: int) -> int:
        """F_p-dimension of the level-``level`` field."""
        sizes = self._coord_sizes
        while len(sizes) <= len(self.levels):
            sizes.append(sizes[-1] * self.levels[len(sizes) - 1].degree)
        return sizes[level]

    def field_order(self, level: int) -> int:
        return self.p ** self.coord_size(level)

    def _canon(self, level: int, coeffs: List[FieldElem]) -> FieldElem:
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            return self.zero
        if len(coeffs) == 1:
            return coeffs[0]
        return FieldElem(self, level, tuple(coeffs))

    def _view(self, a: FieldElem, level: int) -> List[FieldElem]:
        """Coefficient vector of ``a`` over the field below ``level``."""
        if a.level == level:
            return list(a.rep)
        return [a]

    # ---------------- flat F_p-coordinate arithmetic ----------------

    def _flat(self, level: int) -> _FlatField:
        flats = self._flats
        while len(flats) <= level:
            flats.append(None)
        ff = flats[level]
        if ff is None:
            D = self.coord_size(level)
            basis = [self.from_fp_coords(level, [1 if i == k else 0
                                                 for i in range(D)])
                     for k in range(D)]
            prods = [[list(self.fp_coords(self._mul_slow(basis[i], basis[j]),
                                          level))
                      for j in range(D)] for i in range(D)]
            ff = _FlatField(D, self.p, prods)
            flats[level] = ff
        return ff

    def _flat_coords(self, a: FieldElem, D: int) -> Tuple[int, ...]:
        own = a.key()[1]
        if len(own) == D:
            return own
        return own + (0,) * (D - len(own))

    def _elem_from_flat(self, level: int, coords) -> FieldElem:
        """Canonical element from F_p coordinates, memoized per level so the
        nested representation is shared instead of rebuilt."""
        if level == 0:
            return self._fp_cache[coords[0]]
        packed = 0
        for k in range(len(coords) - 1, -1, -1):
            packed = (packed << _KEY_BITS) | coords[k]
        caches = self._elem_cache
        while len(caches) <= level:
            caches.append({})
        cache = caches[level]
        e = cache.get(packed)
        if e is None:
            block = self.coord_size(level - 1)
            deg = self.levels[level - 1].degree
            children = [self._elem_from_flat(level - 1,
                                             coords[i * block:(i + 1) * block])
                        for i in range(deg)]
            e = self._canon(level, children)
            if e.level == level and e._key is None:
                e._key = (level, tuple(coords))
            if len(cache) < 500_000:
                cache[packed] = e
        return e

    def _from_packed(self, level: int, ff: _FlatField, v: int) -> FieldElem:
        """The element whose F_p coordinates are v's slots, each mod p."""
        return self._elem_from_flat(level, ff.unpack(v))

    @staticmethod
    def _mul_rows(ff: _FlatField, terms) -> List[int]:
        """The multiplication rows of the element a with nonzero coordinates
        ``terms`` ((i, a_i) pairs, a_i < p): rows[j] = a e_j, packed and
        unreduced, so a b = sum of b_j rows[j], one multiply-add per nonzero
        coordinate of b.  A slot of a row is below D (p-1)^2 and a product
        still adds at most D^2 terms below (p-1)^3 to a slot, so the bound
        of ``ff.max_pairs`` is unchanged.  A single coordinate takes the
        precomputed rows of its basis element."""
        if len(terms) == 1:
            i, ai = terms[0]
            rows = ff.packed[i]
            return rows if ai == 1 else [ai * r for r in rows]
        wide = ff.wide
        w = 0
        for i, ai in terms:
            w += ai * wide[i]
        mask = ff.row_mask
        return [(w >> s) & mask for s in ff.row_shifts]

    def _mul_flat(self, a: FieldElem, b: FieldElem, level: int) -> FieldElem:
        ff = self._flat(level)
        rows = self._mul_rows(ff, a._coord_terms())
        v = 0
        for j, bj in b._coord_terms():
            v += bj * rows[j]
        return self._from_packed(level, ff, v)

    def _add_flat(self, a: FieldElem, b: FieldElem, level: int) -> FieldElem:
        D = self.coord_size(level)
        p = self.p
        ca = self._flat_coords(a, D)
        cb = self._flat_coords(b, D)
        return self._elem_from_flat(level, [(x + y) % p for x, y in zip(ca, cb)])

    def poly_mul_flat(self, ca_elems, cb_elems, level: int) -> List[FieldElem]:
        """Convolution of two nonempty coefficient vectors whose entries live
        at the extension ``level``: the whole product accumulates in packed
        integer space, materializing only the output coefficients."""
        ff = self._flat(level)
        return [self._from_packed(level, ff, v)
                for v in self._packed_dot([(ca_elems, cb_elems)], ff)]

    def _packed_dot(self, pairs, ff: _FlatField) -> List[int]:
        """Sum of the products f_i g_i of nonempty coefficient vectors, one
        packed unreduced int per output coefficient.  The multiplication rows
        of each coefficient of the shorter factor are built once and serve
        every coefficient of the other.  Each such coefficient adds at most
        D^2 terms below (p-1)^3 to a slot, so after every ``ff.max_pairs``
        of them the accumulators are reduced mod p."""
        mul_rows = self._mul_rows
        acc = [0] * (max(len(f) + len(g) for f, g in pairs) - 1)
        room = ff.max_pairs
        for f, g in pairs:
            if len(f) > len(g):
                f, g = g, f
            sb = [e._coord_terms() for e in g]
            for ia, a in enumerate(f):
                A_ = a._coord_terms()
                if not A_:
                    continue
                if not room:
                    acc = [ff.reduce(v) for v in acc]
                    room = ff.max_pairs
                room -= 1
                rows = mul_rows(ff, A_)
                for ib, B_ in enumerate(sb, ia):
                    if B_:
                        tot = acc[ib]
                        for j, bj in B_:
                            tot += bj * rows[j]
                        acc[ib] = tot
        return acc

    def _inv_flat(self, a: FieldElem, level: int) -> FieldElem:
        ff = self._flat(level)
        D = ff.D
        p = self.p
        ca = self._flat_coords(a, D)
        # columns of multiplication-by-a in the flat basis
        M = [[0] * D for _ in range(D)]
        for i, ai in enumerate(ca):
            if not ai:
                continue
            for j in range(D):
                row = ff.basis_prod[i][j]
                for k in range(D):
                    r = row[k]
                    if r:
                        M[k][j] = (M[k][j] + ai * r) % p
        # solve M x = e_0 mod p
        rhs = [1] + [0] * (D - 1)
        for col in range(D):
            piv = None
            for r in range(col, D):
                if M[r][col]:
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("flat inverse of a non-unit")
            if piv != col:
                M[col], M[piv] = M[piv], M[col]
                rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = pow(M[col][col], p - 2, p)
            M[col] = [(v * inv) % p for v in M[col]]
            rhs[col] = (rhs[col] * inv) % p
            for r in range(D):
                if r != col and M[r][col]:
                    f = M[r][col]
                    M[r] = [(vr - f * vc) % p for vr, vc in zip(M[r], M[col])]
                    rhs[r] = (rhs[r] - f * rhs[col]) % p
        return self.from_fp_coords(level, rhs)

    # ---------------- arithmetic ----------------

    def add(self, a: FieldElem, b: FieldElem) -> FieldElem:
        lv = a.level if a.level >= b.level else b.level
        if lv == 0:
            return self._fp_cache[(a.rep + b.rep) % self.p]
        if a.level == 0 and a.rep == 0:
            return b
        if b.level == 0 and b.rep == 0:
            return a
        return self._add_flat(a, b, lv)

    def sub(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.add(a, self.neg(b))

    def neg(self, a: FieldElem) -> FieldElem:
        if a.level == 0:
            return self._fp_cache[(-a.rep) % self.p]
        p = self.p
        return self._elem_from_flat(a.level, [(-c) % p for c in a.key()[1]])

    def mul(self, a: FieldElem, b: FieldElem) -> FieldElem:
        lv = a.level if a.level >= b.level else b.level
        if lv == 0:
            return self._fp_cache[(a.rep * b.rep) % self.p]
        if (a.level == 0 and a.rep == 0) or (b.level == 0 and b.rep == 0):
            return self.zero
        return self._mul_flat(a, b, lv)

    def _mul_slow(self, a: FieldElem, b: FieldElem) -> FieldElem:
        lv = a.level if a.level >= b.level else b.level
        if lv == 0:
            return self._fp_cache[(a.rep * b.rep) % self.p]
        va, vb = self._view(a, lv), self._view(b, lv)
        conv = [self.zero] * (len(va) + len(vb) - 1)
        for i, x in enumerate(va):
            if x.is_zero():
                continue
            for j, y in enumerate(vb):
                if y.is_zero():
                    continue
                conv[i + j] = self.add(conv[i + j], self.mul(x, y))
        return self._canon(lv, self._reduce_mod_minpoly(lv, conv))

    def _reduce_mod_minpoly(self, level: int, coeffs: List[FieldElem]) -> List[FieldElem]:
        mp = self.levels[level - 1].minpoly
        d = len(mp) - 1
        while len(coeffs) > d:
            lead = coeffs.pop()
            if lead.is_zero():
                continue
            base = len(coeffs) - d
            for i in range(d):
                if not mp[i].is_zero():
                    coeffs[base + i] = self.sub(coeffs[base + i], self.mul(lead, mp[i]))
        return coeffs

    def inv(self, a: FieldElem) -> FieldElem:
        if a.is_zero():
            raise ZeroDivisionError("field inverse of zero")
        if a.level == 0:
            return self._fp_cache[pow(a.rep, self.p - 2, self.p)]
        if a._inv is None:
            # canonical elements are shared per level, so the memo serves
            # every later division by the same value
            a._inv = self._inv_flat(a, a.level)
        return a._inv

    def _inv_euclid(self, a: FieldElem) -> FieldElem:
        lv = a.level
        # extended Euclid between rep-polynomial and the minimal polynomial,
        # with coefficient arithmetic one level down
        r0 = list(self.levels[lv - 1].minpoly)
        r1 = self._view(a, lv)
        s0: List[FieldElem] = []
        s1: List[FieldElem] = [self.one]
        while len(r1) > 1:
            q, r = self.poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.poly_sub(s0, self.poly_mul(q, s1))
        return self._canon(lv, self.poly_scale(self.inv(r1[0]), s1))

    def div(self, a: FieldElem, b: FieldElem) -> FieldElem:
        return self.mul(a, self.inv(b))

    def pow(self, a: FieldElem, e: int) -> FieldElem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return self.one
        if a.level == 0:
            return self._fp_cache[pow(a.rep, e, self.p)]
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # ---------------- the polynomial kernel ----------------
    #
    # Coefficient lists, constant term first and trimmed (nonzero leading
    # coefficient); the zero polynomial is [].  Apart from poly_trim, no
    # method mutates its arguments.  The module docstring gives the two
    # branches of the dispatch.

    def _poly_level(self, f, g) -> int:
        if not self.levels:  # nothing lies above F_p until the tower grows
            return 0
        lv = 0
        for c in f:
            if c.level > lv:
                lv = c.level
        for c in g:
            if c.level > lv:
                lv = c.level
        return lv

    def poly_trim(self, f: List[FieldElem]) -> List[FieldElem]:
        """Drop zero leading coefficients of ``f`` in place; returns ``f``."""
        while f and f[-1].is_zero():
            f.pop()
        return f

    def poly_add(self, f, g) -> List[FieldElem]:
        return self._poly_add_sub(f, g, 1)

    def poly_sub(self, f, g) -> List[FieldElem]:
        return self._poly_add_sub(f, g, -1)

    def _poly_add_sub(self, f, g, sign: int) -> List[FieldElem]:
        """f + sign * g, sign = +/-1."""
        if not g:
            return list(f)
        if not f:
            return list(g) if sign > 0 else self.poly_neg(g)
        out = list(f)
        out.extend([self.zero] * (len(g) - len(f)))
        if self._poly_level(f, g) == 0:
            p, cache = self.p, self._fp_cache
            for i, c in enumerate(g):
                out[i] = cache[(out[i].rep + sign * c.rep) % p]
        else:
            op = self.add if sign > 0 else self.sub
            for i, c in enumerate(g):
                out[i] = op(out[i], c)
        return self.poly_trim(out)

    def poly_neg(self, f) -> List[FieldElem]:
        neg = self.neg
        return [neg(c) for c in f]

    def poly_scale(self, c: FieldElem, f) -> List[FieldElem]:
        if c.is_zero():
            return []
        mul = self.mul
        return [mul(c, x) for x in f]

    def poly_mul(self, f, g) -> List[FieldElem]:
        if not f or not g:
            return []
        lv = self._poly_level(f, g)
        if lv == 0:
            p = self.p
            b = [y.rep for y in g]
            out = [0] * (len(f) + len(b) - 1)
            for i, x in enumerate(f):
                x = x.rep
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
            cache = self._fp_cache
            return [cache[v % p] for v in out]
        return self.poly_mul_flat(f, g, lv)

    def poly_dot(self, pairs) -> List[FieldElem]:
        """The trimmed sum of the products f_i g_i over ``pairs`` of
        coefficient lists.  Each output coefficient accumulates over all the
        pairs in one int (level 0) or one packed int (an extension level)
        and is built as an element once."""
        live = [(f, g) for f, g in pairs if f and g]
        if not live:
            return []
        lv = 0
        if self.levels:  # nothing lies above F_p until the tower grows
            for f, g in live:
                for c in f:
                    if c.level > lv:
                        lv = c.level
                for c in g:
                    if c.level > lv:
                        lv = c.level
        if lv == 0:
            cache = self._fp_cache
            return [cache[v] for v in self._int_dot(
                [([x.rep for x in f], [y.rep for y in g]) for f, g in live])]
        ff = self._flat(lv)
        out = [self._from_packed(lv, ff, v) for v in self._packed_dot(live, ff)]
        return self.poly_trim(out)

    def _int_dot(self, pairs) -> List[int]:
        """poly_dot on int lists mod p (a nonempty list of pairs, which may
        hold empty lists): the trimmed, reduced sum of the products f_i g_i,
        accumulated in one int per output coefficient."""
        acc = [0] * (max([len(f) + len(g) for f, g in pairs]) - 1)
        for f, g in pairs:
            for i, x in enumerate(f):
                if x:
                    for j, y in enumerate(g, i):
                        acc[j] += x * y
        p = self.p
        while acc and not acc[-1] % p:
            acc.pop()
        return [v % p for v in acc]

    def _int_divmod(self, a: List[int], b: List[int]):
        """Quotient and trimmed remainder of int lists mod p (``b`` trimmed,
        nonzero)."""
        p = self.p
        n = len(b)
        binv = pow(b[-1], p - 2, p)
        r = list(a)
        q = [0] * (len(a) - n + 1)
        for k in range(len(q) - 1, -1, -1):
            c = (r[k + n - 1] * binv) % p
            q[k] = c
            if c:
                for i, y in enumerate(b, k):
                    if y:
                        r[i] -= c * y
        r = [v % p for v in r[:n - 1]]
        while r and not r[-1]:
            r.pop()
        return q, r

    def poly_divmod(self, f, g) -> Tuple[List[FieldElem], List[FieldElem]]:
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        n = len(g)
        if len(f) < n:
            return [], list(f)
        lv = self._poly_level(f, g)
        if lv == 0:
            q, r = self._int_divmod([c.rep for c in f], [c.rep for c in g])
            cache = self._fp_cache
            return [cache[v] for v in q], [cache[v] for v in r]
        return self._divmod_flat(f, g, lv, self._flat(lv))

    def _divmod_flat(self, f, g, level: int, ff: _FlatField):
        """poly_divmod at an extension level, in packed coordinates: the
        remainder stays packed, each step subtracts the quotient coefficient
        times the precomputed packed rows of the monic divisor, and only the
        quotient and the final remainder are built as elements.  A slot of
        the remainder takes at most one product of coordinate vectors per
        step, so after every ``ff.max_pairs`` steps it is reduced mod p."""
        D, p = ff.D, self.p
        mul_rows, unpack = self._mul_rows, ff.unpack
        n = len(g)
        # the multiplication rows of lc(g)^-1, and hrows[j][i]: e_i times
        # the t^j coefficient of g / lc(g), packed
        ginv = None if g[-1].is_one() else mul_rows(ff, self.inv(g[-1])._coord_terms())
        hrows = []
        for y in g[:-1]:
            terms = y._coord_terms()
            if ginv is not None and terms:
                hy = unpack(sum([c * ginv[i] for i, c in terms]))
                terms = [(i, c) for i, c in enumerate(hy) if c]
            hrows.append(mul_rows(ff, terms))
        r = [ff.pack(self._flat_coords(e, D)) for e in f]
        q = [self.zero] * (len(f) - n + 1)
        room = ff.max_pairs
        for k in range(len(q) - 1, -1, -1):
            lead = unpack(r[k + n - 1])
            terms = [(i, p - c) for i, c in enumerate(lead) if c]
            if not terms:
                continue
            if ginv is not None:
                lead = unpack(sum([c * ginv[i] for i, c in enumerate(lead) if c]))
            q[k] = self._elem_from_flat(level, lead)
            if not room:
                r[:k + n - 1] = [ff.reduce(v) for v in r[:k + n - 1]]
                room = ff.max_pairs
            room -= 1
            for j, rows in enumerate(hrows, k):
                r[j] += sum(c * rows[i] for i, c in terms)
        rem = [self._from_packed(level, ff, v) for v in r[:n - 1]]
        return q, self.poly_trim(rem)

    def poly_mod(self, f, g) -> List[FieldElem]:
        return self.poly_divmod(f, g)[1]

    def poly_monic(self, f) -> List[FieldElem]:
        if not f or f[-1].is_one():
            return list(f)
        return self.poly_scale(self.inv(f[-1]), f)

    def poly_gcd(self, f, g) -> List[FieldElem]:
        """The monic gcd; [] when both are zero."""
        if self._poly_level(f, g) == 0:
            a, b = [c.rep for c in f], [c.rep for c in g]
            while b:
                a, b = b, self._int_divmod(a, b)[1]
            f = [self._fp_cache[v] for v in a]
        else:
            while g:
                f, g = g, self.poly_mod(f, g)
        return self.poly_monic(f)

    def poly_powmod(self, f, e: int, m) -> List[FieldElem]:
        result = [self.one]
        base = self.poly_mod(f, m)
        while e:
            if e & 1:
                result = self.poly_mod(self.poly_mul(result, base), m)
            base = self.poly_mod(self.poly_mul(base, base), m)
            e >>= 1
        return result

    def _peval(self, f, x: FieldElem) -> FieldElem:
        acc = self.zero
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), c)
        return acc

    # ---------------- F_p coordinates ----------------

    def fp_coords(self, a: FieldElem, level: Optional[int] = None) -> Tuple[int, ...]:
        """Coordinates of ``a`` in the F_p tensor basis of ``level``."""
        if level is None:
            level = a.level
        if level == 0:
            return (a.rep,)
        block = self.coord_size(level - 1)
        deg = self.levels[level - 1].degree
        vec = self._view(a, level)
        out: List[int] = []
        for i in range(deg):
            if i < len(vec):
                out.extend(self.fp_coords(vec[i], level - 1))
            else:
                out.extend([0] * block)
        return tuple(out)

    def from_fp_coords(self, level: int, coords: Sequence[int]) -> FieldElem:
        if level == 0:
            return self.elem(coords[0])
        return self._elem_from_flat(level, [c % self.p for c in coords])

    def random_element(self, level: int, rng: Optional[random.Random] = None) -> FieldElem:
        rng = rng or self.rng
        coords = [rng.randrange(self.p) for _ in range(self.coord_size(level))]
        return self.from_fp_coords(level, coords)

    # ---------------- tower growth ----------------

    def grow(self, minpoly: Sequence[FieldElem]) -> FieldElem:
        """Append a level with the given monic minimal polynomial; return its root."""
        mp = self.poly_monic(self.poly_trim(list(minpoly)))
        if len(mp) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        top = len(self.levels)
        for c in mp:
            if c.level > top:
                raise ValueError("minimal polynomial coefficients exceed tower top")
        name = f"u{len(self.levels) + 1}"
        self.levels.append(Level(name, tuple(mp)))
        return self.generator(len(self.levels))

    def _find_nonsquare(self, level: int) -> FieldElem:
        """Deterministically the first non-square at ``level`` (field order)."""
        q = self.field_order(level)
        idx = 2
        while True:
            c = self._elem_of_index(level, idx)
            if not c.is_zero() and not self.pow(c, (q - 1) // 2).is_one():
                return c
            idx += 1

    def grow_quadratic(self) -> FieldElem:
        """Grow the tower by the smallest pure quadratic x^2 - c, c a non-square."""
        return self.sqrt(self._find_nonsquare(len(self.levels)))

    # ---------------- root finding ----------------

    def find_roots(self, coeffs: Sequence[FieldElem]) -> List[FieldElem]:
        """All roots of the polynomial with multiplicity, sorted by key,
        growing the tower as needed so the polynomial splits completely:
        the irreducible factors are taken in ``factor_monic`` order, and each
        takes its roots from the smallest existing level that holds them or
        else grows one level.  Deterministic given the tower seed."""
        f = self.poly_trim(list(coeffs))
        if not f:
            raise ValueError("zero polynomial has no well-defined roots")
        roots: List[FieldElem] = []
        for h, m in self.factor_monic(f):
            if len(h) == 2:  # its root is in the tower: it never grows it
                roots.extend([self.neg(h[0])] * m)
            else:
                roots.extend(self._roots_of_irreducible(h) * m)
        roots.sort(key=FieldElem.key)
        return roots

    def _roots_of_irreducible(self, h) -> List[FieldElem]:
        """The roots of h, monic and irreducible of degree >= 2 over the
        level of its coefficients: from the smallest existing level that
        holds them, or else from one new level."""
        d = len(h) - 1
        base = max(c.level for c in h)
        # they lie in every level whose field contains F_{q_base^d}
        unit = self.coord_size(base) * d
        for lv in range(base + 1, len(self.levels) + 1):
            if self.coord_size(lv) % unit == 0:
                roots = self._roots_in_level(h, lv)
                if len(roots) != d:
                    raise AssertionError(f"{len(roots)} roots of a degree-{d} "
                                         f"irreducible in level {lv}")
                return roots
        # over the top level h breaks into factors of one degree, and the
        # level that adjoins a root of one of them holds the roots of all
        top = len(self.levels)
        pieces = [h] if base == top else sorted(
            self._factor_over_level(h, top)[1], key=_poly_key)
        roots = self._grow_with_orbit(pieces[0])
        for piece in pieces[1:]:
            roots.extend(self._roots_of_irreducible(piece))
        return roots

    def _pderiv(self, f):
        return self.poly_trim([self.mul(self.elem(i), f[i])
                               for i in range(1, len(f))])

    def _pth_root(self, c: FieldElem) -> FieldElem:
        # Frobenius is an automorphism of every finite level; its inverse on
        # the field of order q is x -> x^(q/p)
        q = self.field_order(max(c.level, 0))
        if q == self.p:
            return c
        return self.pow(c, q // self.p)

    def _grow_with_orbit(self, minpoly) -> List[FieldElem]:
        """Adjoin a root of an irreducible-over-top polynomial; its full root
        set is the Frobenius orbit of the new generator."""
        q_prev = self.field_order(len(self.levels))
        gen = self.grow(minpoly)
        out = []
        r = gen
        for _ in range(len(minpoly) - 1):
            out.append(r)
            r = self.pow(r, q_prev)
        return out

    def _roots_in_level(self, h, level: int) -> List[FieldElem]:
        """All roots of h inside the given existing level (h splits there)."""
        q = self.field_order(level)
        x = [self.zero, self.one]
        v = self.poly_powmod(x, q, h)
        g = self.poly_gcd(self.poly_sub(v, x), h)
        return [self.neg(c[0])
                for c in self._equal_degree_split(g, 1, q, level)]

    def _factor_over_level(self, f, level: int
                           ) -> Tuple[List[FieldElem], List[List[FieldElem]]]:
        """Factor squarefree monic f over the field at ``level`` (which must
        contain all its coefficients).

        Returns (roots at that level, irreducible factors of degree >= 2).
        """
        q = self.field_order(level)
        lin: List[FieldElem] = []
        irred: List[List[FieldElem]] = []
        f = self.poly_monic(f)
        x = [self.zero, self.one]
        # distinct-degree factorization
        v = self.poly_mod(x, f)
        d = 0
        while len(f) - 1 >= 2 * (d + 1):
            d += 1
            v = self.poly_powmod(v, q, f)
            g = self.poly_gcd(self.poly_sub(v, x), f)
            if len(g) > 1:
                for h in self._equal_degree_split(g, d, q, level):
                    if d == 1:
                        lin.append(self.neg(h[0]))
                    else:
                        irred.append(h)
                f = self.poly_divmod(f, g)[0]
                v = self.poly_mod(v, f)
        if len(f) > 1:
            if len(f) == 2:
                lin.append(self.neg(f[0]))
            else:
                irred.append(f)
        return lin, irred

    def _equal_degree_split(self, g, d: int, q: int,
                            level: int) -> List[List[FieldElem]]:
        """Cantor-Zassenhaus split of g into monic irreducibles of degree d
        over the field at ``level``."""
        out: List[List[FieldElem]] = []
        work = [self.poly_monic(g)]
        e = (q ** d - 1) // 2
        while work:
            h = work.pop()
            if len(h) - 1 == d:
                out.append(h)
                continue
            while True:
                r = self.poly_trim([self.random_element(level)
                                    for _ in range(len(h) - 1)])
                if not r:
                    continue
                w = self.poly_powmod(r, e, h)
                w = self.poly_sub(w, [self.one])
                u = self.poly_gcd(w, h)
                if 1 < len(u) < len(h):
                    work.append(u)
                    work.append(self.poly_divmod(h, u)[0])
                    break
        out.sort(key=_poly_key)
        return out

    # ---------------- factorization without growth ----------------

    def factor_monic(self, coeffs: Sequence[FieldElem]
                     ) -> List[Tuple[List[FieldElem], int]]:
        """Factor a nonzero polynomial into monic irreducibles over the
        smallest level containing its coefficients, with multiplicities.
        Never grows the tower."""
        f = self.poly_trim(list(coeffs))
        if not f:
            raise ValueError("cannot factor the zero polynomial")
        f = self.poly_monic(f)
        base = max((c.level for c in f), default=0)
        out: List[Tuple[List[FieldElem], int]] = []

        def record(h, m):
            for k, (h2, m2) in enumerate(out):
                if h2 == h:
                    out[k] = (h2, m2 + m)
                    return
            out.append((h, m))

        stack: List[Tuple[List[FieldElem], int]] = [(f, 1)]
        while stack:
            g, m = stack.pop()
            g = self.poly_monic(g)
            if len(g) == 1:
                continue
            if len(g) == 2:
                record(g, m)
                continue
            dg = self._pderiv(g)
            if not dg:
                # g = h(t^p) = (frobenius-root h)(t)^p in characteristic p
                h = [self._pth_root(g[i]) for i in range(0, len(g), self.p)]
                stack.append((h, m * self.p))
                continue
            d = self.poly_gcd(g, dg)
            if len(d) == 1:
                lin, irred = self._factor_over_level(g, base)
                for h in [[self.neg(r), self.one] for r in lin] + irred:
                    record(h, m)
            else:
                q, r = self.poly_divmod(g, d)
                if r:
                    raise AssertionError("gcd(g, g') does not divide g")
                stack.append((d, m))
                stack.append((q, m))
        out.sort(key=lambda hm: _poly_key(hm[0]))
        return out

    def find_one_root(self, coeffs: Sequence[FieldElem]) -> FieldElem:
        """The smallest root by key of ``find_roots``; bench/layers.py
        times this name."""
        return self.find_roots(coeffs)[0]

    # ---------------- square roots ----------------

    def sqrt(self, a: FieldElem) -> FieldElem:
        """The smaller square root of ``a`` by key.  Euler's criterion at
        a's level decides where it lies: in that level when a is a square
        there (by Tonelli-Shanks at level 0), else in the smallest existing
        level of even degree over it, else in a new level x^2 - a, whose
        generator is the root returned.  The only growth of the tower this
        makes is by that quadratic level."""
        if a.is_zero():
            return self.zero
        base = a.level
        x2_minus_a = [self.neg(a), self.zero, self.one]
        if self.pow(a, (self.field_order(base) - 1) // 2).is_one():
            if base == 0:
                r = self._fp_sqrt(a.rep)
                return self._fp_cache[min(r, self.p - r)]
            level = base
        else:
            even = 2 * self.coord_size(base)
            level = next((lv for lv in range(base + 1, len(self.levels) + 1)
                          if self.coord_size(lv) % even == 0), None)
            if level is None:
                return self.grow(x2_minus_a)
        return min(self._roots_in_level(x2_minus_a, level), key=FieldElem.key)

    def _fp_sqrt(self, a: int) -> int:
        """A square root mod p of a nonzero square a, by Tonelli-Shanks."""
        p = self.p
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = odd * 2^s
        odd = (p - 1) >> s
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        c, t, r = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
        while t != 1:  # r^2 = a t, t^(2^(s-1)) = 1 and c has order 2^s
            i, t2 = 1, t * t % p
            while t2 != 1:
                i, t2 = i + 1, t2 * t2 % p
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return r

    # ---------------- scalar enumeration ----------------

    def enumerate_scalars(self) -> Iterator[FieldElem]:
        """Deterministic stream 0, 1, ..., p-1, then the proper elements of
        each successive level.  Grows the tower (quadratically) when the
        stream outruns it.  Never repeats; reaches every element of any fixed
        finite level eventually."""
        for n in range(self.p):
            yield self._fp_cache[n]
        level = 1
        while True:
            if len(self.levels) < level:
                self.grow_quadratic()
            for idx in range(self.field_order(level - 1), self.field_order(level)):
                yield self._elem_of_index(level, idx)
            level += 1

    def _elem_of_index(self, level: int, idx: int) -> FieldElem:
        """The element of ``level`` whose F_p coordinates are the base-p
        digits of idx, least significant first."""
        coords = []
        for _ in range(self.coord_size(level)):
            idx, c = divmod(idx, self.p)
            coords.append(c)
        return self.from_fp_coords(level, coords)

    # ---------------- text form ----------------

    def format_elem(self, a: FieldElem) -> str:
        """Prime-field elements as decimal ints; extension elements as
        polynomial expressions in the generator names."""
        if a.level == 0:
            return str(a.rep)
        return self._format_in(self.levels[a.level - 1].name, a.rep)

    def _format_in(self, name: str, coeffs) -> str:
        """The polynomial with the given coefficients in the variable name."""
        terms = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c.is_zero():
                continue
            if i == 0:
                terms.append(self.format_elem(c))
                continue
            power = name if i == 1 else f"{name}^{i}"
            if c.is_one():
                terms.append(power)
            else:
                cs = self.format_elem(c)
                if c.level > 0:
                    cs = f"({cs})"
                terms.append(f"{cs}*{power}")
        return "+".join(terms) if terms else "0"

    def describe_levels(self) -> List[str]:
        """Header lines defining each generator by its minimal polynomial."""
        return [f"{lv.name}: {self._format_in(lv.name, lv.minpoly)} = 0"
                for lv in self.levels]
