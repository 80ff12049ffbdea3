"""Exact arithmetic in the algebraic closure of F_p, p an odd prime.

The closure is realized as a growing tower F_p = L0 < L1 < L2 < ... where
level k adjoins u_k, a root of x^2 - c_k for a fixed non-square c_k of the
level below, so it has F_p-dimension 2^k.  Levels are append-only: growing
the tower never invalidates existing elements, and arithmetic between
elements of different levels lifts to the higher one.

Elements are immutable values.  Operations that may *grow* the tower
mutate the Tower and need exclusive access to it; everything else is safe to
run concurrently on a frozen snapshot.

Every level is quadratic, and level k depends only on p and k: it is
x^2 - c_k, with c_1 = n0 the least non-square of F_p, c_k = u_(k-1) when
p = 1 mod 4 or k >= 3, and, for p = 3 mod 4, c_2 the first non-square of
F_{p^2} in ``_elem_of_index`` order from index p (``_nonsquare``).  So
towers that reach level k agree on it whatever grew them, and congruent
forms print the same text.  ``grow`` appends the next fixed level.
``sqrt`` decides by Euler's criterion at a's level b: a square takes its
root by Tonelli-Shanks with the non-square c_(b+1), and a non-square a the
root sqrt(a / c_(b+1)) u_(b+1), which grows level b + 1 when b is the top.
``find_roots`` grows the levels that its factors of degree 2^j need.

The Tower also owns the one polynomial kernel of the package: the
``poly_*`` methods add, multiply, divide, take gcds and modular powers of
coefficient lists (trimmed; zero is ``[]``); ``poly_dot`` sums the
products of a list of pairs, the kernel of matrix products above F_p,
matrix-vector products, form values and determinants; and ``poly_axpy``
is the fused f + c g of every elementary move of elimination,
transvections and column reductions.  Root finding and factoring here,
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

The level-0 branch runs on int lists mod p (``_int_dot``, ``_int_axpy``,
``_int_divmod``), and the element-list kernel converts to them and back.
A tower that has not grown holds only level-0 elements, so there the
kernel skips the scan for the highest level.  The elimination loops of
``polymat`` (Smith form, determinant) find the level of a matrix once and,
at level 0, call these int bodies directly for the whole loop; above
level 0 they run on element lists through the per-call dispatch.  Matrix
products and congruences over F_p do not call this kernel: ``polymat``
packs each entry into one int, its coefficients in fixed-width slots, and
multiplies the packed ints.

An extension-level inverse is taken by the norm,
(a0 + a1 u)^-1 = (a0 - a1 u) / (a0^2 - c a1^2), with one inverse one level
down, and is kept on the element (``FieldElem._inv``); canonical elements
are shared per level, so a divisor's leading coefficient is inverted once,
not at every division.

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
    """One extension step: a root of x^2 - c, c a non-square of the level
    below; ``minpoly`` is (-c, 0, 1), coefficients lowest first."""

    __slots__ = ("name", "c", "minpoly")

    def __init__(self, name: str, c: "FieldElem"):
        self.name = name
        self.c = c
        self.minpoly = (-c, c.tower.zero, c.tower.one)


class FieldElem:
    """Element of the tower.

    ``level == 0``: ``rep`` is an int in [0, p).  ``level >= 1``: ``rep`` is
    the pair (a0, a1) of canonical FieldElems of lower level, a1 nonzero,
    for the element a0 + a1 u_level.  Canonical form is unique, so equality
    and hashing are structural.  Every extension element is built by
    ``Tower._elem_from_flat``, which sets its key.
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
        if self._key is None:  # only level 0 builds its key on demand
            self._key = (0, (self.rep,))
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
    which ``Tower._flat`` builds from those of the level below by u^2 = c.

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
        # c_1, the least non-square of F_p, and c_2 once _nonsquare finds it
        self._c = [self._fp_cache[next(n for n in range(2, p)
                                       if pow(n, (p - 1) // 2, p) == p - 1)]]
        self._flats: List = [None]
        self._elem_cache: List[dict] = [{}]

    # ---------------- basic constructors ----------------

    def elem(self, n: int) -> FieldElem:
        return self._fp_cache[n % self.p]

    def generator(self, level: int) -> FieldElem:
        """The adjoined root that defines ``level`` (level >= 1)."""
        if not 1 <= level <= len(self.levels):
            raise ValueError(f"no generator for level {level}")
        coords = [0] * self.coord_size(level)
        coords[self.coord_size(level - 1)] = 1
        return self._elem_from_flat(level, coords)

    def num_levels(self) -> int:
        return len(self.levels)

    @staticmethod
    def coord_size(level: int) -> int:
        """F_p-dimension of the level-``level`` field."""
        return 1 << level

    def field_order(self, level: int) -> int:
        return self.p ** self.coord_size(level)

    # ---------------- flat F_p-coordinate arithmetic ----------------

    def _flat(self, level: int) -> _FlatField:
        """The flat field of ``level``.  Its basis is e_i u^a (a = 0, 1) for
        the basis e_i of the level below, and its basis products are
        (e_i u^a)(e_j u^b) = e_i e_j u^(a+b), with u^2 = c."""
        flats = self._flats
        while len(flats) <= level:
            flats.append(None)
        ff = flats[level]
        if ff is None:
            p = self.p
            below = self._flat(level - 1).basis_prod if level > 1 else [[[1]]]
            h = len(below)
            zeros = [0] * h

            def combine(v, rows):  # sum of v_m rows[m], mod p
                terms = [(m, a) for m, a in enumerate(v) if a]
                return [sum([a * rows[m][n] for m, a in terms]) % p
                        for n in range(h)]

            # c e_m = sum of c_l e_m e_l, in coordinates one level down
            c = self.fp_coords(self.levels[level - 1].c, level - 1)
            c_rows = [combine(c, row) for row in below]
            # rows e_i (a = 0), then rows e_i u (a = 1)
            prods = [[v + zeros for v in row] + [zeros + v for v in row]
                     for row in below]
            prods += [[zeros + v for v in row] + [combine(v, c_rows) + zeros
                                                  for v in row] for row in below]
            ff = _FlatField(2 * h, p, prods)
            flats[level] = ff
        return ff

    def _elem_from_flat(self, level: int, coords) -> FieldElem:
        """Canonical element from F_p coordinates, memoized per level so the
        nested representation is shared instead of rebuilt.  It is the pair
        of the elements one level down whose coordinates are the two halves
        of ``coords``, or the lower half alone when the upper one is zero."""
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
            h = len(coords) >> 1
            e = self._elem_from_flat(level - 1, coords[:h])
            if packed >> (_KEY_BITS * h):
                e = FieldElem(self, level,
                              (e, self._elem_from_flat(level - 1, coords[h:])))
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
        p = self.p
        ca = self.fp_coords(a, level)
        cb = self.fp_coords(b, level)
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

    def inv(self, a: FieldElem) -> FieldElem:
        if a.is_zero():
            raise ZeroDivisionError("field inverse of zero")
        if a.level == 0:
            return self._fp_cache[pow(a.rep, self.p - 2, self.p)]
        if a._inv is None:
            # canonical elements are shared per level, so the memo serves
            # every later division by the same value
            a._inv = self._inv_norm(a)
        return a._inv

    def _inv_norm(self, a: FieldElem) -> FieldElem:
        """(a0 + a1 u)^-1 = (a0 - a1 u) / (a0^2 - c a1^2) for a = (a0, a1) at
        an extension level: the norm a0^2 - c a1^2 lies one level down, and
        is nonzero since c is not a square there."""
        mul, level = self.mul, a.level
        a0, a1 = a.rep
        c = self.levels[level - 1].c
        n = self.inv(self.sub(mul(a0, a0), mul(c, mul(a1, a1))))
        return self._elem_from_flat(
            level, self.fp_coords(mul(a0, n), level - 1)
            + self.fp_coords(self.neg(mul(a1, n)), level - 1))

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

    def poly_axpy(self, f, c, g) -> List[FieldElem]:
        """The trimmed f + c g: the elementary move of eliminations,
        transvections and column reductions, one kernel call with one
        dispatch.  At level 0 it runs on int lists (``_int_axpy``); above,
        it is ``poly_dot`` of the pairs (1, f) and (c, g)."""
        if not c or not g:
            return list(f)
        lv = 0
        if self.levels:  # nothing lies above F_p until the tower grows
            for h in (f, c, g):
                for x in h:
                    if x.level > lv:
                        lv = x.level
        if lv == 0:
            cache = self._fp_cache
            return [cache[v] for v in self._int_axpy(
                [x.rep for x in f], [x.rep for x in c], [x.rep for x in g])]
        ff = self._flat(lv)
        pairs = (((self.one,), f), (c, g)) if f else ((c, g),)
        out = [self._from_packed(lv, ff, v) for v in self._packed_dot(pairs, ff)]
        return self.poly_trim(out)

    def _int_axpy(self, f: List[int], c: List[int], g: List[int]) -> List[int]:
        """poly_axpy on int lists mod p: the trimmed, reduced f + c g,
        accumulated on a copy of f."""
        acc = list(f)
        n = len(c) + len(g) - 1
        if len(acc) < n:
            acc.extend([0] * (n - len(acc)))
        for i, x in enumerate(c):
            if x:
                for j, y in enumerate(g, i):
                    acc[j] += x * y
        p = self.p
        while acc and not acc[-1] % p:
            acc.pop()
        return [v % p for v in acc]

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
        if n == 1:  # a constant divides in one pass, with no remainder
            return [(x * binv) % p for x in a], []
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
        p = self.p
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
        r = [ff.pack(self.fp_coords(e, level)) for e in f]
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
        """Coordinates of ``a`` in the F_p basis of ``level`` (at least a's
        own): its key's coordinates, padded with zeros."""
        own = a.key()[1]
        if level is None:
            return own
        return own + (0,) * ((1 << level) - len(own))

    def from_fp_coords(self, level: int, coords: Sequence[int]) -> FieldElem:
        if level == 0:
            return self.elem(coords[0])
        return self._elem_from_flat(level, [c % self.p for c in coords])

    def random_element(self, level: int, rng: Optional[random.Random] = None) -> FieldElem:
        rng = rng or self.rng
        coords = [rng.randrange(self.p) for _ in range(self.coord_size(level))]
        return self.from_fp_coords(level, coords)

    # ---------------- tower growth ----------------

    def _nonsquare(self, level: int) -> FieldElem:
        """c_(level+1), the fixed non-square of ``level`` (which the tower
        has) whose square root is u_(level+1).  u_(k-1) is a non-square at
        level k-1: its norm to level k-2 is -c_(k-1), a non-square when -1
        is a square there, which holds when p = 1 mod 4 and at every level
        from 1 on.  When p = 3 mod 4, u_1 is a square, so c_2 is found by
        a scan past the p elements of F_p."""
        if level > 1 or (level == 1 and self.p % 4 == 1):
            return self.generator(level)
        if len(self._c) == level:
            half = (self.field_order(1) - 1) // 2
            idx = self.p
            while self.pow(self._elem_of_index(1, idx), half).is_one():
                idx += 1
            self._c.append(self._elem_of_index(1, idx))
        return self._c[level]

    def grow(self) -> FieldElem:
        """Append the next fixed level x^2 - c_k; return its generator."""
        c = self._nonsquare(len(self.levels))
        self.levels.append(Level(f"u{len(self.levels) + 1}", c))
        return self.generator(len(self.levels))

    def grow_quadratic(self) -> FieldElem:
        """``grow()``; bench/layers.py counts calls under this name."""
        return self.grow()

    # ---------------- root finding ----------------

    def find_roots(self, coeffs: Sequence[FieldElem]) -> List[FieldElem]:
        """All roots of the polynomial with multiplicity, sorted by key.
        An irreducible factor of degree 2^j over level b splits in level
        b + j, which is grown if missing; a factor of any other degree
        raises ValueError, as the tower holds only quadratic levels."""
        f = self.poly_trim(list(coeffs))
        if not f:
            raise ValueError("zero polynomial has no well-defined roots")
        roots: List[FieldElem] = []
        for h, m in self.factor_monic(f):
            d = len(h) - 1
            if d & (d - 1):
                raise ValueError(f"an irreducible factor of degree {d} has no "
                                 "roots in a tower of quadratic levels")
            if d == 1:
                roots.extend([self.neg(h[0])] * m)
                continue
            level = max(c.level for c in h) + d.bit_length() - 1
            while len(self.levels) < level:
                self.grow()
            roots.extend(self._roots_in_level(h, level) * m)
        roots.sort(key=FieldElem.key)
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
        a's level b decides where it lies.  A square takes its root in
        level b by Tonelli-Shanks.  For a non-square, a / c_(b+1) is a
        square in level b, so the root is sqrt(a / c_(b+1)) u_(b+1); this
        grows level b + 1 when b is the top, the only growth sqrt makes."""
        if a.is_zero():
            return self.zero
        b = a.level
        q = self.field_order(b)
        c = self._nonsquare(b)
        if self.pow(a, (q - 1) // 2).is_one():
            r = self._tonelli_shanks(a, c, q)
        else:
            if b == len(self.levels):
                self.grow()
            r = self.mul(self.sqrt(self.div(a, c)), self.generator(b + 1))
        neg = self.neg(r)
        return r if r.key() <= neg.key() else neg

    def _tonelli_shanks(self, a: FieldElem, z: FieldElem, q: int) -> FieldElem:
        """A square root of the nonzero square a in the field of order q,
        by Tonelli-Shanks with the non-square z of that field."""
        mul, pow_ = self.mul, self.pow
        s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = odd * 2^s
        odd = (q - 1) >> s
        c, t, r = pow_(z, odd), pow_(a, odd), pow_(a, (odd + 1) // 2)
        while not t.is_one():  # r^2 = a t, t^(2^(s-1)) = 1, c of order 2^s
            i, t2 = 1, mul(t, t)
            while not t2.is_one():
                i, t2 = i + 1, mul(t2, t2)
            b = pow_(c, 1 << (s - i - 1))
            s, c = i, mul(b, b)
            t, r = mul(t, c), mul(r, b)
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
                self.grow()
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
