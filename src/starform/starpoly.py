"""The ring R = F[t] with the involution t -> -t.

Polynomials carry the grading R = R_0 + R_1 (even/odd powers of t).  On top
of plain Euclidean arithmetic this module provides the involution-aware
machinery: purity, the pure/homogeneous splitting, norm factorizations
z z* = y, the norm-equation solvers a x +/- a* x* = b, and the even-Bezout
construction.  All results are exact; operations that factor polynomials may
grow the underlying tower.
"""

from __future__ import annotations

from typing import List, Tuple

from .tower import FieldElem, Tower

EVEN = "even"
ODD = "odd"
MIXED = "mixed"
ZERO = "zero"


class StarPoly:
    """Dense polynomial in t over a Tower; ``coeffs[k]`` is the t^k coefficient.

    Immutable; the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Tower, coeffs):
        cs = tuple(coeffs)
        while cs and cs[-1].is_zero():
            cs = cs[:-1]
        self.tower = tower
        self.coeffs = cs

    # ---------------- constructors ----------------

    @staticmethod
    def zero(tower: Tower) -> "StarPoly":
        return StarPoly(tower, ())

    @staticmethod
    def one(tower: Tower) -> "StarPoly":
        return StarPoly(tower, (tower.one,))

    @staticmethod
    def t(tower: Tower) -> "StarPoly":
        return StarPoly(tower, (tower.zero, tower.one))

    @staticmethod
    def const(tower: Tower, c) -> "StarPoly":
        if isinstance(c, int):
            c = tower.elem(c)
        return StarPoly(tower, (c,))

    @staticmethod
    def monomial(tower: Tower, c, k: int) -> "StarPoly":
        if isinstance(c, int):
            c = tower.elem(c)
        return StarPoly(tower, (tower.zero,) * k + (c,))

    @staticmethod
    def from_ints(tower: Tower, ints) -> "StarPoly":
        return StarPoly(tower, [tower.elem(n) for n in ints])

    @staticmethod
    def from_roots(tower: Tower, roots, lead=None) -> "StarPoly":
        out = StarPoly.one(tower) if lead is None else StarPoly.const(tower, lead)
        for r in roots:
            out = out * StarPoly(tower, (tower.neg(r), tower.one))
        return out

    # ---------------- basics ----------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self) -> FieldElem:
        if not self.coeffs:
            return self.tower.zero
        return self.coeffs[-1]

    def constant_value(self) -> FieldElem:
        if self.degree() > 0:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else self.tower.zero

    def coeff(self, k: int) -> FieldElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.tower.zero

    def __eq__(self, other):
        if not isinstance(other, StarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __ne__(self, other):
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __hash__(self):
        return hash(tuple(c.key() for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # ---------------- ring arithmetic ----------------
    # thin wrappers over the tower's polynomial kernel

    def __add__(self, other: "StarPoly") -> "StarPoly":
        return StarPoly(self.tower, self.tower.poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "StarPoly") -> "StarPoly":
        return StarPoly(self.tower, self.tower.poly_sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "StarPoly":
        return StarPoly(self.tower, self.tower.poly_neg(self.coeffs))

    def __mul__(self, other):
        T = self.tower
        if isinstance(other, StarPoly):
            return StarPoly(T, T.poly_mul(self.coeffs, other.coeffs))
        if isinstance(other, int):
            other = T.elem(other)
        return StarPoly(T, T.poly_scale(other, self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "StarPoly":
        out = StarPoly.one(self.tower)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "StarPoly"):
        T = self.tower
        q, r = T.poly_divmod(self.coeffs, other.coeffs)
        return StarPoly(T, q), StarPoly(T, r)

    def __floordiv__(self, other: "StarPoly") -> "StarPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "StarPoly") -> "StarPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "StarPoly") -> "StarPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def divides(self, other: "StarPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "StarPoly":
        if self.is_zero() or self.lc().is_one():
            return self
        return self * self.tower.inv(self.lc())

    def shift(self, k: int) -> "StarPoly":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return StarPoly(self.tower, (self.tower.zero,) * k + self.coeffs)

    # ---------------- involution and grading ----------------

    def star(self) -> "StarPoly":
        T = self.tower
        return StarPoly(T, [T.neg(c) if (k & 1) else c
                            for k, c in enumerate(self.coeffs)])

    def parity(self) -> str:
        if self.is_zero():
            return ZERO
        has_even = any(not c.is_zero() for c in self.coeffs[0::2])
        has_odd = any(not c.is_zero() for c in self.coeffs[1::2])
        if has_even and has_odd:
            return MIXED
        return EVEN if has_even else ODD

    def is_even(self) -> bool:
        return self.parity() in (EVEN, ZERO)

    def is_odd(self) -> bool:
        return self.parity() in (ODD, ZERO)

    def is_homogeneous(self) -> bool:
        return self.parity() != MIXED

    def even_part(self) -> "StarPoly":
        T = self.tower
        return StarPoly(T, [c if (k & 1) == 0 else T.zero
                            for k, c in enumerate(self.coeffs)])

    def odd_part(self) -> "StarPoly":
        return self - self.even_part()

    def eval(self, x) -> FieldElem:
        T = self.tower
        if isinstance(x, int):
            x = T.elem(x)
        acc = T.zero
        for c in reversed(self.coeffs):
            acc = T.add(T.mul(acc, x), c)
        return acc

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"StarPoly({self})"


# ---------------- gcd machinery ----------------

def gcd(a: StarPoly, b: StarPoly) -> StarPoly:
    return StarPoly(a.tower, a.tower.poly_gcd(a.coeffs, b.coeffs))


def gcd_many(polys) -> StarPoly:
    it = iter(polys)
    g = next(it)
    for q in it:
        g = gcd(g, q)
        if g.degree() == 0 and not g.is_zero():
            break
    return g.monic()


def gcd_bezout(a: StarPoly, b: StarPoly) -> Tuple[StarPoly, StarPoly, StarPoly]:
    """(g, u, v) with g = gcd(a, b) monic and a u + b v = g, u reduced
    mod b/g so certificates stay small."""
    T = a.tower
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd_bezout(0, 0)")
    r0, r1 = a, b
    u0, u1 = StarPoly.one(T), StarPoly.zero(T)
    v0, v1 = StarPoly.zero(T), StarPoly.one(T)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    c = T.inv(r0.lc())
    g, u, v = r0 * c, u0 * c, v0 * c
    if not b.is_zero():
        bg = b.exact_div(g)
        if bg.degree() > 0 and u.degree() >= bg.degree():
            q2, u = divmod(u, bg)
            v = v + q2 * a.exact_div(g)
    return g, u, v


# ---------------- purity and norms ----------------

def is_pure(a: StarPoly) -> bool:
    """a is pure when gcd(a, a*) = 1."""
    if a.is_zero():
        raise ValueError("purity is undefined for zero")
    return gcd(a, a.star()).is_one()


def pure_split(a: StarPoly) -> Tuple[StarPoly, StarPoly]:
    """a = a0 * a1 with a0 = gcd(a, a*) monic homogeneous and a1 pure."""
    if a.is_zero():
        raise ValueError("cannot split zero")
    a0 = gcd(a, a.star())
    a1 = a.exact_div(a0)
    return a0, a1


def factor_poly(a: StarPoly) -> List[Tuple["StarPoly", int]]:
    """Monic irreducible factors over the coefficient field, with
    multiplicity; never grows the tower."""
    if a.is_zero():
        raise ValueError("cannot factor zero")
    T = a.tower
    return [(StarPoly(T, h), m) for h, m in T.factor_monic(list(a.coeffs))]


def _star_families(y: StarPoly):
    """Group the irreducible factors of y under the involution.

    Returns (m0, pairs, selfstars) where m0 is the multiplicity of t, pairs
    is a list of (h, h_star, mult) with h != h_star, and selfstars lists
    (h, mult) with h* = +/- h.  Every even polynomial decomposes this way
    with balanced pair multiplicities.
    """
    T = y.tower
    t = StarPoly.t(T)
    factors = dict()
    order = []
    for h, m in factor_poly(y):
        factors[h] = m
        order.append(h)
    m0 = factors.pop(t, 0)
    if t in order:
        order.remove(t)
    pairs = []
    selfstars = []
    seen = set()
    for h in order:
        if h in seen or h not in factors:
            continue
        hs = h.star().monic()
        if hs == h:
            selfstars.append((h, factors[h]))
            seen.add(h)
            continue
        if factors.get(hs) != factors[h]:
            raise ValueError("factor multiset is not star symmetric")
        lo, hi = sorted((h, hs), key=lambda f: [c.key() for c in f.coeffs])
        pairs.append((lo, hi, factors[h]))
        seen.add(h)
        seen.add(hs)
    return m0, pairs, selfstars


def _half_split(h: StarPoly) -> StarPoly:
    """For h irreducible with h* = +/- h and h(0) != 0: a pure w with
    w w* = h up to a constant, the product of the member with the smaller
    key of each star pair {g, g*} of factors of h over the top level.

    A factor g that is self-star and irreducible over the top level F_q,
    of degree 2e, splits over F_{q^2}, the next fixed level, into two
    factors of degree e.  So only the quadratic levels that h needs and the
    tower lacks are grown, v_2(deg h) over h's coefficients.  A self-star
    factor of degree 2 is t^2 + g(0), whose pair t -/+ sqrt(-g(0)) is taken
    in closed form, with no random draw."""
    T = h.tower
    if h.degree() % 2 != 0:
        raise ValueError("self-star irreducible factors have even degree")

    def key(f: StarPoly):
        return [c.key() for c in f.coeffs]

    def half(g: StarPoly) -> StarPoly:
        if g.degree() == 2:
            r = StarPoly.const(T, T.sqrt(-g.coeff(0)))
            return min(StarPoly.t(T) - r, StarPoly.t(T) + r, key=key)
        roots, irred = T._factor_over_level(list(g.coeffs), T.num_levels())
        pieces = [StarPoly(T, f) for f in [[T.neg(r), T.one] for r in roots] + irred]
        if pieces == [g]:  # self-star and irreducible over the top level
            T.grow()
            return half(g)
        w = StarPoly.one(T)
        for f in pieces:
            fs = f.star().monic()
            if f == fs:
                w = w * half(f)
            elif key(f) < key(fs):
                w = w * f
        return w

    w = half(h)
    if (w * w.star()).exact_div(h).degree() != 0:
        raise AssertionError("half split: w w* is not h up to a constant")
    return w


def _norm_factor_build(y: StarPoly, want_pure: bool, pick) -> StarPoly:
    """Shared engine: z with z z* = y.

    ``pick(lo, hi)`` chooses a side for each star-pair (and for the two
    half-orbit candidates of a self-star factor).  With ``want_pure`` the
    self-star factors use full one-sided half-splits so z comes out pure;
    otherwise even self-star multiplicities stay in the ground field.
    """
    T = y.tower
    m0, pairs, selfstars = _star_families(y)
    if m0 % 2 != 0:
        raise ValueError("even polynomial must have even valuation at 0")
    z0 = StarPoly.one(T).shift(m0 // 2)
    for lo, hi, m in pairs:
        z0 = z0 * (pick(lo, hi) ** m)
    for h, m in selfstars:
        if want_pure or m % 2:
            w = _half_split(h)  # monic
            ws = w.star().monic()
            use = pick(*sorted((w, ws), key=lambda f: [c.key() for c in f.coeffs]))
            if want_pure:
                z0 = z0 * (use ** m)
            else:
                z0 = z0 * (h ** (m // 2)) * use
        else:
            z0 = z0 * (h ** (m // 2))
    n0 = z0 * z0.star()
    ratio = y.exact_div(n0)
    c = T.sqrt(ratio.constant_value())
    return z0 * c


def norm_factor(y: StarPoly) -> StarPoly:
    """z with z z* = y, for even nonzero y (may grow the tower)."""
    if y.is_zero():
        raise ValueError("norm_factor of zero")
    if y.parity() != EVEN:
        raise ValueError("norm_factor requires an even polynomial")
    return _norm_factor_build(y, False, lambda lo, hi: lo)


def norm_factor_avoiding(y: StarPoly, a1: StarPoly) -> StarPoly:
    """z with z z* = y and a1 z pure; needs y even with y(0) != 0, a1 pure."""
    T = y.tower
    if y.is_zero() or y.parity() != EVEN:
        raise ValueError("norm_factor_avoiding requires an even nonzero polynomial")
    if y.eval(T.zero).is_zero():
        raise ValueError("y(0) = 0 makes a pure factor impossible")
    if not is_pure(a1):
        raise ValueError("a1 must be pure")

    def pick(lo, hi):
        # a factor s may enter z only when no root mu of s has a1(-mu) = 0,
        # i.e. gcd(a1, s*) = 1; purity of a1 rules out both sides failing
        if gcd(a1, lo.star()).is_one():
            return lo
        if gcd(a1, hi.star()).is_one():
            return hi
        raise ValueError("a1 is not pure: both factor sides excluded")

    z = _norm_factor_build(y, True, pick)
    return z


def canonical_pure_factor(h: StarPoly) -> StarPoly:
    """The canonical pure p with p p* = h, for monic even h with h(0) != 0.

    From each +/- root pair the smaller member (canonical field order) is
    taken; the leading constant is fixed by the deterministic square root.
    This pins a unique representative among all valid factorizations.
    """
    T = h.tower
    if h.is_zero() or not h.lc().is_one():
        raise ValueError("canonical_pure_factor needs a monic polynomial")
    if h.parity() != EVEN or h.eval(T.zero).is_zero():
        raise ValueError("canonical_pure_factor needs an even h with h(0) != 0")
    p = _norm_factor_build(h, True, lambda lo, hi: lo)
    if not is_pure(p):
        raise ValueError("h admits no pure norm factorization")
    return p


def solve_norm_equation(a: StarPoly, b: StarPoly, sign: str) -> StarPoly:
    """x with a x + a* x* = b (sign '+') or a x - a* x* = b (sign '-').

    Needs a pure and b of the matching parity (even for '+', odd for '-').
    """
    T = a.tower
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if a.is_zero() or not is_pure(a):
        raise ValueError("a must be pure")
    if b.is_zero():
        return StarPoly.zero(T)
    if sign == "+" and b.parity() != EVEN:
        raise ValueError("'+' norm equation needs an even right-hand side")
    if sign == "-" and b.parity() != ODD:
        raise ValueError("'-' norm equation needs an odd right-hand side")
    astar = a.star()
    g, u, v = gcd_bezout(a, astar)
    if not g.is_one():
        raise AssertionError("a pure polynomial is not coprime to its star")
    h = b * T.inv(T.elem(2))
    # a y + a* z = b/2 with y reduced mod a*
    y = (u * h) % astar if astar.degree() > 0 else u * h
    z = (h - a * y).exact_div(astar)
    x = y + z.star() if sign == "+" else y - z.star()
    return x


def coprime_even_bezout(a: StarPoly, b: StarPoly) -> Tuple[StarPoly, StarPoly]:
    """(x, y) with a x + b y = 1 and x even; needs gcd(a,b) = 1 and b pure."""
    T = a.tower
    g, u, v = gcd_bezout(a, b)
    if not g.is_one():
        raise ValueError("a and b must be coprime")
    if not is_pure(b):
        raise ValueError("b must be pure")
    rhs = u.star() - u
    z = solve_norm_equation(b, rhs, "-")
    x = u + b * z
    y = v - a * z
    if x.parity() not in (EVEN, ZERO):
        raise AssertionError("even Bezout coefficient is not even")
    return x, y


def even_bezout(a: StarPoly, b: StarPoly) -> Tuple[StarPoly, StarPoly, StarPoly]:
    """Bezout of two even polynomials carried out inside R_0 = F[t^2], so the
    coefficients come back even: a x + b y = g."""
    T = a.tower
    if not (a.is_even() and b.is_even()):
        raise ValueError("even_bezout needs even inputs")
    sa = StarPoly(T, a.coeffs[0::2])
    sb = StarPoly(T, b.coeffs[0::2])
    g, u, v = gcd_bezout(sa, sb)
    return _inflate(g), _inflate(u), _inflate(v)


def _inflate(s: StarPoly) -> StarPoly:
    T = s.tower
    out = []
    for c in s.coeffs:
        out.append(c)
        out.append(T.zero)
    return StarPoly(T, out[:-1] if out else out)


# ---------------- text form ----------------

def format_poly(a: StarPoly) -> str:
    """Terms c*t^k / t^k / c joined with +/-; residues above p/2 print via
    the '-' separator so e.g. t^2+4 over F_5 renders as t^2-1."""
    T = a.tower
    if a.is_zero():
        return "0"
    parts = []
    for k in range(a.degree(), -1, -1):
        c = a.coeff(k)
        if c.is_zero():
            continue
        neg = False
        if c.level == 0 and c.rep > T.p // 2:
            neg = True
            c = T.neg(c)
        if k == 0:
            body = T.format_elem(c) if c.level == 0 else f"({T.format_elem(c)})"
        else:
            tpow = "t" if k == 1 else f"t^{k}"
            if c.is_one():
                body = tpow
            elif c.level == 0:
                body = f"{T.format_elem(c)}*{tpow}"
            else:
                body = f"({T.format_elem(c)})*{tpow}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"-{body}" if neg else f"+{body}")
    return "".join(parts)


class _Parser:
    """Recursive descent over the entry grammar, whitespace dropped first:

        expr   := [+|-] term {(+|-) term}
        term   := factor {* factor}
        factor := t [^ int] | atom [^ int]
        atom   := ( expr ) | uK | int

    Integers are reduced mod p and uK is the generator of tower level K.
    Values are the tower kernel's trimmed coefficient lists: t^k is built as
    the list [0]*k + [1], so a term c*t^k costs one product by a constant,
    and ^ on any other atom squares and multiplies (StarPoly.__pow__)."""

    def __init__(self, text: str, tower: Tower):
        self.text = "".join(text.split())
        self.pos = 0
        self.tower = tower

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ValueError(f"expected '{ch}' at {self.pos} in {self.text!r}")
        self.pos += 1

    def parse(self) -> StarPoly:
        value = self.expr()
        if self.pos != len(self.text):
            raise ValueError(f"trailing input at {self.pos} in {self.text!r}")
        return StarPoly(self.tower, value)

    def expr(self) -> List[FieldElem]:
        T = self.tower
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        value = self.term()
        if sign < 0:
            value = T.poly_neg(value)
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            value = T.poly_sub(value, rhs) if op == "-" else T.poly_add(value, rhs)
        return value

    def term(self) -> List[FieldElem]:
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = self.tower.poly_mul(value, self.factor())
        return value

    def factor(self) -> List[FieldElem]:
        T = self.tower
        if self.peek() == "t":
            self.pos += 1
            k = 1
            if self.peek() == "^":
                self.pos += 1
                k = self.integer()
            return [T.zero] * k + [T.one]
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            value = list((StarPoly(T, value) ** self.integer()).coeffs)
        return value

    def atom(self) -> List[FieldElem]:
        T = self.tower
        ch = self.peek()
        if ch == "(":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value
        if ch == "u":
            self.pos += 1
            return [T.generator(self.integer())]
        if ch.isdigit():
            return T.poly_trim([T.elem(self.integer())])
        raise ValueError(f"unexpected character {ch!r} at {self.pos} in {self.text!r}")

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected integer at {start} in {self.text!r}")
        return int(self.text[start:self.pos])


def parse_poly(text: str, tower: Tower) -> StarPoly:
    """Parse one entry written in the grammar of ``_Parser`` into ``tower``;
    raises ValueError on text outside it or on a level the tower lacks."""
    return _Parser(text, tower).parse()
