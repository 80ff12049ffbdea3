import random

import pytest
from hypothesis import given, settings, strategies as st

from starform.tower import Level, Tower
from starform.starpoly import (EVEN, MIXED, ODD, ZERO, StarPoly, _half_split,
                               canonical_pure_factor, coprime_even_bezout,
                               even_bezout, format_poly, gcd, gcd_bezout,
                               is_pure, norm_factor, norm_factor_avoiding,
                               parse_poly, pure_split, solve_norm_equation)


def T5():
    return Tower(5)


def P(s, T):
    return parse_poly(s, T)


def rand_poly(T, rng, maxdeg, nonzero=False):
    while True:
        deg = rng.randint(-1, maxdeg)
        if deg < 0:
            p = StarPoly.zero(T)
        else:
            coeffs = [rng.randrange(T.p) for _ in range(deg)]
            coeffs.append(rng.randrange(1, T.p))
            p = StarPoly.from_ints(T, coeffs)
        if not (nonzero and p.is_zero()):
            return p


# ---------------- the polynomial kernel ----------------

def _school_trim(f):
    while f and f[-1].is_zero():
        f.pop()
    return f


def _school_mul(T, f, g):
    out = [T.zero] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = T.add(out[i + j], T.mul(x, y))
    return _school_trim(out)


def _school_divmod(T, f, g):
    r = list(f)
    q = [T.zero] * max(len(f) - len(g) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = T.mul(r[k + len(g) - 1], T.inv(g[-1]))
        q[k] = c
        for i, y in enumerate(g):
            r[k + i] = T.add(r[k + i], T.neg(T.mul(c, y)))
    return _school_trim(q), _school_trim(r[:len(g) - 1])


def _school_gcd(T, f, g):
    while g:
        f, g = g, _school_divmod(T, f, g)[1]
    return [T.mul(T.inv(f[-1]), c) for c in f] if f else f


def _school_add(T, f, g):
    out = list(f) + [T.zero] * max(len(g) - len(f), 0)
    for i, y in enumerate(g):
        out[i] = T.add(out[i], y)
    return _school_trim(out)


def _kernel_towers():
    """(tower, level): F_5 (int arithmetic), then packed flat products over
    F_81, a small two-level case, over the three-level F_{5^8}, and over
    the five-level F_{3^32}, where building an element's multiplication
    rows saves the most; then F_{163^2}, the first prime whose quadratic
    products would not fit a 24-bit slot, and F_{8191^2}.  Those two adjoin
    a root of x^2 + 1 (-1 is a non-square, as both are 3 mod 4), so that
    u^2 = p - 1 keeps the products of large coordinates large."""
    prime = Tower(5)
    small = Tower(3)
    small.grow()
    small.grow()
    flat = Tower(5)
    for _ in range(3):
        flat.grow()
    deep = Tower(3)
    for _ in range(5):
        deep.grow()
    assert deep.coord_size(5) == 32
    towers = [(prime, 0), (small, 2), (flat, 3), (deep, 5)]
    for p in (163, 8191):
        T = Tower(p)
        T.levels.append(Level("u1", T.elem(-1)))
        assert T._flat(1).max_pairs >= 255
        towers.append((T, 1))
    return towers


def _largest(T, lv):
    """The element of level lv whose F_p coordinates are all p - 1."""
    return T.from_fp_coords(lv, [T.p - 1] * T.coord_size(lv))


def test_kernel_matches_schoolbook():
    rng = random.Random(17)
    for T, lv in _kernel_towers():
        def rand(maxdeg):
            return StarPoly(T, [T.random_element(rng.randint(0, lv), rng)
                                for _ in range(rng.randint(0, maxdeg + 1))])
        for trial in range(60):
            a, b = rand(6), rand(4)
            if trial % 3 == 0:  # a common factor makes the gcd nontrivial
                c = rand(2)
                a, b = a * c, b * c
            assert list((a * b).coeffs) == _school_mul(T, list(a.coeffs), list(b.coeffs))
            if b.is_zero():
                with pytest.raises(ZeroDivisionError):
                    divmod(a, b)
            else:
                q, r = divmod(a, b)
                assert q * b + r == a and r.degree() < b.degree()
                assert (list(q.coeffs), list(r.coeffs)) == \
                    _school_divmod(T, list(a.coeffs), list(b.coeffs))
            assert list(gcd(a, b).coeffs) == \
                _school_gcd(T, list(a.coeffs), list(b.coeffs))
        if T.p > 100:
            # more than max_pairs products in the middle slots of a b, and
            # more than max_pairs quotient steps in (a b) / g
            a = [_largest(T, lv)] * (T._flat(lv).max_pairs + 2)
            ab = T.poly_mul(a, a)
            assert ab == _school_mul(T, a, a)
            g = [T.one, _largest(T, lv), T.elem(2)]
            assert T.poly_divmod(ab, g) == _school_divmod(T, ab, g)


def test_poly_dot_matches_schoolbook():
    """poly_dot against the sum of schoolbook products: pairs of mixed
    levels, pairs that cancel, and sums that put more products into one
    slot than it holds without a reduction mod p."""
    rng = random.Random(23)
    for T, lv in _kernel_towers():
        def rand(maxdeg, level=None):
            f = [T.random_element(rng.randint(0, lv) if level is None else level, rng)
                 for _ in range(rng.randint(0, maxdeg + 1))]
            return _school_trim(f)
        assert T.poly_dot([]) == []
        for trial in range(40):
            pairs = [(rand(5), rand(4)) for _ in range(rng.randint(1, 4))]
            if trial % 4 == 0:  # one pair in F_p beside one at the top level
                pairs += [(rand(3, 0), rand(3, 0)), (rand(3, lv), rand(3, lv))]
            if trial % 5 == 0:  # f g + (-f) g cancels to zero
                f, g = rand(4), rand(4)
                pairs += [(f, g), ([T.neg(c) for c in f], g)]
            want = []
            for f, g in pairs:
                want = _school_add(T, want, _school_mul(T, f, g))
            assert T.poly_dot(pairs) == want
            f, g = rand(4), rand(4)
            assert T.poly_dot([(f, g), ([T.neg(c) for c in f], g)]) == []
        if T.p > 100:
            # 8 max_pairs products of the largest element into the middle
            # slot: twice what it holds unreduced
            f = [_largest(T, lv)] * 20
            pairs = [(f, f)] * (8 * T._flat(lv).max_pairs // 20)
            want = []
            for _ in pairs:
                want = _school_add(T, want, _school_mul(T, f, f))
            assert T.poly_dot(pairs) == want


def test_poly_axpy_matches_add_mul():
    """poly_axpy(f, c, g) against poly_add(f, poly_mul(c, g)) at levels 0, 1
    and 2: an empty c or g, a top coefficient that cancels, a sum that
    cancels to zero, and factors longer than ``_flat(lv).max_pairs``."""
    rng = random.Random(29)
    grown = Tower(5)
    grown.grow()
    deep = Tower(3)
    deep.grow()
    deep.grow()
    for T, lv in ((Tower(5), 0), (grown, 1), (deep, 2)):
        def rand(maxdeg, level=None):
            f = [T.random_element(rng.randint(0, lv) if level is None else level, rng)
                 for _ in range(rng.randint(0, maxdeg + 1))]
            return _school_trim(f)

        def want(f, c, g):
            return T.poly_add(f, T.poly_mul(c, g))
        for trial in range(60):
            f, c, g = rand(6), rand(3), rand(4)
            assert T.poly_axpy(f, c, g) == want(f, c, g)
            assert T.poly_axpy(f, [], g) == T.poly_axpy(f, c, []) == f
            if c and g:
                # f's top coefficient cancels that of c g, or all of it
                cg = T.poly_mul(c, g)
                f = [T.neg(x) for x in cg]
                assert T.poly_axpy(f, c, g) == []
                f[0] = T.add(f[0], T.one)
                assert T.poly_axpy(f, c, g) == want(f, c, g) == [T.one]
                h = rand(len(cg) - 1)
                f = T.poly_sub(h, cg)
                assert T.poly_axpy(f, c, g) == h
        # every slot of c g takes more products than it holds unreduced
        n = T._flat(lv).max_pairs + 2 if lv else 300
        top = _largest(T, lv)
        f, c, g = [top] * n, [top] * n, [top] * n
        assert T.poly_axpy(f, c, g) == want(f, c, g)


def test_packed_divmod():
    """q g + r = f with deg r < deg g, for monic and non-monic divisors, and
    a quotient long enough to need the reductions of the packed remainder."""
    rng = random.Random(29)
    for T, lv in _kernel_towers():
        def rand(length):
            f = [T.random_element(rng.randint(0, lv), rng) for _ in range(length - 1)]
            return f + [T.random_element(lv, rng) or T.one]
        for trial in range(30):
            g = rand(rng.randint(1, 4))
            if trial % 2:
                g = T.poly_monic(g)
            f = rand(len(g) + rng.randint(0, 7))
            q, r = T.poly_divmod(f, g)
            assert len(r) < len(g)
            assert _school_add(T, _school_mul(T, q, g), r) == f
            assert (q, r) == _school_divmod(T, f, g)
        if T.p == 8191:
            # q and r are known by construction.  Each quotient coefficient
            # is 1 + u and each lower coefficient of g the largest element,
            # so a step adds about a quarter of the worst-case product to a
            # slot, and a remainder slot unreduced for all L steps overflows.
            L = 4 * T._flat(lv).max_pairs + 8
            g = [_largest(T, lv)] * L + [T.one]
            q = [T.from_fp_coords(lv, [1, 1])] * L
            r = [_largest(T, lv)] * L
            assert T.poly_divmod(T.poly_add(T.poly_mul(q, g), r), g) == (q, r)


# ---------------- star and parity ----------------

def test_star_examples():
    T = T5()
    t = StarPoly.t(T)
    assert t.star() == -t
    assert (t**2 + StarPoly.one(T)).star() == t**2 + StarPoly.one(T)
    assert (t**3 + t**2).star() == -(t**3) + t**2


def test_star_is_ring_automorphism():
    T = T5()
    rng = random.Random(1)
    for _ in range(400):
        a = rand_poly(T, rng, 6)
        b = rand_poly(T, rng, 6)
        assert (a * b).star() == a.star() * b.star()
        assert (a + b).star() == a.star() + b.star()
        assert a.star().star() == a


def test_parity_examples():
    T = T5()
    t = StarPoly.t(T)
    assert (3 * t**4 + t**2).parity() == EVEN
    assert (t**3 - 2 * t).parity() == ODD
    assert (t + StarPoly.one(T)).parity() == MIXED
    assert StarPoly.zero(T).parity() == ZERO


def test_parity_decomposition():
    T = T5()
    rng = random.Random(2)
    for _ in range(200):
        a = rand_poly(T, rng, 7)
        e, o = a.even_part(), a.odd_part()
        assert e + o == a
        assert e.is_even() and o.is_odd()
        assert e == (a + a.star()) * T.inv(T.elem(2))


# ---------------- gcd / bezout ----------------

def test_gcd_bezout_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    g, _, _ = gcd_bezout(t**2 - one, t - one)
    assert g == t - one
    g, u, v = gcd_bezout(t, t + one)
    assert g.is_one()
    assert u == StarPoly.const(T, -1) and v == one
    with pytest.raises(ValueError):
        gcd_bezout(StarPoly.zero(T), StarPoly.zero(T))


def test_gcd_bezout_random_reexpansion():
    T = T5()
    rng = random.Random(3)
    for _ in range(300):
        a = rand_poly(T, rng, 6)
        b = rand_poly(T, rng, 6)
        if a.is_zero() and b.is_zero():
            continue
        g, u, v = gcd_bezout(a, b)
        assert a * u + b * v == g
        assert g.is_zero() or g.lc().is_one()
        if not g.is_zero():
            assert g.divides(a) and g.divides(b)


# ---------------- purity ----------------

def test_is_pure_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    assert is_pure(t - one)
    assert not is_pure(t)
    assert not is_pure(t**2 - one)
    with pytest.raises(ValueError):
        is_pure(StarPoly.zero(T))


def test_pure_split_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    a = t**3 - t
    a0, a1 = pure_split(a)
    assert a0 == (t**3 - t) and a1.is_constant()
    a = t**2 - t
    a0, a1 = pure_split(a)
    assert a0 == t and a1 == t - one
    a = t - one
    a0, a1 = pure_split(a)
    assert a0.is_one() and a1 == a


def test_pure_split_random():
    T = T5()
    rng = random.Random(4)
    for _ in range(200):
        a = rand_poly(T, rng, 6, nonzero=True)
        a0, a1 = pure_split(a)
        assert a0 * a1 == a
        assert a0.star() in (a0, -a0)
        assert is_pure(a1)


# ---------------- norm machinery ----------------

def test_norm_factor_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    for y in (one - t**2, -(t**2), t**2 - one):
        z = norm_factor(y)
        assert z * z.star() == y
        assert 2 * z.degree() == y.degree()
    with pytest.raises(ValueError):
        norm_factor(t)
    with pytest.raises(ValueError):
        norm_factor(StarPoly.zero(T))


def test_norm_factor_random():
    rng = random.Random(5)
    for trial in range(60):
        T = Tower(rng.choice([3, 5]))
        z0 = rand_poly(T, rng, 4, nonzero=True)
        y = z0 * z0.star()
        z = norm_factor(y)
        assert z * z.star() == y


def test_norm_factor_avoiding_example():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    y = one - t**2
    a1 = t - one
    z = norm_factor_avoiding(y, a1)
    assert z * z.star() == y
    assert is_pure(a1 * z)
    # a1 = 1 accepts any norm factor
    z = norm_factor_avoiding(y, one)
    assert z * z.star() == y and is_pure(z)
    with pytest.raises(ValueError):
        norm_factor_avoiding(t**2, one)  # y(0) = 0


def test_norm_factor_avoiding_random():
    rng = random.Random(6)
    done = 0
    while done < 50:
        T = Tower(5)
        z0 = rand_poly(T, rng, 3, nonzero=True)
        y = z0 * z0.star()
        if y.eval(T.zero).is_zero():
            continue
        a1 = rand_poly(T, rng, 3, nonzero=True)
        if not is_pure(a1):
            continue
        z = norm_factor_avoiding(y, a1)
        assert z * z.star() == y
        assert is_pure(a1 * z)
        done += 1


def test_canonical_pure_factor():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    h = t**2 - one
    p = canonical_pure_factor(h)
    assert p * p.star() == h and is_pure(p)
    # deterministic: repeated calls agree
    assert canonical_pure_factor(h) == p
    with pytest.raises(ValueError):
        canonical_pure_factor(t**2)


def _self_star_irreducible(T, d, level, rng):
    """A monic irreducible h(t) = r(t^2) of degree d with h(0) != 0 whose
    coefficients lie at ``level`` and no lower, drawn with rng."""
    while True:
        h = [T.random_element(level, rng) if k % 2 == 0 else T.zero
             for k in range(d)] + [T.one]
        if not h[0].is_zero() and max(c.level for c in h) == level \
                and T.factor_monic(h) == [(h, 1)]:
            return StarPoly(T, h)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
@pytest.mark.parametrize("p, base", [(3, 0), (5, 0), (7, 0), (3, 1), (5, 1)])
def test_half_split_grows_quadratic_levels(p, base, d):
    """A self-star irreducible h of degree d splits into star pairs over the
    v_2(d) quadratic levels above its coefficients: the half split grows
    those the tower lacks and no others, and w is pure with w w* = h up to
    a constant.  The levels are the fixed ones of p."""
    v = (d & -d).bit_length() - 1
    for already in range(min(v, 1) + 1):
        T = Tower(p)
        for _ in range(base):
            T.grow()
        h = _self_star_irreducible(T, d, base, random.Random(f"{p}/{base}/{d}"))
        for _ in range(already):
            T.grow()
        for missing in (v - already, 0):  # then every level is in place
            top = T.num_levels()
            w = _half_split(h)
            assert T.num_levels() == top + missing
            assert is_pure(w)
            assert (w * w.star()).exact_div(h).degree() == 0
            fixed = Tower(p)
            for _ in range(T.num_levels()):
                fixed.grow()
            assert T.describe_levels() == fixed.describe_levels()


@pytest.mark.parametrize("p, h, w, levels", [
    (5, "t^2+2", "t+(2*u1)", ["u1: u1^2+3 = 0"]),
    (3, "t^2+1", "t+(u1)", ["u1: u1^2+1 = 0"]),
    (5, "t^2+1", "t+2", []),
])
def test_half_split_of_degree_two_is_closed_form(p, h, w, levels):
    """t^2 + c splits as t -/+ sqrt(-c), the member with the smaller key,
    with no random draw: the tower's random state is left as it was."""
    T = Tower(p)
    state = T.rng.getstate()
    assert format_poly(_half_split(parse_poly(h, T))) == w
    assert T.describe_levels() == levels
    assert T.rng.getstate() == state


def test_solve_norm_equation_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    x = solve_norm_equation(one, StarPoly.const(T, 4), "+")
    assert x == StarPoly.const(T, 2)
    a = t - one
    x = solve_norm_equation(a, StarPoly.const(T, 2), "+")
    assert x == StarPoly.const(T, -1)
    assert a * x + a.star() * x.star() == StarPoly.const(T, 2)
    x = solve_norm_equation(a, 2 * t, "-")
    assert x == one
    assert a * x - a.star() * x.star() == 2 * t


def test_solve_norm_equation_random():
    T = T5()
    rng = random.Random(7)
    done = 0
    while done < 200:
        a = rand_poly(T, rng, 4, nonzero=True)
        if not is_pure(a):
            continue
        b = rand_poly(T, rng, 6)
        be, bo = b.even_part(), b.odd_part()
        x = solve_norm_equation(a, be, "+")
        assert a * x + a.star() * x.star() == be
        x = solve_norm_equation(a, bo, "-")
        assert a * x - a.star() * x.star() == bo
        done += 1


def test_solve_norm_equation_errors():
    T = T5()
    t = StarPoly.t(T)
    with pytest.raises(ValueError):
        solve_norm_equation(t, StarPoly.one(T), "+")  # t not pure
    with pytest.raises(ValueError):
        solve_norm_equation(t - StarPoly.one(T), t, "+")  # parity mismatch


def test_coprime_even_bezout_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    x, y = coprime_even_bezout(t**2, t - one)
    assert (t**2) * x + (t - one) * y == one
    assert x.parity() in (EVEN, ZERO)
    x, y = coprime_even_bezout(one, t - one)
    assert one * x + (t - one) * y == one and x.parity() in (EVEN, ZERO)


def test_coprime_even_bezout_random():
    T = T5()
    rng = random.Random(8)
    done = 0
    while done < 150:
        a = rand_poly(T, rng, 5, nonzero=True)
        b = rand_poly(T, rng, 5, nonzero=True)
        if not is_pure(b) or not gcd(a, b).is_one():
            continue
        x, y = coprime_even_bezout(a, b)
        assert a * x + b * y == StarPoly.one(T)
        assert x.parity() in (EVEN, ZERO)
        done += 1


def test_even_bezout_stays_even():
    T = T5()
    rng = random.Random(9)
    done = 0
    while done < 100:
        a = rand_poly(T, rng, 3, nonzero=True)
        b = rand_poly(T, rng, 3, nonzero=True)
        ae, be = a * a.star(), b * b.star()
        g, x, y = even_bezout(ae, be)
        assert ae * x + be * y == g
        assert x.is_even() and y.is_even() and g.is_even()
        done += 1


# ---------------- evaluation ----------------

def test_eval_examples():
    T = T5()
    t = StarPoly.t(T)
    one = StarPoly.one(T)
    assert (t**2 + one).eval(2) == T.zero
    a = 3 * t**3 + t + StarPoly.const(T, 4)
    assert a.eval(T.zero) == T.elem(4)


def test_star_eval_relation():
    T = T5()
    rng = random.Random(10)
    for _ in range(300):
        a = rand_poly(T, rng, 6)
        lam = T.elem(rng.randrange(5))
        assert a.star().eval(lam) == a.eval(T.neg(lam))


# ---------------- text round trip ----------------

@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=9))
def test_format_parse_roundtrip(coeffs):
    T = Tower(5)
    a = StarPoly.from_ints(T, coeffs)
    assert parse_poly(format_poly(a), T) == a


def test_parse_extension_coefficients():
    T = Tower(5)
    u = T.sqrt(T.elem(2))
    a = StarPoly(T, (u, T.one)) * StarPoly.t(T)
    assert parse_poly(format_poly(a), T) == a


def _tower_with_sqrt2():
    T = Tower(5)
    T.sqrt(T.elem(2))   # 2 is not a square mod 5: u1 = sqrt(2)
    return T


def _entry_cases():
    """(tower, text, the same polynomial built by StarPoly arithmetic)."""
    T = Tower(5)
    t, one = StarPoly.t(T), StarPoly.one(T)
    c = lambda n: StarPoly.const(T, n)
    cases = [(T, "(t+1)^3", (t + one) * (t + one) * (t + one)),
             (T, "-(t-1)^2", -((t - one) * (t - one))),
             (T, "t^0", one),
             (T, "2*t*t^3", c(2) * t * t * t * t),
             (T, "3^3*t", c(27) * t),
             (T, "((t))^2", t * t),
             (T, "7*t^2-12", c(7) * t * t - c(12))]
    U = _tower_with_sqrt2()
    tu, u = StarPoly.t(U), StarPoly.const(U, U.generator(1))
    cases += [(U, "u1^2*t+u1", u * u * tu + u),
              (U, "(u1+t)^2", (u + tu) * (u + tu))]
    return [pytest.param(*case, id=case[1]) for case in cases]


@pytest.mark.parametrize("T, text, expected", _entry_cases())
def test_parse_grammar_matches_arithmetic(T, text, expected):
    assert parse_poly(text, T) == expected


def test_parse_term_costs_one_product_per_star(monkeypatch):
    """t^k is built as a shift, not by powering t: a term c*t^k costs one
    product, so an entry makes at most one kernel product per '*'."""
    T = Tower(5)
    calls = []
    mul = Tower.poly_mul

    def counted(self, f, g):
        calls.append(1)
        return mul(self, f, g)

    monkeypatch.setattr(Tower, "poly_mul", counted)
    text = "4*t^37+3*t^20-t^5+2"
    a = parse_poly(text, T)
    assert len(calls) <= text.count("*") == 2
    assert a == StarPoly.from_ints(T, [2] + [0] * 4 + [4] + [0] * 14 + [3] + [0] * 16 + [4])


def test_parse_places_monomial_terms_without_the_kernel(monkeypatch):
    """A term c*t^k, c an integer, goes to index k of an int accumulator:
    a sum of such terms makes no kernel call, and a sum that mixes them
    with other terms has the value of the arithmetic."""
    T = Tower(5)
    calls = []
    for name in ("poly_mul", "_poly_add_sub", "poly_neg"):
        def counted(self, *args, _f=getattr(Tower, name), _n=name):
            calls.append(_n)
            return _f(self, *args)
        monkeypatch.setattr(Tower, name, counted)
    a = parse_poly("4*t^37+3*t^20-t^5*2*t+2-0*t^99+t*t^2*3", T)
    assert calls == []
    assert a == StarPoly.from_ints(T, [2, 0, 0, 3, 0, 0, 3] + [0] * 13 + [3]
                                   + [0] * 16 + [4])
    assert parse_poly("-t+t", T).is_zero() and calls == []
    t, one = StarPoly.t(T), StarPoly.one(T)
    c = lambda n: StarPoly.const(T, n)
    for text, want in (("t^2*(t+1)-5*t^3+t", t * t * (t + one) + t),
                       ("-(t+2)+3*t", c(2) * t - c(2)),
                       ("2*t^3*3*t-(1)", c(6) * t * t * t * t - one),
                       ("2^2*t-t", c(3) * t)):
        assert parse_poly(text, T) == want


@pytest.mark.parametrize("text, message", [
    ("2*", "unexpected character '' at 2 in '2*'"),
    ("t^", "expected integer at 2 in 't^'"),
    ("(t+1", "expected ')' at 4 in '(t+1'"),
    ("u", "expected integer at 1 in 'u'"),
    ("3t", "trailing input at 1 in '3t'"),
    ("t + 1 )", "trailing input at 3 in 't+1)'"),
])
def test_parse_error_names_the_offset(text, message):
    """A malformed entry raises a ValueError naming the offset of the first
    token the grammar cannot take, in the text without its whitespace."""
    with pytest.raises(ValueError) as err:
        parse_poly(text, T5())
    assert str(err.value) == message


def test_parse_rejects_garbage():
    T = _tower_with_sqrt2()
    for bad in ("t^", "2**t", "(t", "x+1", "", "2*", "t)", "u", "u3", "t^-1"):
        with pytest.raises(ValueError):
            parse_poly(bad, T)
