import os
import random
import resource
import subprocess
import sys

import pytest

from starform.starpoly import StarPoly, parse_poly
from starform.tower import Level, Tower

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_prime_field_arithmetic():
    T = Tower(5)
    assert T.elem(3) + T.elem(4) == T.elem(2)
    assert T.inv(T.elem(2)) == T.elem(3)
    assert T.elem(2) * T.inv(T.elem(2)) == T.one


def test_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        Tower(2)
    with pytest.raises(ValueError):
        Tower(9)


def test_extension_generator_square():
    T = Tower(3)
    u = T.sqrt(T.elem(2))  # x^2 - 2 irreducible over F_3
    assert T.num_levels() == 1
    assert u * u == T.elem(2)


def test_sqrt_examples():
    T = Tower(5)
    assert T.sqrt(T.zero) == T.zero
    r = T.sqrt(T.elem(4))
    assert r == T.elem(2)  # deterministic tie-break picks the smaller root
    T3 = Tower(3)
    r = T3.sqrt(T3.elem(2))
    assert r * r == T3.elem(2)
    assert T3.num_levels() == 1


def test_sqrt_random_roundtrip():
    T = Tower(5)
    rng = random.Random(11)
    T.sqrt(T.elem(2))  # seed one extension level
    for _ in range(300):
        lv = rng.randint(0, min(2, T.num_levels()))
        a = T.random_element(lv, rng)
        r = T.sqrt(a)
        assert r * r == a


def _check_prime_field_sqrt(T, a):
    """sqrt(a) for a nonzero residue a: r r = a, r is the smaller root by
    key, and the tower grows exactly when a is a non-square mod p and has
    no level yet, by the fixed level x^2 - n0, n0 the least non-square."""
    p = T.p
    x = T.elem(a)
    before = T.num_levels()
    r = T.sqrt(x)
    assert r * r == x
    assert r.key() <= T.neg(r).key()
    if pow(a, (p - 1) // 2, p) == 1:
        assert T.num_levels() == before and r.level == 0
    else:
        n0 = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        assert T.num_levels() == max(before, 1) and r.level == 1
        assert T.levels[0].minpoly == (T.elem(-n0), T.zero, T.one)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41])
def test_sqrt_every_residue(p):
    """Every nonzero residue mod p, each in a fresh tower.  17 and 41 are
    1 mod 8, so Tonelli-Shanks runs its loop there."""
    for a in range(1, p):
        _check_prime_field_sqrt(Tower(p), a)


def test_sqrt_sample_mod_65537():
    """65537 = 2^16 + 1: a Tonelli-Shanks loop of up to 16 steps.  One
    tower: the first non-square grows it, and later ones take their roots
    from that level."""
    T = Tower(65537)
    rng = random.Random(3)
    for a in [1, 2, 3, 65536] + [rng.randrange(1, 65537) for _ in range(200)]:
        _check_prime_field_sqrt(T, a)
    assert T.num_levels() == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sqrt_matches_find_roots(p):
    """Twin towers, one taking square roots with sqrt and the other with
    find_roots([-a, 0, 1])[0], give the same roots and the same levels,
    for arguments at every level, extension levels included."""
    T, twin = Tower(p), Tower(p)
    rng = random.Random(p)
    for _ in range(40):
        level = rng.randint(0, min(T.num_levels(), 3))
        coords = [rng.randrange(p) for _ in range(T.coord_size(level))]
        a, b = T.from_fp_coords(level, coords), twin.from_fp_coords(level, coords)
        r = T.sqrt(a)
        s = twin.find_roots([twin.neg(b), twin.zero, twin.one])[0]
        assert str(r) == str(s) and r * r == a
        assert T.describe_levels() == twin.describe_levels()
    assert T.num_levels() >= 3


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_fixed_levels(p):
    """Level k is x^2 - c_k with c_k a non-square at level k - 1 by
    Euler's criterion.  A tower grown by square roots of non-squares, at
    any level and in any order, has the levels of one grown by grow()."""
    fixed = Tower(p)
    for k in range(1, 4):
        fixed.grow()
        minpoly = fixed.levels[k - 1].minpoly
        assert minpoly[1:] == (fixed.zero, fixed.one)
        c = fixed.neg(minpoly[0])
        q = fixed.field_order(k - 1)
        assert c.level == k - 1 and fixed.pow(c, (q - 1) // 2) == fixed.elem(-1)
    rng = random.Random(p)
    for _ in range(3):
        T = Tower(p)
        while T.num_levels() < 3:
            a = T.random_element(rng.randint(0, T.num_levels()), rng)
            r = T.sqrt(a)
            assert r * r == a
            assert T.describe_levels() == fixed.describe_levels()[:T.num_levels()]


def test_find_roots_examples():
    T7 = Tower(7)
    roots = T7.find_roots([T7.elem(-1), T7.zero, T7.one])
    assert sorted(r.rep for r in roots) == [1, 6]

    T3 = Tower(3)
    roots = T3.find_roots([T3.one, T3.zero, T3.one])  # x^2 + 1
    assert len(roots) == 2 and T3.num_levels() == 1
    for r in roots:
        assert r * r == T3.elem(-1)

    T5 = Tower(5)
    roots = T5.find_roots([T5.elem(4), T5.elem(-4), T5.one])  # (x - 2)^2
    assert [r.rep for r in roots] == [2, 2]


def test_find_roots_zero_polynomial_rejected():
    T = Tower(5)
    with pytest.raises(ValueError):
        T.find_roots([T.zero])


def test_find_roots_reproduces_polynomial():
    rng = random.Random(23)
    for trial in range(25):
        T = Tower(rng.choice([3, 5]))
        deg = rng.randint(1, 6)
        coeffs = [T.elem(rng.randrange(T.p)) for _ in range(deg)]
        coeffs.append(T.elem(rng.randrange(1, T.p)))
        if any((len(h) - 1) & (len(h) - 2) for h, _ in T.factor_monic(coeffs)):
            with pytest.raises(ValueError):  # no roots in quadratic levels
                T.find_roots(list(coeffs))
            continue
        roots = T.find_roots(list(coeffs))
        assert len(roots) == deg
        # multiply the linear factors back together
        prod = [coeffs[-1]]
        for r in roots:
            prod = T.poly_mul(prod, [T.neg(r), T.one])
        assert prod == T.poly_trim(list(coeffs))


def test_find_roots_grows_fixed_levels():
    """A factor of degree 2^j over level b takes its roots from level
    b + j, grown as the fixed levels; a factor of another degree is a
    ValueError."""
    T = Tower(5)
    f = parse_poly("(t^2+2)^2*(t^4+2)*(t-1)", T)
    roots = T.find_roots(list(f.coeffs))
    assert len(roots) == 9 and roots == sorted(roots, key=lambda r: r.key())
    assert all(f.eval(r).is_zero() for r in roots)
    fixed = Tower(5)
    for _ in range(2):
        fixed.grow()
    assert T.describe_levels() == fixed.describe_levels()
    with pytest.raises(ValueError):
        T.find_roots(list(parse_poly("t^3+t+1", T).coeffs))


def test_minimal_polynomials_stay_irreducible():
    # no element at or below level k is a root of level k+1's minpoly
    for p in (3, 5, 7):
        T = Tower(p)
        for _ in range(3):
            T.grow()
        for k, level in enumerate(T.levels):
            for c in level.minpoly:
                assert c.level <= k
            roots_below = [x for x in _all_elements(T, k)
                           if StarPoly(T, level.minpoly).eval(x).is_zero()]
            assert not roots_below


def _all_elements(T, level):
    n = T.coord_size(level)
    if T.p ** n > 3000:
        return []
    out = []
    for idx in range(T.p ** n):
        coords = []
        m = idx
        for _ in range(n):
            coords.append(m % T.p)
            m //= T.p
        out.append(T.from_fp_coords(level, coords))
    return out


def test_enumerate_scalars_prefix():
    T = Tower(3)
    stream = T.enumerate_scalars()
    first = [next(stream) for _ in range(4)]
    assert [str(x) for x in first[:3]] == ["0", "1", "2"]
    assert first[3].level == 1


def test_enumerate_scalars_deterministic_restart():
    T = Tower(3)
    a = [next(iter_) for iter_ in [T.enumerate_scalars()] for _ in range(12)]
    b = []
    stream = T.enumerate_scalars()
    for _ in range(12):
        b.append(next(stream))
    assert a == b


def test_enumerate_escapes_bad_sets():
    rng = random.Random(5)
    T = Tower(3)
    for trial in range(10):
        bad = set()
        stream = T.enumerate_scalars()
        pool = [next(stream) for _ in range(15)]
        bad = set(rng.sample(range(15), rng.randint(1, 10)))
        bad_elems = {pool[i] for i in bad}
        stream = T.enumerate_scalars()
        for step in range(16):
            x = next(stream)
            if x not in bad_elems:
                break
        assert x not in bad_elems


def test_field_axioms_mixed_levels():
    T = Tower(3)
    T.sqrt(T.elem(2))
    T.find_roots([T.one, T.one, T.zero, T.one])
    rng = random.Random(7)
    levels = list(range(T.num_levels() + 1))
    for _ in range(500):
        x = T.random_element(rng.choice(levels), rng)
        y = T.random_element(rng.choice(levels), rng)
        z = T.random_element(rng.choice(levels), rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + T.neg(x) == T.zero
        if not x.is_zero():
            assert x * T.inv(x) == T.one


def _tower_with_level_x2_plus_1(p):
    """Tower(p) with the level x^2 + 1 (p = 3 mod 4, so -1 is a non-square),
    which the library never builds: u^2 = p - 1 keeps the products of large
    coordinates large."""
    T = Tower(p)
    T.levels.append(Level("u1", T.elem(-1)))
    return T


def _quadratic_tower(p, levels):
    T = Tower(p)
    for _ in range(levels):
        T.grow()
    return T


def _school_mul(T, x, y, level):
    """x y at ``level``, computed on F_p coordinate lists without the flat
    tables: (x0 + x1 u)(y0 + y1 u) = (x0 y0 + c x1 y1) + (x0 y1 + x1 y0) u
    with u^2 = c, recursively down to F_p."""
    p = T.p

    def add(a, b):
        return [(s + t) % p for s, t in zip(a, b)]

    def mul(a, b, k):
        if k == 0:
            return [a[0] * b[0] % p]
        h = len(a) // 2
        c = list(T.fp_coords(T.levels[k - 1].c, k - 1))
        low = add(mul(a[:h], b[:h], k - 1),
                  mul(c, mul(a[h:], b[h:], k - 1), k - 1))
        return low + add(mul(a[:h], b[h:], k - 1), mul(a[h:], b[:h], k - 1))

    return T.from_fp_coords(level, mul(list(T.fp_coords(x, level)),
                                       list(T.fp_coords(y, level)), level))


def test_flat_level_matches_slow_arithmetic():
    # small levels F_9, F_25, F_49 and F_81 (two quadratic levels), the
    # three-level F_{5^8} and F_{4099^4} (p = 3 mod 4, so c_2 is not u_1),
    # then F_{8191^2}, where packed flat products once overflowed a fixed
    # 24-bit slot and came out wrong
    towers = [_quadratic_tower(3, 1), _quadratic_tower(5, 1),
              _quadratic_tower(7, 1), _quadratic_tower(3, 2),
              _quadratic_tower(5, 3), _quadratic_tower(4099, 2),
              _tower_with_level_x2_plus_1(8191)]
    for T in towers:
        lv = T.num_levels()
        q = T.field_order(lv)
        rng = random.Random(3)
        es = [T.random_element(lv, rng) for _ in range(5)] + [T.zero, T.one]
        for x in es:
            assert T.add(x, T.neg(x)) == T.zero
            if not x.is_zero():
                assert T.pow(x, q - 1) == T.one
            for y in es:
                assert T.mul(x, y) == _school_mul(T, x, y, lv)
                if not y.is_zero():
                    assert T.mul(T.inv(y), y) == T.one


def test_extension_inverse_is_memoized():
    """An extension-level inverse is taken once per value and kept by the
    tower; each kept value is still an inverse, and an element rebuilt from
    the same coordinates is equal, hashes equal and takes the kept one."""
    for T in (_quadratic_tower(3, 2), _tower_with_level_x2_plus_1(8191)):
        lv = T.num_levels()
        rng = random.Random(5)
        calls = []
        solve = T._inv_norm
        T._inv_norm = lambda a: calls.append(a) or solve(a)
        for _ in range(20):
            a = T.random_element(lv, rng)
            if a.level == 0:
                continue
            inv = T.inv(a)
            assert _school_mul(T, a, inv, lv) == T.one
            again = T.from_fp_coords(lv, T.fp_coords(a, lv))
            assert again == a and hash(again) == hash(a)
            assert T.inv(again) == inv
        assert len(calls) == len(set(calls)) > 0


def test_rep_is_the_pair_one_level_down():
    """``rep`` of an element at level k >= 1 is (a0, a1) below level k, with
    a1 nonzero and a0 + a1 u_k the element."""
    for T in (_quadratic_tower(3, 3), _quadratic_tower(5, 3)):
        rng = random.Random(9)
        for lv in (1, 2, 3):
            u = T.generator(lv)
            for _ in range(10):
                a = T.random_element(lv, rng)
                if a.level != lv:
                    continue
                a0, a1 = a.rep
                assert a0.level < lv and a1.level < lv and not a1.is_zero()
                assert a0 + a1 * u == a


def test_key_order_is_level_then_coordinate_tuples():
    """Within a level, ``key()`` orders elements by their coordinate tuples,
    lowest coordinate first: 1 + 2 u1 comes before 2 + u1, though its
    coordinates read as base-p digits, top first, are the larger number."""
    T = _quadratic_tower(5, 2)
    assert T.from_fp_coords(1, [1, 2]).key() < T.from_fp_coords(1, [2, 1]).key()
    rng = random.Random(11)
    xs = [T.random_element(lv, rng) for lv in (0, 1, 2) for _ in range(20)]
    ordered = sorted(xs, key=lambda e: e.key())
    assert [(e.level, T.fp_coords(e)) for e in ordered] == sorted(
        (e.level, T.fp_coords(e)) for e in xs)


def test_built_elements_are_not_kept():
    # 300,000 distinct level-2 products, built and dropped: nothing keeps
    # them, so a 128 MiB address-space limit holds.  Interning them in a
    # per-level cache once took 284 MB.
    code = ("from starform.tower import Tower\n"
            "T = Tower(101)\n"
            "T.grow(); T.grow()\n"
            "x = T.generator(2)\n"
            "for i in range(300_000):\n"
            "    a = T.from_fp_coords(2, [i % 101, i // 101 % 101, i // 10201, 1])\n"
            "    T.mul(a, x)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27)))
    assert proc.returncode == 0, proc.stderr


def test_large_prime_builds_no_product_table():
    # Tower(65537) once built a p x p product table and ran out of memory; a
    # 1 GiB address-space limit on the child makes a regression fail here.
    # Its packed slots still hold hundreds of products.
    code = ("from starform.tower import Tower\n"
            "T = Tower(65537)\n"
            "x = T.grow() + T.elem(65000)\n"
            "assert T._flat(1).max_pairs >= 255\n"
            "c = T.levels[0].c.rep\n"
            "assert T.mul(x, x) == T.from_fp_coords(1, [c + 65000**2, 130000])\n"
            "assert T.mul(x, T.inv(x)) == T.one\n")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 0, proc.stderr


def test_embedding_stability_across_growth():
    T = Tower(3)
    a = T.sqrt(T.elem(2))
    b = a + T.one
    before = (a * b, a + b, T.inv(b))
    # unrelated growth
    T.grow()
    T.sqrt(T.generator(2))
    after = (a * b, a + b, T.inv(b))
    assert before == after


def test_element_order_is_total_and_level_major():
    T = Tower(3)
    u = T.sqrt(T.elem(2))
    xs = [T.zero, T.one, T.elem(2), u, u + 1]
    ordered = sorted(xs, key=lambda e: e.key())
    assert ordered[:3] == [T.zero, T.one, T.elem(2)]
    assert all(e.level == 1 for e in ordered[3:])


def test_text_form():
    T = Tower(5)
    assert str(T.elem(3)) == "3"
    u = T.sqrt(T.elem(2))
    s = str(u)
    assert "u1" in s
    assert T.describe_levels()
