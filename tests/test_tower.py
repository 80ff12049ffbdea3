import os
import random
import resource
import subprocess
import sys

import pytest

from starform.starpoly import parse_poly
from starform.tower import Tower

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
    key, and the tower grows exactly when a is a non-square mod p, by the
    level x^2 - a, unless a level of even degree already holds the root."""
    p = T.p
    x = T.elem(a)
    before = T.num_levels()
    r = T.sqrt(x)
    assert r * r == x
    assert r.key() <= T.neg(r).key()
    if pow(a, (p - 1) // 2, p) == 1:
        assert T.num_levels() == before and r.level == 0
    elif before == 0:
        assert T.num_levels() == 1 and T.levels[0].minpoly == (T.neg(x), T.zero, T.one)
        assert r == T.generator(1)
    else:
        assert T.num_levels() == before and r.level == 1


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
        roots = T.find_roots(list(coeffs))
        assert len(roots) == deg
        # multiply the linear factors back together
        prod = [coeffs[-1]]
        for r in roots:
            prod = T.poly_mul(prod, [T.neg(r), T.one])
        assert prod == T.poly_trim(list(coeffs))


@pytest.mark.parametrize("p, text, levels, roots", [
    # three factors that each grow the tower, one of them repeated: the
    # tower grows in factor order, for the quadratic, the cubic and then
    # the quartic, whose roots are square roots of those of the quadratic
    (5, "(t^2+2)^2*(t^3+t+1)*(t^4+2)",
     ["u1: u1^2+2 = 0", "u2: u2^3+u2+1 = 0", "u3: u3^2+u1 = 0"],
     ["u1", "u1", "4*u1", "4*u1", "u2", "4*u2^2+u2+1", "u2^2+3*u2+4", "u3",
      "2*u3", "3*u3", "4*u3"]),
    # a multiplicity divisible by p changes nothing: the quadratic still
    # comes first; over F_{3^6} the quartic splits into two quadratics, and
    # the level that adjoins a root of one holds the roots of both
    (3, "(t^2+1)^3*(t^3+2*t+1)*(t^4+t+2)",
     ["u1: u1^2+1 = 0", "u2: u2^3+2*u2+1 = 0", "u3: u3^2+(2*u1)*u3+u1+1 = 0"],
     ["u1", "u1", "u1", "2*u1", "2*u1", "2*u1", "u2", "u2+1", "u2+2", "u3",
      "2*u3+u1", "(2*u1+1)*u3+2*u1+1", "(u1+2)*u3+2"]),
])
def test_find_roots_growth_order(p, text, levels, roots):
    """find_roots grows the tower for the factors in factor_monic order,
    and that order names the levels; a public method gives the same tower
    from the same calls, so these are pinned."""
    T = Tower(p)
    f = parse_poly(text, T)
    assert [str(r) for r in T.find_roots(list(f.coeffs))] == roots
    assert T.describe_levels() == levels


def test_minimal_polynomials_stay_irreducible():
    # re-factor every level's minimal polynomial over the field below it
    T = Tower(3)
    T.find_roots([T.one, T.elem(2), T.zero, T.one])
    T.sqrt(T.generator(1) + 1) if T.num_levels() else None
    for k, level in enumerate(T.levels):
        for c in level.minpoly:
            assert c.level <= k
        # a root of the minpoly cannot exist at or below level k
        roots_below = [x for x in _all_elements(T, k)
                       if T._peval(list(level.minpoly), x).is_zero()]
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


def _tower_with_binomial_level(p, d):
    """Tower(p) grown by t^d - c, c the largest residue that is not a d-th
    power (d prime, p = 1 mod d), so basis products have large coordinates."""
    T = Tower(p)
    c = next(c for c in range(p - 1, 1, -1) if pow(c, (p - 1) // d, p) != 1)
    T.grow([T.elem(-c)] + [T.zero] * (d - 1) + [T.one])
    return T


def _quadratic_tower(p, levels):
    T = Tower(p)
    for _ in range(levels):
        T.grow_quadratic()
    return T


def test_flat_level_matches_slow_arithmetic():
    # small levels F_9, F_25, F_49 and F_81 (two quadratic levels), the
    # three-level F_{5^8}, then primes whose packed flat products once
    # overflowed a fixed 24-bit slot and came out wrong
    towers = [_quadratic_tower(3, 1), _quadratic_tower(5, 1),
              _quadratic_tower(7, 1), _quadratic_tower(3, 2),
              _quadratic_tower(5, 3), _tower_with_binomial_level(4099, 3),
              _tower_with_binomial_level(8191, 2)]
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
                assert T.mul(x, y) == T._mul_slow(x, y)
                if not y.is_zero():
                    assert T.mul(T.inv(y), y) == T.one
                    assert T.inv(y) == T._inv_euclid(y) if y.level == lv else True


def test_extension_inverse_is_memoized():
    """An extension-level inverse is solved once per element and kept on it;
    the kept value is still the Euclidean inverse, and canonical elements
    built again from the same coordinates share it."""
    for T in (_quadratic_tower(3, 2), _tower_with_binomial_level(8191, 2)):
        lv = T.num_levels()
        rng = random.Random(5)
        calls = []
        solve = T._inv_flat
        T._inv_flat = lambda a, level: calls.append(a) or solve(a, level)
        for _ in range(20):
            a = T.random_element(lv, rng)
            if a.level == 0:
                continue
            inv = T.inv(a)
            assert a._inv is inv and T.inv(a) is inv
            assert inv == T._inv_euclid(a) and T.mul(a, inv) == T.one
            again = T.from_fp_coords(lv, T.fp_coords(a, lv))
            assert again is a and T.inv(again) is inv
        assert len(calls) == len(set(map(id, calls))) > 0


def test_large_prime_builds_no_product_table():
    # Tower(65537) once built a p x p product table and ran out of memory; a
    # 1 GiB address-space limit on the child makes a regression fail here.
    # Its packed slots still hold hundreds of products.
    code = ("from starform.tower import Tower\n"
            "T = Tower(65537)\n"
            "x = T.grow_quadratic() + T.elem(65000)\n"
            "assert T._flat(1).max_pairs >= 255\n"
            "assert T.mul(x, x) == T._mul_slow(x, x)\n"
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
    T.grow_quadratic()
    T.find_roots([T.one, T.zero, T.zero, T.one, T.one])
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
