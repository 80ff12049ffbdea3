import itertools
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from starform.tower import Tower
from starform.starpoly import (StarPoly, canonical_pure_factor, gcd, is_pure,
                               parse_poly)
from starform.polymat import (HERMITIAN, SKEW, PolyMatrix, determinant,
                              form_kind, form_value, gcd_of_matrix,
                              invariant_factors, smith_form)
from starform import congruence
from starform.canonical import canonicalize
from starform.congruence import (ReductionError, block_swap, compress_form,
                                 her2_diagonalize, isotropic_vector,
                                 represent_one, sk2_zero_diagonal, sk_split,
                                 split_one)
from starform.randgen import RandomSpec, generate


def M(rows, T):
    return PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in rows])


def rand_poly(T, rng, maxdeg):
    deg = rng.randint(-1, maxdeg)
    if deg < 0:
        return StarPoly.zero(T)
    coeffs = [rng.randrange(T.p) for _ in range(deg)]
    coeffs.append(rng.randrange(1, T.p))
    return StarPoly.from_ints(T, coeffs)


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


# ---------------- degree reduction ----------------

def _nonsingular_forms():
    T = Tower(5)
    # shifts of mixed sign: the leading matrix is nonsingular at once
    yield M([["0", "1"], ["1", "t^10"]], T)
    yield M([["0", "1"], ["-1", "t^9"]], T)
    for seed in range(20):
        for n in range(2, 6):
            for eps in (HERMITIAN, SKEW):
                inst = generate(RandomSpec(seed=seed, p=5, n=n, eps=eps,
                                           max_degree=6, moves=25))
                if not determinant(inst.A).is_zero():
                    yield inst.A


def test_compress_form_reaches_the_determinant_degree():
    """Every entry of the reduced form has degree at most deg det, the
    bound that the canonical block sum meets."""
    count = 0
    for A in _nonsingular_forms():
        cert = compress_form(A)
        cert.check(A)
        d = determinant(cert.B).degree()
        assert all(e.degree() <= d for row in cert.B.entries for e in row), (A, cert.B)
        count += 1
    assert count >= 50


# ---------------- isotropic vectors ----------------

def test_isotropic_zero_diagonal_shortcut():
    T = Tower(5)
    A = M([["0", "t"], ["-t", "t^3"]], T)
    v = isotropic_vector(A, SKEW)
    assert v[0].is_one() and v[1].is_zero()


def test_isotropic_spec_vectors():
    T = Tower(5)
    A = M([["1", "t"], ["-t", "1"]], T)
    v = isotropic_vector(A, HERMITIAN)
    assert form_value(A, v, v).is_zero()
    A = M([["t", "1"], ["-1", "t"]], T)
    v = isotropic_vector(A, SKEW)
    assert form_value(A, v, v).is_zero()
    # primitive output
    from starform.polymat import vector_gcd
    assert vector_gcd(v).is_one()


def test_isotropic_constant_scan_is_capped_at_a_large_prime():
    """Over p = 1000003 no constant mix of [[t^2, 1], [1, t^2]] is isotropic
    (-1 is not a square), and the scan for one stops at _SCAN_CAP scalars:
    scanning all p of them took about 17 s."""
    T = Tower(1000003)
    A = M([["t^2", "1"], ["1", "t^2"]], T)

    def over_budget(signum, frame):
        raise TimeoutError("isotropic_vector ran past its 5 s budget")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(5)
    try:
        v = isotropic_vector(A, HERMITIAN)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert form_value(A, v, v).is_zero()
    assert any(not e.is_zero() for e in v)


def test_lambda_scan_stops_at_its_cap(monkeypatch):
    """The shared lambda scan yields the scalar stream up to _SCAN_CAP
    scalars and raises on the next, growing the tower only as the stream
    does."""
    monkeypatch.setattr(congruence, "_SCAN_CAP", 7)
    T = Tower(3)
    scan = congruence._scan(T, "scan ran out")
    assert [int(str(next(scan))) for _ in range(3)] == [0, 1, 2]
    assert all(e.level == 1 for e in itertools.islice(scan, 4))
    with pytest.raises(ReductionError, match="scan ran out"):
        next(scan)
    assert T.num_levels() == 1


def test_isotropic_1x1_error():
    T = Tower(5)
    with pytest.raises(ValueError):
        isotropic_vector(M([["t"]], T), SKEW)


def _all_f3_polys(T, maxdeg):
    out = []
    for deg in range(maxdeg + 1):
        for coeffs in itertools.product(range(3), repeat=deg + 1):
            if deg > 0 and coeffs[-1] == 0:
                continue
            out.append(StarPoly.from_ints(T, list(coeffs)))
    return out


def test_isotropic_brute_force_cross_check():
    # small version of the acceptance oracle: p = 3, 2x2 forms, degree <= 2
    T = Tower(3)
    rng = random.Random(1)
    vec_pool = _all_f3_polys(T, 2)
    count = 0
    for _ in range(60):
        eps = rng.choice([HERMITIAN, SKEW])
        A = rand_eps_form(T, rng, 2, eps, 2)
        if A.is_zero():
            continue
        v = isotropic_vector(A, eps)
        assert form_value(A, v, v).is_zero()
        assert any(not x.is_zero() for x in v)
        count += 1
        # brute force over prime-field vectors; if it finds one, fine, and
        # every vector it reports must really be isotropic
        for v1, v2 in itertools.product(vec_pool[:20], vec_pool[:20]):
            if v1.is_zero() and v2.is_zero():
                continue
            if form_value(A, [v1, v2], [v1, v2]).is_zero():
                break
    assert count >= 40


# ---------------- hermitian 2x2 ----------------

def test_her2_spec_examples():
    T = Tower(5)
    A = M([["0", "1"], ["1", "0"]], T)
    cert = her2_diagonalize(A)
    assert cert.B == M([["1", "0"], ["0", "-1"]], T)
    assert cert.verify(A)

    A = M([["0", "t-1"], ["-t-1", "t^2"]], T)
    cert = her2_diagonalize(A)
    assert cert.B == M([["1", "0"], ["0", "t^2-1"]], T)
    assert cert.verify(A)

    A = M([["1", "0"], ["0", "3"]], T)
    cert = her2_diagonalize(A)
    assert cert.B == M([["1", "0"], ["0", "3"]], T)
    assert cert.verify(A)


def test_her2_preconditions():
    T = Tower(5)
    with pytest.raises(ValueError):
        her2_diagonalize(M([["0", "t"], ["t", "0"]], T))  # skew, wrong kind
    with pytest.raises(ValueError):
        her2_diagonalize(M([["t^2", "0"], ["0", "t^2"]], T))  # gcd != 1
    with pytest.raises(ValueError):
        her2_diagonalize(M([["1", "1"], ["1", "1"]], T))  # det = 0


def test_her2_random():
    rng = random.Random(2)
    done = 0
    while done < 60:
        T = Tower(5)
        A = rand_eps_form(T, rng, 2, HERMITIAN, 5)
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        if not d.is_one() or determinant(A).is_zero():
            continue
        cert = her2_diagonalize(A)
        assert cert.verify(A)
        assert cert.B == PolyMatrix.diagonal(
            T, [StarPoly.one(T), determinant(A)])
        done += 1


# ---------------- skew 2x2 ----------------

def test_sk2_spec_examples():
    T = Tower(5)
    A = M([["0", "1"], ["-1", "t"]], T)
    cert = sk2_zero_diagonal(A)
    assert cert.B == M([["0", "1"], ["-1", "0"]], T)
    assert cert.verify(A)

    A = M([["0", "t-1"], ["t+1", "0"]], T)
    cert = sk2_zero_diagonal(A)
    assert cert.B == A and cert.S == PolyMatrix.identity(T, 2)


def test_sk2_random():
    rng = random.Random(3)
    done = 0
    while done < 60:
        T = Tower(5)
        A = rand_eps_form(T, rng, 2, SKEW, 6)
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        if not d.is_one() or determinant(A).is_zero():
            continue
        cert = sk2_zero_diagonal(A)
        assert cert.verify(A)
        assert cert.B.entries[0][0].is_zero()
        assert cert.B.entries[1][1].is_zero()
        f = cert.B.entries[0][1]
        assert is_pure(f)
        done += 1


# ---------------- representing one and splitting ----------------

def test_represent_one_trivial():
    T = Tower(5)
    A = M([["1"]], T)
    v = represent_one(A)
    assert form_value(A, v, v).is_one()
    A = M([["4"]], T)
    v = represent_one(A)
    assert form_value(A, v, v).is_one()


def test_represent_one_hyperbolic():
    T = Tower(5)
    A = M([["0", "1"], ["1", "0"]], T)
    v = represent_one(A)
    assert form_value(A, v, v).is_one()


def test_represent_one_random_n3():
    rng = random.Random(4)
    done = 0
    while done < 25:
        T = Tower(rng.choice([3, 5]))
        A = rand_eps_form(T, rng, 3, HERMITIAN, 4)
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        if not d.is_one():
            continue
        v = represent_one(A)
        assert form_value(A, v, v).is_one()
        done += 1


def test_represent_one_singular_input():
    T = Tower(5)
    A = M([["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]], T)
    v = represent_one(A)
    assert form_value(A, v, v).is_one()


def test_split_one():
    T = Tower(5)
    A = M([["0", "1"], ["1", "0"]], T)
    v = represent_one(A)
    cert = split_one(A, v)
    assert cert.verify(A)
    assert cert.B.entries[0][0].is_one()
    assert cert.B.entries[0][1].is_zero() and cert.B.entries[1][0].is_zero()
    with pytest.raises(ValueError):
        split_one(A, [StarPoly.one(T), StarPoly.zero(T)])


# ---------------- skew split ----------------

def test_sk_split_n2_reduces_to_sk2():
    T = Tower(5)
    A = M([["0", "t-1"], ["t+1", "t^3"]], T)
    res = sk_split(A)
    assert res.cert.verify(A)
    assert res.D.rows == 0
    assert is_pure(res.f)
    f2 = smith_form(A).factors[1]
    assert res.f.degree() == f2.degree() // 2
    assert res.f == canonical_pure_factor(f2)


def test_sk_split_gcd_precondition():
    T = Tower(5)
    A = M([["0", "t"], ["t", "0"]], T).scale(StarPoly.t(T))
    with pytest.raises(ValueError):
        sk_split(A)


def test_sk_split_random_n4():
    rng = random.Random(5)
    done = 0
    while done < 15:
        T = Tower(rng.choice([3, 5]))
        A = rand_eps_form(T, rng, 4, SKEW, 3)
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        if not d.is_one() or determinant(A).is_zero():
            continue
        res = sk_split(A)
        assert res.cert.verify(A)
        assert is_pure(res.f)
        f2 = smith_form(A).factors[1]
        assert res.f.degree() == f2.degree() // 2
        assert res.f == canonical_pure_factor(f2)
        ffs = res.f * res.f.star()
        assert (f2 % ffs).is_zero() and f2.degree() == ffs.degree()
        for row in res.D.entries:
            for e in row:
                assert (e % ffs).is_zero()
        # invariant factors preserved by the split
        assert invariant_factors(res.cert.B) == invariant_factors(A)
        done += 1


def test_smith_pivot_names_a_window_with_no_direction(monkeypatch):
    """The skew window of scrambled (3, 5, +1) seed 10 has y = 0 in its
    first direction with f_d = f2.  With the later directions hidden, the
    pivot construction raises ReductionError and names the case."""
    inst = generate(RandomSpec(seed=10, p=3, n=5, eps=HERMITIAN,
                               max_degree=6, moves=6))
    windows = []
    build = congruence._smith_pivot
    monkeypatch.setattr(congruence, "_smith_pivot",
                        lambda B, p: windows.append((B, p)) or build(B, p))
    canonicalize(inst.A, HERMITIAN)
    B, p = windows[0]
    smith = congruence.smith_form

    def first_direction_only(A):
        sf = smith(A)
        sf.factors = sf.factors[:2] + (StarPoly.zero(A.tower),) * (A.rows - 2)
        return sf

    monkeypatch.setattr(congruence, "smith_form", first_direction_only)
    with pytest.raises(ReductionError, match="y = 0 in every direction of f2"):
        build(B, p)


# ---------------- block swap ----------------

def _skew_block(f):
    T = f.tower
    z = StarPoly.zero(T)
    return PolyMatrix(T, [[z, f], [-f.star(), z]])


def test_block_swap_identity():
    T = Tower(5)
    f = parse_poly("t-1", T)
    cert = block_swap(f, f)
    assert cert.verify(_skew_block(f))
    assert cert.B == _skew_block(f)


def test_block_swap_spec_example():
    T = Tower(5)
    f = parse_poly("t-1", T)
    fp = parse_poly("-t-1", T)
    cert = block_swap(f, fp)
    assert cert.verify(_skew_block(f))
    assert cert.B == _skew_block(fp)


def test_block_swap_norm_mismatch_rejected():
    T = Tower(5)
    with pytest.raises(ValueError):
        block_swap(parse_poly("t-1", T), parse_poly("t-2", T))


def test_block_swap_random():
    """Whole factors flip with their multiplicities, the irreducible
    quadratics as well as the linear factors, and the swap never grows the
    tower: it takes no roots."""
    rng = random.Random(6)
    T = Tower(5)
    # one factor from each pair {h, h*}: t -+ 1, t -+ 2 and two quadratics
    # irreducible over F_5 (discriminants 3 and 2 are non-squares)
    families = [parse_poly(h, T) for h in ("t-1", "t-2", "t^2+t+2", "t^2+2*t+3")]
    done = 0
    while done < 30:
        picked = [(h if rng.random() < 0.5 else h.star().monic(), rng.randint(1, 3))
                  for h in families if rng.random() < 0.6]
        if not picked:
            continue
        f = StarPoly.const(T, T.elem(rng.randrange(1, 5)))
        fp = StarPoly.const(T, T.elem(rng.randrange(1, 5)))
        for h, m in picked:
            f = f * h ** m
            fp = fp * (h.star() if rng.random() < 0.5 else h) ** m
        cert = block_swap(f, fp)
        assert cert.verify(_skew_block(f))
        assert cert.B == _skew_block(fp)
        assert is_pure(cert.B.entries[0][1])
        assert T.num_levels() == 0
        done += 1


_WRONG_NORM_FACTOR_UNDER_O = r"""
import sys
if __debug__:
    sys.exit("not running under python -O")
from starform import (PolyMatrix, ReductionError, StarPoly, Tower,
                      isotropic_vector, parse_poly)
from starform import congruence

good = congruence.norm_factor
congruence.norm_factor = lambda y: good(y) + StarPoly.one(y.tower)
T = Tower(3)
# no zero diagonal entry and no constant mix: the norm factor is needed
A = PolyMatrix(T, [[parse_poly(e, T) for e in row]
                   for row in [["1", "t"], ["-t", "1"]]])
try:
    isotropic_vector(A, 1)
except ReductionError as exc:
    print(exc)
else:
    sys.exit("isotropic_vector returned a vector that is not isotropic")
"""


def test_reduction_checks_survive_python_O():
    """The reductions' checks on their own results raise ReductionError, so
    they still run under python -O, where an assert would be skipped."""
    src = str(Path(__import__("starform").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_NORM_FACTOR_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["isotropic vector is not isotropic"]
