"""Acceptance suite: one test per criterion, run at the stated sizes with
exact (zero-tolerance) checks.  Each test prints a PASS line on success."""

import itertools
import random
import time

from starform.tower import Tower
from starform.starpoly import StarPoly, gcd, is_pure, norm_factor, parse_poly, \
    solve_norm_equation
from starform.polymat import (HERMITIAN, SKEW, PolyMatrix, Reduction,
                              determinant, form_kind, form_value,
                              gcd_of_matrix, invariant_factors, kernel_split,
                              smith_form)
from starform.congruence import her2_diagonalize, isotropic_vector, sk_split
from starform.canonical import (Block1, Block2, FactorSequence,
                                are_congruent, assemble_canonical,
                                canonicalize, validate_sequence)
from starform.randgen import RandomSpec, _random_unimodular, generate, \
    sample_factor_sequence


def _report(num, desc, detail=""):
    print(f"[PASS] criterion {num}: {desc} {detail}".rstrip())


# ---------------------------------------------------------------------------
# criterion 1: Prop 3.1 reproduction
# ---------------------------------------------------------------------------

def _random_hermitian_2x2(T, rng, maxdeg):
    while True:
        diag = []
        for _ in range(2):
            deg = rng.randint(0, maxdeg)
            diag.append(StarPoly.from_ints(
                T, [rng.randrange(T.p) if k % 2 == 0 else 0
                    for k in range(deg + 1)]))
        deg = rng.randint(-1, maxdeg)
        b = (StarPoly.zero(T) if deg < 0 else StarPoly.from_ints(
            T, [rng.randrange(T.p) for _ in range(deg)]
            + [rng.randrange(1, T.p)]))
        A = PolyMatrix(T, [[diag[0], b], [b.star(), diag[1]]])
        if A.is_zero():
            continue
        d, _ = gcd_of_matrix(A)
        if not d.is_one() or determinant(A).is_zero():
            continue
        return A


def test_criterion_1_her2_diagonalization():
    rng = random.Random(0xC1)
    t0 = time.time()
    for k in range(500):
        T = Tower(5)
        A = _random_hermitian_2x2(T, rng, 8)
        cert = her2_diagonalize(A)
        assert cert.verify(A), f"certificate failed at instance {k}"
        expected = PolyMatrix.diagonal(T, [StarPoly.one(T), determinant(A)])
        assert cert.B == expected, f"not diag(1, det A) at instance {k}"
    _report(1, "500 hermitian 2x2 -> exactly diag(1, det A), certs verify",
            f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criteria 2 and 3: Thm 4.3 shape and Prop 4.2 postconditions
# ---------------------------------------------------------------------------

_CORPUS = None


def _corpus():
    global _CORPUS
    if _CORPUS is None:
        insts = []
        for p in (3, 5):
            for n in (2, 3, 4, 5):
                for eps in (1, -1):
                    for k in range(100):
                        spec = RandomSpec(
                            seed=k * 7919 + n * 131 + p * 17 + (0 if eps == 1
                                                                else 1_000_003),
                            p=p, n=n, eps=eps, max_degree=6, moves=n + 3)
                        insts.append(generate(spec))
        _CORPUS = insts
    return _CORPUS


def test_criterion_2_canonicalize_shape():
    t0 = time.time()
    count = 0
    for inst in _corpus():
        eps = inst.spec.eps
        cert, cb = canonicalize(inst.A, eps)
        assert cert.verify(inst.A), f"cert failed: {inst.spec}"
        for b in cb.blocks:
            if isinstance(b, Block2):
                blk = b.matrix()
                assert blk.rows == 2
                assert blk.entries[0][0].is_zero()
                assert blk.entries[1][1].is_zero()
            else:
                assert isinstance(b, Block1)
        assert invariant_factors(cert.B) == invariant_factors(inst.C), \
            f"factors differ from ground truth: {inst.spec}"
        count += 1
    _report(2, f"{count} instances canonicalized: shapes, certs, factors",
            f"({time.time() - t0:.1f}s)")


def test_criterion_3_skew_split_postconditions():
    t0 = time.time()
    checked = 0
    for inst in _corpus():
        if inst.spec.eps != -1 or inst.A.is_zero():
            continue
        ks = kernel_split(inst.A)
        n = inst.A.rows
        k = 0
        while k < n and all(ks.B.entries[k][j].is_zero() for j in range(n)):
            k += 1
        core = ks.B.submatrix(range(k, n), range(k, n))
        if core.rows < 2:
            continue
        d, _ = gcd_of_matrix(core)
        A2 = core.exact_div(d)
        if form_kind(A2) != SKEW:
            continue  # odd gcd flipped the form; Prop 4.1 territory
        res = sk_split(A2)
        assert res.cert.verify(A2)
        assert is_pure(res.f)
        f2 = smith_form(A2).factors[1]
        assert res.f.degree() == f2.degree() // 2
        ffs = res.f * res.f.star()
        q, rem = divmod(f2, ffs)
        assert rem.is_zero() and q.degree() == 0
        for row in res.D.entries:
            for e in row:
                assert (e % ffs).is_zero()
        checked += 1
    assert checked >= 150, f"too few skew cores exercised: {checked}"
    _report(3, f"{checked} skew splits: f pure, deg f = deg(f2)/2, ff* | D",
            f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: Thm 4.5 decision
# ---------------------------------------------------------------------------

def _scramble(tower, C, n, moves, seed):
    red = Reduction(C)
    for op in _random_unimodular(tower, random.Random(seed), n, moves):
        if op[0] == "transvection":
            red.transvection(op[1], op[2], op[3])
        else:
            red.scale_col(op[1], op[2])
    return red.B


def test_criterion_4_congruence_decision():
    rng = random.Random(0xC4)
    t0 = time.time()
    # 200 congruent pairs: same canonical C, independent transforms
    for k in range(200):
        p = rng.choice([3, 5])
        n = rng.randint(2, 4)
        eps = rng.choice([1, -1])
        T = Tower(p)
        fs = sample_factor_sequence(T, rng, n, eps, 4)
        _, C = assemble_canonical(fs)
        A1 = _scramble(T, C, n, n + 2, k * 2 + 1)
        A2 = _scramble(T, C, n, n + 2, k * 2 + 2)
        same, cert = are_congruent(A1, A2, eps, want_certificate=True)
        assert same, f"congruent pair {k} misjudged"
        assert cert is not None and cert.verify(A1), f"pair {k} cert failed"
    # 200 pairs with distinct factor sequences
    count = 0
    while count < 200:
        p = rng.choice([3, 5])
        n = rng.randint(2, 4)
        eps = rng.choice([1, -1])
        T = Tower(p)
        fs1 = sample_factor_sequence(T, rng, n, eps, 4)
        fs2 = sample_factor_sequence(T, rng, n, eps, 4)
        if fs1.entries == fs2.entries:
            continue
        _, C1 = assemble_canonical(fs1)
        _, C2 = assemble_canonical(fs2)
        A1 = _scramble(T, C1, n, n + 2, count * 3 + 1)
        A2 = _scramble(T, C2, n, n + 2, count * 3 + 2)
        same, _ = are_congruent(A1, A2, eps)
        assert not same, f"non-congruent pair {count} misjudged"
        count += 1
    _report(4, "200 congruent pairs certified + 200 distinct pairs refused",
            f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: Thm 5.1 round trip over an exhaustive enumeration
# ---------------------------------------------------------------------------

def _monic_homogeneous_f3(T, max_degree):
    out = []
    for deg in range(0, max_degree + 1):
        frees = range(deg % 2, deg, 2)
        for combo in itertools.product(range(3), repeat=len(list(frees))):
            coeffs = [0] * (deg + 1)
            coeffs[deg] = 1
            for pos, c in zip(range(deg % 2, deg, 2), combo):
                coeffs[pos] = c
            out.append(StarPoly.from_ints(T, coeffs))
    return out


def test_criterion_5_factor_sequence_roundtrip():
    t0 = time.time()
    T = Tower(3)
    pool = _monic_homogeneous_f3(T, 4)
    zero = StarPoly.zero(T)
    total = valid_count = invalid_count = 0
    for eps in (HERMITIAN, SKEW):
        for n in (1, 2, 3):
            # enumerate all divisibility chains of length n with a zero tail
            def chains(prefix, remaining):
                if remaining == 0:
                    yield list(prefix)
                    return
                for f in pool:
                    if prefix and not prefix[-1].divides(f):
                        continue
                    yield from chains(prefix + [f], remaining - 1)
                yield list(prefix) + [zero] * remaining
            seen = set()
            for entries in chains([], n):
                key = tuple(str(e) for e in entries)
                if key in seen or len(entries) != n:
                    continue
                seen.add(key)
                fs = FactorSequence(T, eps, entries)
                res = validate_sequence(fs)
                total += 1
                if res.ok:
                    valid_count += 1
                    cb, Mx = assemble_canonical(fs)
                    assert invariant_factors(Mx) == fs.entries, \
                        f"roundtrip failed for {key} eps={eps}"
                else:
                    invalid_count += 1
                    assert res.reason
    assert valid_count > 0 and invalid_count > 0
    _report(5, f"{total} sequences enumerated: {valid_count} valid round-trip,"
            f" {invalid_count} invalid rejected", f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: isotropy oracle vs brute force
# ---------------------------------------------------------------------------

def _f3_polys(T, maxdeg):
    out = []
    for deg in range(-1, maxdeg + 1):
        if deg < 0:
            out.append(StarPoly.zero(T))
            continue
        for combo in itertools.product(range(3), repeat=deg):
            for lead in (1, 2):
                out.append(StarPoly.from_ints(T, list(combo) + [lead]))
    return out


_SLOT = 16  # bits per coefficient in a packed F_3[t] polynomial


def _pack(coeffs):
    """Int coefficients (in 0..p-1) as one int, coefficient k in bits
    [16k, 16k + 16), so that sums of products of packed polynomials hold
    their coefficients exactly while every slot stays below 2^16."""
    return sum(c << (_SLOT * k) for k, c in enumerate(coeffs))


def _packed_zero_mod(x, p):
    """Whether every coefficient slot of the packed polynomial x is 0 mod p."""
    while x:
        if (x & ((1 << _SLOT) - 1)) % p:
            return False
        x >>= _SLOT
    return True


def _packed_isotropic(A, vec_pool, vec_pairs):
    """The first pair (v1, v2) of vec_pairs with v* A v = 0, for a 2x2 form
    A over F_p with small degrees, evaluated on packed int coefficients:
    v* A v = v1* (a11 v1 + a12 v2) + v2* (a21 v1 + a22 v2).  Slots stay
    below 2^16 for entries of degree <= 2, vectors of degree <= 3 and
    p = 3."""
    p = A.tower.p
    ints = lambda f: [c.rep for c in f.coeffs]
    vs = [_pack(ints(v)) for v in vec_pool]
    stars = [_pack([(-c) % p if k & 1 else c for k, c in enumerate(ints(v))])
             for v in vec_pool]
    (a11, a12), (a21, a22) = [[_pack(ints(e)) for e in row] for row in A.entries]
    p11, p12, p21, p22 = ([a * v for v in vs] for a in (a11, a12, a21, a22))
    for i1, i2 in vec_pairs:
        x = stars[i1] * (p11[i1] + p12[i2]) + stars[i2] * (p21[i1] + p22[i2])
        if _packed_zero_mod(x, p):
            return vec_pool[i1], vec_pool[i2]
    return None


def test_criterion_6_isotropy_oracle():
    t0 = time.time()
    T = Tower(3)
    even_pool = [p for p in _f3_polys(T, 2) if p.is_even()]
    odd_pool = [p for p in _f3_polys(T, 2) if p.is_odd()]
    off_pool = _f3_polys(T, 2)
    vec_pool = _f3_polys(T, 3)
    vec_pairs = [(i1, i2) for i1, v1 in enumerate(vec_pool)
                 for i2, v2 in enumerate(vec_pool)
                 if not (v1.is_zero() and v2.is_zero())]

    rng = random.Random(0xC6)
    forms = []
    seen = set()
    # all skew forms plus a hermitian sample, deduplicated
    for d1 in odd_pool:
        for d2 in odd_pool:
            for b in off_pool:
                forms.append((SKEW, PolyMatrix(T, [[d1, b], [-b.star(), d2]])))
    while len(forms) < 900:
        d1, d2 = rng.choice(even_pool), rng.choice(even_pool)
        b = rng.choice(off_pool)
        forms.append((HERMITIAN, PolyMatrix(T, [[d1, b], [b.star(), d2]])))
    dedup = []
    for eps, A in forms:
        key = (eps, str(A))
        if key not in seen:
            seen.add(key)
            dedup.append((eps, A))
    assert len(dedup) >= 500

    brute_hits = 0
    for eps, A in dedup:
        v = isotropic_vector(A, eps)
        assert form_value(A, v, v).is_zero()
        assert any(not x.is_zero() for x in v)
        # brute force over prime-field vectors of entry degree <= 3; anything
        # it finds must agree with the evaluator, and when the formula vector
        # itself has prime-field entries the brute search must see it too
        found = _packed_isotropic(A, vec_pool, vec_pairs)
        if found is not None:
            assert form_value(A, list(found), list(found)).is_zero()
            brute_hits += 1
        if all(c.level == 0 for x in v for c in x.coeffs) \
                and max((x.degree() for x in v), default=0) <= 3:
            assert found is not None, "brute force missed a prime-field vector"
    _report(6, f"{len(dedup)} forms: formula isotropy exact, "
            f"{brute_hits} cross-confirmed by brute force",
            f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 7: the section-6 boundary matrix
# ---------------------------------------------------------------------------

def test_criterion_7_boundary_matrix():
    t0 = time.time()
    for p in (5, 7):
        T = Tower(p)
        A = PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in
                           [["t^2", "1", "0"],
                            ["1", "t^2", "t"],
                            ["0", "-t", "t^2"]]])
        assert form_kind(A) == HERMITIAN
        cert, cb = canonicalize(A, HERMITIAN)
        assert cert.verify(A)
        assert invariant_factors(cert.B) == invariant_factors(A)
    _report(7, "section-6 matrix canonicalizes over F_5 and F_7 closures",
            f"({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: algebra kernel, 10^4-sample exact suites
# ---------------------------------------------------------------------------

def _rand_poly(T, rng, maxdeg, nonzero=False):
    while True:
        deg = rng.randint(-1, maxdeg)
        if deg < 0:
            p = StarPoly.zero(T)
        else:
            p = StarPoly.from_ints(
                T, [rng.randrange(T.p) for _ in range(deg)]
                + [rng.randrange(1, T.p)])
        if not (nonzero and p.is_zero()):
            return p


def test_criterion_8_star_automorphism():
    T = Tower(5)
    rng = random.Random(0x81)
    t0 = time.time()
    for _ in range(10_000):
        a = _rand_poly(T, rng, 6)
        b = _rand_poly(T, rng, 6)
        assert (a * b).star() == a.star() * b.star()
        assert (a + b).star() == a.star() + b.star()
        assert a.star().star() == a
    _report(8, "star automorphism: 10^4 samples", f"({time.time() - t0:.1f}s)")


def test_criterion_8_norm_equations():
    T = Tower(5)
    rng = random.Random(0x82)
    t0 = time.time()
    done = 0
    while done < 10_000:
        a = _rand_poly(T, rng, 4, nonzero=True)
        if not is_pure(a):
            continue
        b = _rand_poly(T, rng, 5)
        be, bo = b.even_part(), b.odd_part()
        x = solve_norm_equation(a, be, "+")
        assert a * x + a.star() * x.star() == be
        x = solve_norm_equation(a, bo, "-")
        assert a * x - a.star() * x.star() == bo
        done += 1
    _report(8, "norm equations: 10^4 samples", f"({time.time() - t0:.1f}s)")


def test_criterion_8_norm_factorization():
    rng = random.Random(0x83)
    t0 = time.time()
    T = Tower(5)
    for k in range(10_000):
        z0 = _rand_poly(T, rng, 3, nonzero=True)
        y = z0 * z0.star()
        z = norm_factor(y)
        assert z * z.star() == y
        assert 2 * z.degree() == y.degree()
    _report(8, "norm factorization: 10^4 samples", f"({time.time() - t0:.1f}s)")


def test_criterion_8_smith_roundtrip():
    rng = random.Random(0x84)
    t0 = time.time()
    towers = {p: Tower(p) for p in (3, 5)}
    for _ in range(10_000):
        T = towers[rng.choice([3, 5])]
        n = rng.randint(1, 3)
        A = PolyMatrix(T, [[_rand_poly(T, rng, 2) for _ in range(n)]
                           for _ in range(n)])
        sf = smith_form(A)
        assert (sf.U @ A) @ sf.V == sf.D
    _report(8, "Smith round-trip U A V = D: 10^4 samples",
            f"({time.time() - t0:.1f}s)")


def test_criterion_8_t_scaling_law():
    rng = random.Random(0x85)
    t0 = time.time()
    towers = {p: Tower(p) for p in (3, 5)}
    for _ in range(10_000):
        T = towers[rng.choice([3, 5])]
        t = StarPoly.t(T)
        n = rng.randint(1, 2)
        A = PolyMatrix(T, [[_rand_poly(T, rng, 2) for _ in range(n)]
                           for _ in range(n)])
        fa = invariant_factors(A)
        fta = invariant_factors(A.scale(t))
        assert fta == tuple(f if f.is_zero() else (t * f) for f in fa)
    _report(8, "t-scaling of invariant factors: 10^4 samples",
            f"({time.time() - t0:.1f}s)")
