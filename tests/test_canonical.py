import itertools
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from starform.tower import Tower
from starform.starpoly import StarPoly, is_pure, parse_poly
from starform.polymat import (HERMITIAN, SKEW, PolyMatrix, Reduction,
                              determinant, form_kind, invariant_factors)
from starform.canonical import (Block1, Block2, CanonicalBlocks,
                                FactorSequence, are_congruent,
                                assemble_canonical, canonicalize,
                                factor_sequence_of, validate_sequence)
from starform.randgen import RandomSpec, generate


def M(rows, T):
    return PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in rows])


def FS(T, eps, polys):
    return FactorSequence(T, eps, [parse_poly(s, T) for s in polys])


# ---------------- validate_sequence ----------------

def test_validate_examples():
    T = Tower(3)
    res = validate_sequence(FS(T, HERMITIAN, ["1", "t", "t", "t^2"]))
    assert res.ok
    assert len(res.pairs) == 1
    k, p = res.pairs[0]
    assert k == 1 and p.is_one()

    res = validate_sequence(FS(T, HERMITIAN, ["1", "t", "t^2"]))
    assert not res.ok  # lone odd entry in a hermitian chain

    res = validate_sequence(FS(T, SKEW, ["1", "t^2"]))
    assert not res.ok  # t^2/1 = p p* would force p = a t, not pure


def test_validate_rejects_malformed():
    T = Tower(3)
    with pytest.raises(ValueError):
        validate_sequence(FS(T, HERMITIAN, ["t^2", "t"]))  # chain broken
    with pytest.raises(ValueError):
        validate_sequence(FS(T, HERMITIAN, ["t+1"]))  # not homogeneous
    with pytest.raises(ValueError):
        validate_sequence(FS(T, HERMITIAN, ["2*t^2"]))  # not monic
    with pytest.raises(ValueError):
        validate_sequence(FS(T, HERMITIAN, ["0", "1"]))  # zero before nonzero


def test_validate_zero_tail_and_trivial():
    T = Tower(3)
    assert validate_sequence(FS(T, HERMITIAN, ["1", "1", "0"])).ok
    assert validate_sequence(FS(T, SKEW, ["0", "0"])).ok
    assert validate_sequence(FS(T, HERMITIAN, [])).ok


# ---------------- assemble_canonical ----------------

def test_assemble_examples():
    T = Tower(5)
    cb, Mx = assemble_canonical(FS(T, SKEW, ["t", "t^3"]))
    assert Mx == M([["t", "0"], ["0", "t^3"]], T)
    assert all(isinstance(b, Block1) for b in cb.blocks)

    cb, Mx = assemble_canonical(FS(T, SKEW, ["1", "t^2-1"]))
    assert len(cb.blocks) == 1 and isinstance(cb.blocks[0], Block2)
    p = cb.blocks[0].p
    assert is_pure(p) and p * p.star() == parse_poly("t^2-1", T)
    assert form_kind(Mx) == SKEW

    cb, Mx = assemble_canonical(FS(T, HERMITIAN, ["1", "1"]))
    assert Mx == PolyMatrix.identity(T, 2)


def test_assemble_rejects_invalid():
    T = Tower(3)
    with pytest.raises(ValueError):
        assemble_canonical(FS(T, HERMITIAN, ["1", "t", "t^2"]))


def test_assemble_smith_roundtrip_random():
    rng = random.Random(1)
    from starform.randgen import sample_factor_sequence
    for trial in range(40):
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(1, 4)
        eps = rng.choice([HERMITIAN, SKEW])
        fs = sample_factor_sequence(T, rng, n, eps, 4)
        cb, Mx = assemble_canonical(fs)
        assert invariant_factors(Mx) == fs.entries
        assert form_kind(Mx) == eps or Mx.is_zero()


# ---------------- canonicalize ----------------

def test_canonicalize_skew_example():
    T = Tower(5)
    A = M([["0", "t"], ["t", "t^3"]], T)
    cert, cb = canonicalize(A, SKEW)
    assert cert.verify(A)
    assert invariant_factors(cert.B) == invariant_factors(A)
    # the gcd t is odd: dividing flips to hermitian, blocks are 1x1
    assert all(isinstance(b, Block1) for b in cb.blocks)


def test_canonicalize_skew_block_stays_over_prime_field():
    """The skew split swaps t^2+4t+2 for its star, the canonical pure
    factor, in one gcd move: no root of the quadratic is adjoined."""
    T = Tower(5)
    A = M([["0", "t^2+4*t+2"], ["-t^2-t-2", "0"]], T)
    cert, cb = canonicalize(A, SKEW)
    assert cert.verify(A)
    assert cb.serialize(T).splitlines()[-1] == "2x2: 1 | t^2+t+2"
    assert T.describe_levels() == []
    assert all(c.level == 0 for row in cert.S.entries for e in row for c in e.coeffs)


def test_canonicalize_zero_matrix():
    T = Tower(5)
    A = PolyMatrix.zeros(T, 3, 3)
    cert, cb = canonicalize(A, SKEW)
    assert cert.verify(A)
    assert cert.B.is_zero()
    assert len(cb.blocks) == 3


def test_canonicalize_already_canonical_is_fixed_point():
    T = Tower(5)
    fs = FS(T, HERMITIAN, ["1", "t^2-1"])
    cb0, C = assemble_canonical(fs)
    cert, cb = canonicalize(C, HERMITIAN)
    assert cert.verify(C)
    assert cert.B == C
    assert cb == cb0


def test_canonicalize_shape_and_block_structure():
    rng = random.Random(2)
    for trial in range(20):
        spec = RandomSpec(seed=trial * 101 + 7, p=rng.choice([3, 5]),
                          n=rng.randint(2, 4), eps=rng.choice([1, -1]),
                          max_degree=4, moves=6)
        inst = generate(spec)
        cert, cb = canonicalize(inst.A, spec.eps)
        assert cert.verify(inst.A)
        B = cert.B
        # only 1x1 blocks and zero-diagonal 2x2 blocks
        for b in cb.blocks:
            if isinstance(b, Block2):
                blk = b.matrix()
                assert blk.entries[0][0].is_zero()
                assert blk.entries[1][1].is_zero()
                assert is_pure(b.p)
        assert invariant_factors(B) == invariant_factors(inst.C)


def test_canonicalize_section6_matrix():
    for p in (5, 7):
        T = Tower(p)
        A = M([["t^2", "1", "0"], ["1", "t^2", "t"], ["0", "-t", "t^2"]], T)
        assert form_kind(A) == HERMITIAN
        cert, cb = canonicalize(A, HERMITIAN)
        assert cert.verify(A)
        assert invariant_factors(cert.B) == invariant_factors(A)


def test_canonicalize_uniqueness_on_congruent_inputs():
    rng = random.Random(3)
    from starform.polymat import Reduction
    from starform.randgen import _random_unimodular
    for trial in range(10):
        spec = RandomSpec(seed=trial * 31 + 5, p=rng.choice([3, 5]),
                          n=rng.randint(2, 4), eps=rng.choice([1, -1]),
                          max_degree=4, moves=5)
        inst = generate(spec)
        red = Reduction(inst.C)
        for op in _random_unimodular(inst.tower, random.Random(trial + 999),
                                     spec.n, 5):
            if op[0] == "transvection":
                red.transvection(op[1], op[2], op[3])
            else:
                red.scale_col(op[1], op[2])
        A2 = red.B
        cert1, cb1 = canonicalize(inst.A, spec.eps)
        cert2, cb2 = canonicalize(A2, spec.eps)
        assert cb1 == cb2
        assert cert1.B == cert2.B


def test_necessity_random_forms_validate():
    # invariant factors computed from random eps-forms always satisfy the
    # characterization
    rng = random.Random(4)
    done = 0
    while done < 60:
        T = Tower(rng.choice([3, 5]))
        n = rng.randint(1, 4)
        eps = rng.choice([HERMITIAN, SKEW])
        z = StarPoly.zero(T)
        E = [[z] * n for _ in range(n)]
        for i in range(n):
            deg = rng.randint(0, 3)
            coeffs = [rng.randrange(T.p) if (k % 2 == (0 if eps == 1 else 1))
                      else 0 for k in range(deg + 1)]
            E[i][i] = StarPoly.from_ints(T, coeffs)
            for j in range(i + 1, n):
                deg = rng.randint(-1, 3)
                a = (StarPoly.zero(T) if deg < 0 else StarPoly.from_ints(
                    T, [rng.randrange(T.p) for _ in range(deg + 1)]))
                E[i][j] = a
                E[j][i] = a.star() if eps == 1 else -a.star()
        A = PolyMatrix(T, E)
        if A.is_zero():
            continue
        fs = factor_sequence_of(A, eps)
        assert validate_sequence(fs).ok
        done += 1


# ---------------- congruence decision ----------------

def test_are_congruent_transform_invariance():
    rng = random.Random(5)
    from starform.polymat import Reduction
    for trial in range(8):
        spec = RandomSpec(seed=trial * 77 + 1, p=5, n=rng.randint(2, 3),
                          eps=rng.choice([1, -1]), max_degree=4, moves=4)
        inst = generate(spec)
        red = Reduction(inst.A)
        for _ in range(3):
            i, j = rng.randrange(spec.n), rng.randrange(spec.n)
            if i != j:
                red.transvection(i, j, StarPoly.from_ints(
                    inst.tower, [rng.randrange(5), rng.randrange(5)]))
        same, cert = are_congruent(inst.A, red.B, spec.eps,
                                   want_certificate=True)
        assert same and cert is not None
        assert cert.verify(inst.A)


def test_each_result_is_checked_once(monkeypatch):
    """canonicalize checks its certificate once, and a certified
    are_congruent checks only the one it composes, on nonsingular,
    singular and skew inputs alike."""
    from starform import polymat
    calls = []
    check = polymat.Certificate.check
    monkeypatch.setattr(polymat.Certificate, "check",
                        lambda self, A: calls.append(A) or check(self, A))
    T = Tower(5)
    forms = [(M([["t^2+1", "t"], ["-t", "2"]], T), HERMITIAN),
             (M([["1", "t"], ["-t", "-t^2"]], T), HERMITIAN),
             (M([["0", "t^2+1", "0"], ["-t^2-1", "0", "t"], ["0", "t", "t^3"]], T),
              SKEW)]
    for A, eps in forms:
        del calls[:]
        cert, _ = canonicalize(A, eps)
        assert calls == [A]
        red = Reduction(A)
        red.transvection(0, 1, StarPoly.t(T) + StarPoly.one(T))
        del calls[:]
        same, cert = are_congruent(A, red.B, eps, want_certificate=True)
        assert same and calls == [A]
        del calls[:]
        assert are_congruent(A, red.B, eps) == (True, None)
        assert calls == []


def test_each_window_is_reduced_once(monkeypatch):
    """canonicalize reads every window's gcd and second invariant factor
    off one Smith form of A, and reduces each window once: a nonsingular
    skew 4x4 with two 2x2 blocks takes one invariant_factors, two
    compress_form and no gcd_of_matrix calls."""
    from starform import canonical, congruence, polymat
    A = generate(RandomSpec(seed=6, p=5, n=4, eps=SKEW, max_degree=6, moves=6)).A
    calls = {"invariant_factors": 0, "compress_form": 0, "gcd_of_matrix": 0}
    for name in calls:
        orig = getattr(congruence, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)
        for mod in (canonical, congruence, polymat):
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    _, cb = canonicalize(A, SKEW)
    assert [type(b) for b in cb.blocks] == [Block2, Block2]
    assert calls == {"invariant_factors": 1, "compress_form": 2, "gcd_of_matrix": 0}


def test_are_congruent_factor_mismatch():
    T = Tower(5)
    A = M([["1", "0"], ["0", "t^2-1"]], T)
    B = M([["1", "0"], ["0", "t^4-2*t^2+1"]], T)  # (t^2-1)^2
    same, _ = are_congruent(A, B, HERMITIAN)
    assert not same


def test_are_congruent_kind_checked():
    T = Tower(5)
    A = M([["1", "0"], ["0", "1"]], T)
    tA = A.scale(StarPoly.t(T))
    with pytest.raises(ValueError):
        are_congruent(A, tA, HERMITIAN)
    with pytest.raises(ValueError):
        are_congruent(A, M([["1"]], T), HERMITIAN)


def test_are_congruent_needs_one_tower():
    # forms over two towers would meet in the kernel once either grows
    A = M([["1", "t"], ["-t", "1"]], Tower(5))
    A2 = M([["1", "t"], ["-t", "1"]], Tower(5))
    with pytest.raises(ValueError, match="different towers"):
        are_congruent(A, A2, HERMITIAN)


def test_congruence_is_equivalence_on_corpus():
    rng = random.Random(6)
    mats = []
    T = Tower(3)
    from starform.randgen import sample_factor_sequence, _random_unimodular
    from starform.polymat import Reduction
    for k in range(6):
        fs = sample_factor_sequence(T, rng, 2, SKEW, 3)
        _, C = assemble_canonical(fs)
        red = Reduction(C)
        for op in _random_unimodular(T, rng, 2, 3):
            if op[0] == "transvection":
                red.transvection(op[1], op[2], op[3])
            else:
                red.scale_col(op[1], op[2])
        mats.append(red.B)
    for A in mats:
        assert are_congruent(A, A, SKEW)[0]
        for B in mats:
            ab = are_congruent(A, B, SKEW)[0]
            ba = are_congruent(B, A, SKEW)[0]
            assert ab == ba
            for C in mats:
                if ab and are_congruent(B, C, SKEW)[0]:
                    assert are_congruent(A, C, SKEW)[0]


@pytest.mark.parametrize("p, n, eps, seed", [
    # needed _hyperbolic_unit_vector before compress_form reached deg det
    pytest.param(5, 5, HERMITIAN, 15, id="15-5"),
    # a stale column read in reduce_columns grew the tower to u1
    pytest.param(5, 6, HERMITIAN, 6, id="6-6"),
    # never finished while compress_form left entries far above deg det
    (3, 4, HERMITIAN, 15), (5, 4, HERMITIAN, 15), (7, 4, HERMITIAN, 15),
    (7, 6, HERMITIAN, 15), (5, 4, HERMITIAN, 5411), (7, 4, SKEW, 7454),
    (7, 6, SKEW, 7654),
])
def test_scrambled_regressions_stay_in_prime_field(p, n, eps, seed):
    inst = generate(RandomSpec(seed=seed, p=p, n=n, eps=eps,
                               max_degree=6, moves=6))

    def over_budget(signum, frame):
        raise TimeoutError("canonicalize ran past its 5 s budget")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(5)
    try:
        cert, cb = canonicalize(inst.A, eps)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    cert.check(inst.A)
    assert inst.tower.num_levels() == 0
    assert cb == inst.blocks


def _dense_form(p, n, eps, seed):
    """The random eps-form that the benchmark's dense workload draws for
    (p, n, eps) and spec seed ``seed``: entries of degree <= 2, diagonal
    x + eps x*."""
    rng = random.Random(f"dense/{p}/{n}/{eps}/{seed}")
    T = Tower(p)
    E = [[None] * n for _ in range(n)]
    for i in range(n):
        x = StarPoly.from_ints(T, [rng.randrange(p) for _ in range(3)])
        E[i][i] = x + x.star() if eps == HERMITIAN else x - x.star()
        for j in range(i + 1, n):
            a = StarPoly.from_ints(T, [rng.randrange(p) for _ in range(3)])
            E[i][j] = a
            E[j][i] = a.star() if eps == HERMITIAN else -a.star()
    return T, PolyMatrix(T, E)


@pytest.mark.parametrize("p, n, seed, levels, last", [
    # F_{3^8}, the fixed levels of p = 3; F_{3^24} while half splits grew
    # levels of degree 4 and 3
    pytest.param(3, 3, 23, ["u1: u1^2+1 = 0", "u2: u2^2+2*u1+2 = 0",
                            "u3: u3^2+2*u2 = 0"],
                 "t^6+t^4-t^2+1", id="3-23-levels0-t^6+t^4-t^2+1"),
    # F_{5^2}; F_{5^12} before compress_form reached deg det
    pytest.param(5, 3, 20, ["u1: u1^2+3 = 0"], "t^4+t^2+1",
                 id="5-20-levels1-t^4+t^2+1"),
    # F_{3^8}, as when a half split grew a level of degree 4; never
    # finished before compress_form reached deg det
    (3, 5, 3, ["u1: u1^2+1 = 0", "u2: u2^2+2*u1+2 = 0",
               "u3: u3^2+2*u2 = 0"],
     "t^10-t^8-t^6+t^4"),
])
def test_dense_regressions_in_deep_towers(p, n, seed, levels, last):
    """Slow hermitian operations of the dense workload's generator finish
    under a 5 s budget with the recorded blocks, over the recorded tower of
    quadratic levels: its two slowest (n = 3), and member 3 of (3, 5, +1)."""
    T, A = _dense_form(p, n, HERMITIAN, seed)

    def over_budget(signum, frame):
        raise TimeoutError("canonicalize ran past its 5 s budget")

    previous = signal.signal(signal.SIGALRM, over_budget)
    signal.alarm(5)
    try:
        cert, cb = canonicalize(A, HERMITIAN)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    cert.check(A)
    assert T.describe_levels() == levels
    assert cb.serialize(T).splitlines()[-3:] == ["1x1: 1", "1x1: 1", f"1x1: {last}"]


# ---------------- one text per class ----------------

# two hermitian forms over F_5 with the invariant factors (1, t, t^3+2t),
# whose blocks lie over level 1; entries are coefficient lists, constant
# term first
_F5_PAIR = ([[[2, 0, 0], [3, 2], [4, 2]], [[3, 3], [2, 0, 4], [1, 2]],
             [[4, 3], [1, 3], [3, 0, 4]]],
            [[[4, 0, 3], [1, 3], [4, 3]], [[1, 2], [4, 0, 0], [1, 0]],
             [[4, 2], [1, 0], [4, 0, 2]]])


def _canonical_text(T, rows, eps=HERMITIAN):
    A = PolyMatrix(T, [[StarPoly.from_ints(T, c) for c in row] for row in rows])
    return canonicalize(A, eps)[1].serialize(T)


def test_congruent_pair_prints_one_text_in_any_tower():
    """The F_5 pair prints one canonical text, with an extension generator,
    in two fresh towers and in one shared tower in either order."""
    fresh = [_canonical_text(Tower(5), rows) for rows in _F5_PAIR]
    assert fresh[0] == fresh[1] and "generator u1: u1^2+3 = 0" in fresh[0]
    for order in (_F5_PAIR, _F5_PAIR[::-1]):
        T = Tower(5)
        assert [_canonical_text(T, rows) for rows in order] == fresh


def _texts_by_class(eps, forms):
    """The canonical texts of the 2x2 eps-forms [[d1, a], [eps a*, d2]] over
    F_3, for (d1, d2, a) coefficient lists in ``forms``, each in a fresh
    tower, grouped by invariant factors."""
    texts = {}
    for d1, d2, off in forms:
        T = Tower(3)
        a = StarPoly.from_ints(T, list(off))
        lower = a.star() if eps == HERMITIAN else -a.star()
        A = PolyMatrix(T, [[StarPoly.from_ints(T, d1), a],
                           [lower, StarPoly.from_ints(T, d2)]])
        key = tuple(str(f) for f in invariant_factors(A))
        texts.setdefault(key, set()).add(canonicalize(A, eps)[1].serialize(T))
    return texts


def test_one_text_per_class_on_all_small_hermitian_forms():
    """Every 2x2 hermitian form over F_3 with entries of degree <= 2, each
    in a fresh tower: the invariant factors are a complete invariant, so
    forms that share them print one canonical text."""
    evens = [[a, 0, b] for a in range(3) for b in range(3)]
    texts = _texts_by_class(HERMITIAN, itertools.product(
        evens, evens, itertools.product(range(3), repeat=3)))
    assert sum(1 for key in texts if "0" not in key) == 19
    assert all(len(found) == 1 for found in texts.values())


def test_one_text_per_class_on_small_skew_forms():
    """Every 7th 2x2 skew form over F_3 with entries of degree <= 3, in
    product order (938 of 6,561), each in a fresh tower: they reach all 52
    nonsingular classes, and forms that share their invariant factors print
    one canonical text.  818 of them grow the tower, up to 3 levels, so
    this also checks the arithmetic of its extension levels."""
    odds = [[0, a, 0, b] for a in range(3) for b in range(3)]
    forms = itertools.product(odds, odds, itertools.product(range(3), repeat=4))
    texts = _texts_by_class(SKEW, itertools.islice(forms, 0, None, 7))
    assert sum(1 for key in texts if "0" not in key) == 52
    assert all(len(found) == 1 for found in texts.values())


# ---------------- serialization ----------------

def test_canonical_blocks_serialize():
    T = Tower(5)
    cb, _ = assemble_canonical(FS(T, SKEW, ["1", "t^2-1"]))
    text = cb.serialize(T)
    assert "p = 5" in text and "epsilon = -1" in text
    assert "2x2: 1 | " in text
    cb, _ = assemble_canonical(FS(T, HERMITIAN, ["1", "t^2"]))
    text = cb.serialize(T)
    assert "1x1: 1" in text and "1x1: t^2" in text


_CORRUPT_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under python -O")
from starform import (CertificateError, PolyMatrix, StarPoly, Tower,
                      canonicalize, parse_poly)
from starform import canonical

good = canonical._core

def corrupted(A, eps):
    S, blocks = good(A, eps)
    rows = [list(row) for row in S.entries]
    rows[0][0] = rows[0][0] + StarPoly.one(S.tower)  # one coefficient
    return PolyMatrix(S.tower, rows), blocks

canonical._core = corrupted
T = Tower(5)
# the final check is the only one: both a 1x1 input and a 2x2 input must be
# rejected
for rows in ([["t^2+1"]], [["t^2+1", "t"], ["-t", "2"]]):
    A = PolyMatrix(T, [[parse_poly(e, T) for e in row] for row in rows])
    try:
        canonicalize(A, 1)
    except CertificateError as exc:
        print(exc)
    else:
        sys.exit("canonicalize accepted a corrupted certificate")
"""


def test_certificate_checks_survive_python_O():
    src = str(Path(__import__("starform").__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "entry (1,1): -t^2-1 != t^2+1",
        "not unimodular"]
