"""Canonical forms under congruence: which monic homogeneous divisibility
chains occur as invariant factors of an eps-form, assembly of the canonical
block matrix from a valid chain, the full canonicalizer, and the congruence
decision procedure.

Canonical blocks are 1x1 matrices (f) with f* = eps f and 2x2 matrices
[[0, q],[eps q*, 0]] with q = g p, p pure chosen canonically, so two
congruent inputs canonicalize to byte-identical block lists.

The canonicalizer (``_core``) splits the zero block off first, then one
block at a time off a shrinking trailing window, composing S by one window
product per block: a skew split already ends on the canonical block
[[0, p],[-p*, 0]].  One Smith form of A gives every window's gcd and, for a
skew block, its f f*, so each window is reduced once and no builder checks
its input again.  It checks nothing itself: ``canonicalize`` checks its
result once, and ``are_congruent`` checks only the certificate it composes
from two of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .starpoly import EVEN, ODD, StarPoly, canonical_pure_factor
from .polymat import (HERMITIAN, Certificate, CertificateError, PolyMatrix,
                      form_kind, inverse, invariant_factors, kernel_split,
                      mul_window)
from .congruence import _sk_split, _unit_vector, compress_form, split_one
from .tower import Tower


class Block1:
    """1x1 block (f), f = 0 or monic homogeneous with f* = eps f."""

    __slots__ = ("f",)

    def __init__(self, f: StarPoly):
        self.f = f

    def matrix(self) -> PolyMatrix:
        return PolyMatrix(self.f.tower, [[self.f]])

    def factors(self) -> List[StarPoly]:
        return [self.f]

    def __eq__(self, other):
        return isinstance(other, Block1) and self.f == other.f

    def __repr__(self):
        return f"1x1: {self.f}"


class Block2:
    """2x2 block [[0, g p],[eps (g p)*, 0]] with g monic and p pure."""

    __slots__ = ("g", "p", "eps")

    def __init__(self, g: StarPoly, p: StarPoly, eps: int):
        self.g = g
        self.p = p
        self.eps = eps

    def matrix(self) -> PolyMatrix:
        T = self.g.tower
        q = self.g * self.p
        qs = q.star() if self.eps == HERMITIAN else -q.star()
        z = StarPoly.zero(T)
        return PolyMatrix(T, [[z, q], [qs, z]])

    def factors(self) -> List[StarPoly]:
        return [self.g, (self.g * self.p * self.p.star()).monic()]

    def __eq__(self, other):
        return (isinstance(other, Block2) and self.g == other.g
                and self.p == other.p and self.eps == other.eps)

    def __repr__(self):
        return f"2x2: {self.g} | {self.p}"


class CanonicalBlocks:
    """Ordered block list; zero blocks last, the rest in chain order."""

    __slots__ = ("eps", "blocks")

    def __init__(self, eps: int, blocks: Sequence):
        self.eps = eps
        self.blocks = list(blocks)

    def matrix(self) -> Optional[PolyMatrix]:
        mats = [b.matrix() for b in self.blocks]
        if not mats:
            return None
        return PolyMatrix.block_diag(mats[0].tower, mats)

    def factor_sequence(self) -> "FactorSequence":
        fs: List[StarPoly] = []
        for b in self.blocks:
            fs.extend(b.factors())
        tower = fs[0].tower if fs else None
        nz = [f for f in fs if not f.is_zero()]
        zs = [f for f in fs if f.is_zero()]
        return FactorSequence(tower, self.eps, nz + zs)

    def serialize(self, tower: Tower) -> str:
        lines = [f"p = {tower.p}",
                 f"epsilon = {'+1' if self.eps == HERMITIAN else '-1'}",
                 f"n = {sum(2 if isinstance(b, Block2) else 1 for b in self.blocks)}"]
        # only the generators that the blocks use: a level above them shows
        # how the reduction ran, not the congruence class
        used = max((c.level for b in self.blocks
                    for f in ((b.g, b.p) if isinstance(b, Block2) else (b.f,))
                    for c in f.coeffs), default=0)
        for line in tower.describe_levels()[:used]:
            lines.append(f"generator {line}")
        for b in self.blocks:
            if isinstance(b, Block2):
                lines.append(f"2x2: {b.g} | {b.p}")
            else:
                lines.append(f"1x1: {b.f}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, CanonicalBlocks) and self.eps == other.eps
                and self.blocks == other.blocks)

    def __repr__(self):
        return "; ".join(repr(b) for b in self.blocks) or "(empty)"


class FactorSequence:
    """f_1 | f_2 | ... | f_r monic homogeneous, then zeros, tagged with eps."""

    __slots__ = ("tower", "eps", "entries")

    def __init__(self, tower: Tower, eps: int, entries: Sequence[StarPoly]):
        self.tower = tower
        self.eps = eps
        self.entries = tuple(entries)

    def __eq__(self, other):
        return (isinstance(other, FactorSequence) and self.eps == other.eps
                and self.entries == other.entries)

    def __repr__(self):
        return f"eps={self.eps}: " + ", ".join(str(f) for f in self.entries)


class ValidationResult:
    __slots__ = ("ok", "reason", "pairs")

    def __init__(self, ok: bool, reason: str = "",
                 pairs: Optional[List[Tuple[int, StarPoly]]] = None):
        self.ok = ok
        self.reason = reason
        self.pairs = pairs if pairs is not None else []

    def __bool__(self):
        return self.ok


def factor_sequence_of(A: PolyMatrix, eps: int) -> FactorSequence:
    return FactorSequence(A.tower, eps, invariant_factors(A))


def _check_structure(fs: FactorSequence) -> int:
    """Raise on malformed sequences; return the rank (nonzero prefix length)."""
    entries = fs.entries
    r = 0
    for f in entries:
        if f.is_zero():
            break
        r += 1
    for f in entries[r:]:
        if not f.is_zero():
            raise ValueError("zero entries must come last")
    for f in entries[:r]:
        if not f.lc().is_one():
            raise ValueError("nonzero invariant factors must be monic")
        if not f.is_homogeneous():
            raise ValueError("invariant factors of an eps-form are homogeneous")
    for a, b in zip(entries[:r], entries[1:r]):
        if not a.divides(b):
            raise ValueError("divisibility chain violated")
    return r


def validate_sequence(fs: FactorSequence) -> ValidationResult:
    """Decide whether the chain occurs as the invariant factors of an
    eps-form: wrong-parity runs pair up with even length, and each paired
    quotient is a norm of a pure element (even with nonzero constant term).
    Returns the pairing with canonical p witnesses when valid."""
    r = _check_structure(fs)
    wrong = ODD if fs.eps == HERMITIAN else EVEN
    entries = fs.entries
    pairs: List[Tuple[int, StarPoly]] = []
    i = 0
    while i < r:
        if entries[i].parity() != wrong:
            i += 1
            continue
        j = i
        while j < r and entries[j].parity() == wrong:
            j += 1
        if (j - i) % 2 != 0:
            return ValidationResult(
                False, f"wrong-parity run of odd length at positions {i}..{j - 1}")
        for k in range(i, j, 2):
            q = entries[k + 1].exact_div(entries[k])
            if q.eval(fs.tower.zero).is_zero():
                return ValidationResult(
                    False, f"paired quotient at position {k} is divisible by t")
            p = canonical_pure_factor(q.monic())
            pairs.append((k, p))
        i = j
    return ValidationResult(True, "", pairs)


def assemble_canonical(fs: FactorSequence) -> Tuple[CanonicalBlocks, PolyMatrix]:
    """The canonical block matrix whose invariant factors reproduce fs."""
    res = validate_sequence(fs)
    if not res.ok:
        raise ValueError(f"invalid factor sequence: {res.reason}")
    paired = {k: p for k, p in res.pairs}
    blocks: List = []
    i = 0
    entries = fs.entries
    while i < len(entries):
        if i in paired:
            blocks.append(Block2(entries[i], paired[i], fs.eps))
            i += 2
        else:
            blocks.append(Block1(entries[i]))
            i += 1
    cb = CanonicalBlocks(fs.eps, blocks)
    M = cb.matrix()
    if M is None:
        M = PolyMatrix.zeros(fs.tower, 0, 0)
    return cb, M


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def _core(A: PolyMatrix, eps: int) -> Tuple[PolyMatrix, List]:
    """(S, blocks) for A with A* = eps A, unchecked: S* A S is the ordered
    direct sum of the canonical blocks, zero blocks last.

    One loop over a trailing window W of S* A S, which starts after the zero
    block of ``kernel_split``.  (1) (+) M has invariant factors (1, inv M)
    and N (+) D with f f* | D has (1, f f*, inv D), so W has the suffix
    fs[i:] of the nonzero invariant factors of A: gcd fs[i], and a skew
    block's f f* is fs[i+1] / fs[i], whose canonical pure factor p the
    skew split ends on.  Each step reduces W / fs[i] once, splits one block
    off it, multiplies the window columns of S by the step's transform, and
    leaves the rest, times fs[i], as the next W."""
    T = A.tower
    n = A.rows
    fs = [f for f in invariant_factors(A) if not f.is_zero()]
    k = n - len(fs)
    if k:
        # ks.S* A ks.S = 0_k (+) W
        ks = kernel_split(A)
        S, W = ks.S, ks.B.submatrix(range(k, n), range(k, n))
    else:
        S, W = PolyMatrix.identity(T, n), A
    blocks: List = []
    off = k
    while off < n:
        d = fs[off - k]
        comp = compress_form(W.exact_div(d))
        if (eps if d.parity() == EVEN else -eps) == HERMITIAN:
            cert = split_one(comp.B, _unit_vector(comp.B))
            size, block = 1, Block1(d)
        else:
            p = canonical_pure_factor(fs[off - k + 1].exact_div(d))
            cert = _sk_split(comp.B, p).cert
            size, block = 2, Block2(d, p, eps)
        S = PolyMatrix(T, mul_window(S, comp.S @ cert.S, off))
        blocks.append(block)
        off += size
        if off < n:
            # cert certifies comp.B = W / d, so the rest of W is d times its rest
            rest = range(size, cert.B.rows)
            W = cert.B.submatrix(rest, rest).scale(d)
    if k:
        # the zero columns move to the end
        perm = list(range(k, n)) + list(range(k))
        S = PolyMatrix(T, [[row[j] for j in perm] for row in S.entries])
        blocks += [Block1(StarPoly.zero(T))] * k
    return S, blocks


def canonicalize(A: PolyMatrix, eps: int) -> Tuple[Certificate, CanonicalBlocks]:
    """Verified congruence S* A S = B with B the canonical direct sum of 1x1
    blocks and zero-diagonal 2x2 blocks (zero blocks last)."""
    kind = form_kind(A)
    if kind is None or (not A.is_zero() and kind != eps):
        raise ValueError("matrix is not an eps-form of the stated kind")
    S, blocks = _core(A, eps)
    cb = CanonicalBlocks(eps, blocks)
    B = cb.matrix()
    if B is None:
        B = PolyMatrix.zeros(A.tower, 0, 0)
    cert = Certificate(S, B)
    cert.check(A)
    return cert, cb


def are_congruent(A: PolyMatrix, A2: PolyMatrix, eps: int,
                  want_certificate: bool = False
                  ) -> Tuple[bool, Optional[Certificate]]:
    """Congruence decision via invariant factors; optionally a verified
    certificate composed through the shared canonical form: with
    S1* A S1 = C = S2* A2 S2, S = S1 S2^-1 gives S* A S = A2, and only that
    composed certificate is checked."""
    if A.rows != A2.rows or A.cols != A2.cols:
        raise ValueError("size mismatch")
    if A.tower is not A2.tower:
        raise ValueError("the two forms are over different towers")
    for M in (A, A2):
        kind = form_kind(M)
        if kind is None or (not M.is_zero() and kind != eps):
            raise ValueError("inputs are not eps-forms of the stated kind")
    same = invariant_factors(A) == invariant_factors(A2)
    if not same or not want_certificate:
        return same, None
    S1, blocks1 = _core(A, eps)
    S2, blocks2 = _core(A2, eps)
    if blocks1 != blocks2:
        raise CertificateError("canonical forms of equivalent matrices differ")
    cert = Certificate(S1 @ inverse(S2), A2)
    cert.check(A)
    return True, cert
