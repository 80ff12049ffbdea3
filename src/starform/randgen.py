"""Seeded random instance generation: valid factor sequences, their canonical
matrices, and congruence-scrambled test instances with retained ground truth.

Generated matrices keep prime-field coefficients so they serialize in the
problem-file format (canonical 2x2 blocks need the leading constant of p to
be a square adjustment in F_p; for p = 3 mod 4 that restricts pair blocks to
even-degree p).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .tower import Tower
from .starpoly import EVEN, ODD, StarPoly
from .polymat import HERMITIAN, PolyMatrix, Reduction, form_kind
from .canonical import CanonicalBlocks, FactorSequence, assemble_canonical


@dataclass
class RandomSpec:
    seed: int
    p: int
    n: int
    eps: int
    max_degree: int = 4
    moves: int = 6
    allow_singular: bool = True


@dataclass
class Instance:
    spec: RandomSpec
    tower: Tower
    A: PolyMatrix
    C: PolyMatrix
    S: PolyMatrix
    blocks: CanonicalBlocks
    sequence: FactorSequence


def _random_homogeneous(tower: Tower, rng: random.Random, parity: str,
                        max_degree: int) -> StarPoly:
    """Random monic homogeneous polynomial of the given parity, degree
    bounded by max_degree (even parity: even degree; odd: odd degree)."""
    if parity == EVEN:
        degrees = [d for d in range(0, max_degree + 1, 2)]
    else:
        degrees = [d for d in range(1, max_degree + 1, 2)]
    d = rng.choice(degrees)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    start = 0 if parity == EVEN else 1
    for k in range(start, d, 2):
        coeffs[k] = rng.randrange(tower.p)
    return StarPoly.from_ints(tower, coeffs)


def _random_pure(tower: Tower, rng: random.Random, max_deg: int) -> StarPoly:
    """Random monic pure polynomial with prime-field roots: no zero roots, no
    +/- pair, repetitions allowed.  For p = 3 mod 4 the degree is kept even
    so the canonical norm factor stays over F_p."""
    p = tower.p
    if p % 4 == 3:
        deg = rng.choice([d for d in range(0, max_deg + 1, 2)])
    else:
        deg = rng.randrange(0, max_deg + 1)
    banned = set()
    roots = []
    for _ in range(deg):
        opts = [a for a in range(1, p) if a not in banned]
        if not opts:
            break
        lam = rng.choice(opts)
        banned.add((-lam) % p)
        roots.append(tower.elem(lam))
    return StarPoly.from_roots(tower, roots)


def sample_factor_sequence(tower: Tower, rng: random.Random, n: int, eps: int,
                           max_degree: int,
                           allow_singular: bool = True) -> FactorSequence:
    """A uniformly-haphazard valid invariant factor sequence."""
    right = EVEN if eps == HERMITIAN else ODD
    wrong = ODD if eps == HERMITIAN else EVEN
    entries: List[StarPoly] = []
    current = StarPoly.one(tower)
    while len(entries) < n:
        remaining = n - len(entries)
        options = ["single"]
        if remaining >= 2:
            options += ["pair", "pair"]
        if entries and allow_singular:
            options += ["zeros"]
        choice = rng.choice(options)
        if choice == "zeros":
            entries.extend([StarPoly.zero(tower)] * remaining)
            break
        if choice == "single":
            mult_par = EVEN if current.parity() == right else ODD
            budget = max_degree - current.degree()
            if (mult_par == ODD and budget < 1) or budget < 0:
                entries.extend([StarPoly.zero(tower)] * remaining)
                break
            f = (current * _random_homogeneous(tower, rng, mult_par, budget)).monic()
            entries.append(f)
            current = f
        else:
            mult_par = EVEN if current.parity() == wrong else ODD
            budget = max_degree - current.degree()
            if (mult_par == ODD and budget < 1) or budget < 0:
                entries.extend([StarPoly.zero(tower)] * remaining)
                break
            g = (current * _random_homogeneous(tower, rng, mult_par, budget)).monic()
            p_budget = (max_degree - g.degree()) // 2
            pp = _random_pure(tower, rng, max(0, p_budget))
            h = (g * pp * pp.star()).monic()
            entries.extend([g, h])
            current = h
    return FactorSequence(tower, eps, entries)


def _random_unimodular(tower: Tower, rng: random.Random, n: int, moves: int,
                       max_x_degree: int = 1) -> List[Tuple]:
    """A list of elementary congruence moves (transvections and unit
    scalings) to scramble a canonical matrix."""
    ops = []
    for _ in range(moves):
        if n >= 2 and rng.random() < 0.85:
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            deg = rng.randint(0, max_x_degree)
            coeffs = [rng.randrange(tower.p) for _ in range(deg + 1)]
            x = StarPoly.from_ints(tower, coeffs)
            if x.is_zero():
                x = StarPoly.one(tower)
            ops.append(("transvection", i, j, x))
        else:
            i = rng.randrange(n)
            c = StarPoly.const(tower, rng.randrange(1, tower.p))
            ops.append(("scale", i, c))
    return ops


def generate(spec: RandomSpec) -> Instance:
    rng = random.Random(spec.seed)
    tower = Tower(spec.p)
    fs = sample_factor_sequence(tower, rng, spec.n, spec.eps, spec.max_degree,
                                spec.allow_singular)
    blocks, C = assemble_canonical(fs)
    red = Reduction(C)
    for op in _random_unimodular(tower, rng, spec.n, spec.moves):
        if op[0] == "transvection":
            red.transvection(op[1], op[2], op[3])
        else:
            red.scale_col(op[1], op[2])
    A = red.B
    if form_kind(A) != spec.eps and not A.is_zero():
        raise AssertionError("scrambling left the eps-form class")
    return Instance(spec, tower, A, C, red.S, blocks, fs)
