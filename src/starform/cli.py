"""Batch front end: parse problem files, dispatch commands, emit canonical
forms and certificates, generate random instances, run a self-test.

Problem file format (line oriented, diffable):

    p = 5
    epsilon = -1
    n = 2
    A = [ [ 0, t ], [ t, t^3 ] ]

Each entry is a sum of terms such as ``c*t^k`` joined by + and -, with an
optional leading sign; a term is a product of factors joined by *, and a
factor is t, an integer (reduced mod p), a generator uK or a parenthesized
entry, each optionally raised to ^k.  Whitespace is ignored anywhere inside
an entry.  The generators u1, u2, ... name the tower's levels, which are
fixed for each p, so an entry may name uK with no other line; K is at
most ``MAX_LEVELS``.  A comment line ``# generator uK: <minimal polynomial
in uK> = 0``, as certificates carry them, must give level K.

`main` builds its argument parser once per process and reuses it.

Exit codes: 0 success, 1 a certificate failed its check (in `verify` or in
the library), a reduction failed (`ReductionError`, reported in one line)
or a `selftest` check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from .tower import Tower
from .starpoly import StarPoly, format_poly, parse_poly
from .polymat import (HERMITIAN, SKEW, Certificate, CertificateError,
                      PolyMatrix, determinant, form_kind, invariant_factors)
from .canonical import CanonicalBlocks, canonicalize, are_congruent
from .congruence import ReductionError
from .randgen import RandomSpec, generate


class InputError(Exception):
    pass


class SelftestError(Exception):
    """A selftest check failed; the message names the check."""


def _check(ok: bool, what: str) -> None:
    # raises rather than asserts, so the checks also run under python -O
    if not ok:
        raise SelftestError(what)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


# a tower level as format_problem writes it, from Tower.describe_levels
_GENERATOR = re.compile(r"#\s*generator\s+u(\d+)\s*:\s*(.*?)\s*=\s*0$")

# The deepest level a problem file may name.  The first use of level k
# builds a product table of 2^(3k) entries: about 1 s at level 7, then 8x
# the time and memory per level.  The deepest tower a measured input
# reaches has 5 levels.
MAX_LEVELS = 7


def _grow_to(tower: Tower, k: int, what: str) -> None:
    """Grow the tower's fixed levels to k, refusing k > MAX_LEVELS first."""
    if k > MAX_LEVELS:
        raise InputError(f"{what}: a problem file may name at most "
                         f"{MAX_LEVELS} tower levels")
    while tower.num_levels() < k:
        tower.grow()


def _read_generator(tower: Tower, k: int, text: str) -> None:
    """Check a generator line, the minimal polynomial of uK written in uK
    over the lower generators, against the fixed level k of the tower,
    growing the tower to k levels first."""
    if "t" in text:
        raise InputError(f"generator u{k}: write its minimal polynomial in u{k}")
    _grow_to(tower, k, f"generator u{k}")
    try:
        mp = parse_poly(re.sub(rf"u{k}(?!\d)", "t", text), tower).coeffs
    except ValueError as exc:
        raise InputError(f"generator u{k}: {exc}") from exc
    if tuple(mp) != tower.levels[k - 1].minpoly:
        raise InputError(f"generator u{k}: {text} = 0 is not level {k} of the "
                         f"tower, {tower.describe_levels()[k - 1]}")


def parse_problem(text: str, tower: Optional[Tower] = None
                  ) -> Tuple[Tower, Optional[int], PolyMatrix, dict]:
    """Parse a problem file; returns (tower, epsilon or None, matrix, extras).

    Any additional matrix sections (S = ..., B = ...) land in extras.  The
    entries are parsed into `tower` when one is given, and the file's p must
    be its prime; otherwise into a new Tower(p).  Generator lines must
    match the tower's fixed levels, which are grown as far as the lines and
    the deepest uK of the matrices go.
    """
    fields = {}
    matrices = {}
    generators = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        found = _GENERATOR.match(lines[i].strip())
        if found:
            generators.append((int(found[1]), found[2]))
        line = _strip_comment(lines[i])
        i += 1
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"unparseable line: {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in ("p", "n"):
            fields[key] = int(value)
        elif key == "epsilon":
            if value in ("+1", "1", "+"):
                fields[key] = HERMITIAN
            elif value in ("-1", "-"):
                fields[key] = SKEW
            else:
                raise InputError(f"bad epsilon: {value!r}")
        elif key in ("a", "s", "b"):
            while value.count("[") != value.count("]") or not value.endswith("]"):
                if i >= len(lines):
                    raise InputError(f"unterminated matrix for {key!r}")
                value += " " + _strip_comment(lines[i])
                i += 1
            matrices[key.upper()] = value
        else:
            raise InputError(f"unknown key: {key!r}")
    if "p" not in fields:
        raise InputError("missing p")
    if "A" not in matrices:
        raise InputError("missing matrix A")
    if tower is None:
        tower = Tower(fields["p"])
    elif fields["p"] != tower.p:
        raise InputError(f"p = {fields['p']} does not match p = {tower.p}")
    for k, (level, minpoly) in enumerate(generators, start=1):
        if level != k:
            raise InputError(f"generator u{level} is out of order: expected u{k}")
        _read_generator(tower, k, minpoly)
    # the levels are fixed by p, so an entry may name uK without its line
    for raw in matrices.values():
        for k in re.findall(r"u(\d+)", "".join(raw.split())):
            _grow_to(tower, int(k), f"u{k}")
    parsed = {name: _parse_matrix(raw, tower) for name, raw in matrices.items()}
    A = parsed["A"]
    if "n" in fields and A.rows != fields["n"]:
        raise InputError(f"declared n = {fields['n']} but A has {A.rows} rows")
    eps = fields.get("epsilon")
    if eps is not None and not A.is_zero() and form_kind(A) != eps:
        raise InputError("matrix does not match the declared epsilon")
    extras = {k: v for k, v in parsed.items() if k != "A"}
    return tower, eps, A, extras


def _parse_matrix(text: str, tower: Tower) -> PolyMatrix:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError("matrix must be bracketed")
    body = text[1:-1].strip()
    rows = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "[":
            depth += 1
            if depth == 1:
                current = ""
                continue
        elif ch == "]":
            depth -= 1
            if depth == 0:
                rows.append(current)
                continue
        if depth >= 1:
            current += ch
    if depth != 0:
        raise InputError("unbalanced brackets in matrix")
    out = []
    for row in rows:
        entries = [e.strip() for e in row.split(",")]
        try:
            out.append([parse_poly(e, tower) for e in entries])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if not out:
        raise InputError("empty matrix")
    return PolyMatrix(tower, out)


def format_matrix(A: PolyMatrix) -> str:
    return "[ " + ", ".join(
        "[ " + ", ".join(format_poly(e) for e in row) + " ]"
        for row in A.entries) + " ]"


def format_problem(tower: Tower, eps: Optional[int], A: PolyMatrix,
                   extras: Optional[dict] = None) -> str:
    lines = [f"p = {tower.p}"]
    if eps is not None:
        lines.append(f"epsilon = {'+1' if eps == HERMITIAN else '-1'}")
    lines.append(f"n = {A.rows}")
    for line in tower.describe_levels():
        lines.append(f"# generator {line}")
    lines.append(f"A = {format_matrix(A)}")
    for name, M in (extras or {}).items():
        lines.append(f"{name} = {format_matrix(M)}")
    return "\n".join(lines) + "\n"


def _detect_eps(A: PolyMatrix, declared: Optional[int]) -> int:
    if declared is not None:
        return declared
    kind = form_kind(A)
    if kind is None:
        raise InputError("matrix is neither hermitian nor skew-hermitian")
    return kind


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_invariants(args) -> int:
    tower, eps, A, _ = parse_problem(Path(args.file).read_text())
    factors = invariant_factors(A)
    parts = []
    for f in factors:
        if f.is_zero():
            parts.append("0")
        else:
            parts.append(f"{format_poly(f)} ({f.parity()})")
    print(", ".join(parts))
    return 0


def cmd_canonical(args) -> int:
    tower, eps, A, _ = parse_problem(Path(args.file).read_text())
    eps = _detect_eps(A, eps)
    cert, blocks = canonicalize(A, eps)
    if args.trace:
        print(f"# moves folded into S; det S = {format_poly(determinant(cert.S))}",
              file=sys.stderr)
    print(blocks.serialize(tower))
    if args.certificate_out:
        with open(args.certificate_out, "w") as fh:
            fh.write(format_problem(tower, eps, A,
                                    {"S": cert.S, "B": cert.B}))
    return 0


def cmd_congruent(args) -> int:
    tower1, eps1, A, _ = parse_problem(Path(args.file_a).read_text())
    _, eps2, B, _ = parse_problem(Path(args.file_b).read_text(), tower1)
    if A.rows != B.rows:
        print("no")
        return 0
    kind_a = form_kind(A) if not A.is_zero() else (eps1 or HERMITIAN)
    kind_b = form_kind(B) if not B.is_zero() else (eps2 or HERMITIAN)
    if kind_a is None or kind_b is None or kind_a != kind_b:
        print("no")
        return 0
    same, cert = are_congruent(A, B, kind_a,
                               want_certificate=bool(args.certificate_out))
    print("yes" if same else "no")
    if same and args.certificate_out:
        with open(args.certificate_out, "w") as fh:
            fh.write(format_problem(tower1, kind_a, A,
                                    {"S": cert.S, "B": cert.B}))
    return 0


def cmd_verify(args) -> int:
    tower, eps, A, _ = parse_problem(Path(args.file_a).read_text())
    _, _, S, _ = parse_problem(Path(args.file_s).read_text(), tower)
    _, _, B, _ = parse_problem(Path(args.file_b).read_text(), tower)
    try:
        Certificate(S, B).check(A)
    except CertificateError as exc:
        print(f"fail: {exc}")
        return 1
    print("pass")
    return 0


def cmd_random(args) -> int:
    count = args.count
    for k in range(count):
        spec = RandomSpec(seed=args.seed + k, p=args.p, n=args.n,
                          eps=SKEW if args.epsilon == "-1" else HERMITIAN,
                          max_degree=args.degree, moves=args.moves)
        inst = generate(spec)
        text = format_problem(inst.tower, spec.eps, inst.A)
        if args.out:
            path = f"{args.out}/inst_{k:04d}.prob"
            with open(path, "w") as fh:
                fh.write(text)
            canon = inst.blocks.serialize(inst.tower)
            with open(f"{args.out}/inst_{k:04d}.canon", "w") as fh:
                fh.write(canon + "\n")
            print(path)
        else:
            sys.stdout.write(text)
    return 0


def cmd_selftest(args) -> int:
    """A smoke run: the star automorphism laws, then canonicalize round
    trips on random instances, which run every layer.  The oracle suites of
    the tests check the other laws at scale."""
    import random as _random

    budget = args.budget_seconds
    rng = _random.Random(args.seed)
    t0 = time.time()
    report = []

    def timed_out():
        return time.time() - t0 > budget

    def rand_poly(tower, maxdeg):
        return StarPoly.from_ints(
            tower, [rng.randrange(tower.p) for _ in range(rng.randint(1, maxdeg + 1))])

    # star automorphism laws
    n_star = 0
    T = Tower(5)
    while n_star < 2000 and not timed_out():
        a, b = rand_poly(T, 6), rand_poly(T, 6)
        _check((a * b).star() == a.star() * b.star(), "star: (ab)* = a* b*")
        _check((a + b).star() == a.star() + b.star(), "star: (a+b)* = a* + b*")
        _check(a.star().star() == a, "star: a** = a")
        n_star += 1
    report.append(f"star automorphism: {n_star} samples ok")

    n_canon = 0
    while n_canon < 20 and not timed_out():
        spec = RandomSpec(seed=rng.randrange(1 << 30), p=rng.choice([3, 5]),
                          n=rng.randint(2, 4), eps=rng.choice([HERMITIAN, SKEW]),
                          max_degree=4, moves=5)
        inst = generate(spec)
        cert, blocks = canonicalize(inst.A, spec.eps)
        _check(cert.verify(inst.A), "canonicalize certificate S* A S = B")
        _check(invariant_factors(cert.B) == invariant_factors(inst.C),
               "canonical form keeps invariant factors")
        n_canon += 1
    report.append(f"canonicalize round-trip: {n_canon} instances ok")

    for line in report:
        print(line)
    print(f"selftest passed in {time.time() - t0:.1f}s (budget {budget}s)")
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call to `main`: callers must not mutate it.  Each parse_args call makes a
    fresh namespace, and the parser holds no command function: `main` looks
    up ``cmd_<command>`` when it runs, so a rebound command is seen."""
    ap = argparse.ArgumentParser(
        prog="starform",
        description="exact congruence canonical forms for hermitian and "
                    "skew-hermitian matrices over F[t], t -> -t")
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="print invariant factors")
    p_inv.add_argument("file")

    p_can = sub.add_parser("canonical", help="canonicalize under congruence")
    p_can.add_argument("file")
    p_can.add_argument("--certificate-out")
    p_can.add_argument("--trace", action="store_true")

    p_con = sub.add_parser("congruent", help="decide congruence of two matrices")
    p_con.add_argument("file_a")
    p_con.add_argument("file_b")
    p_con.add_argument("--certificate-out")

    p_ver = sub.add_parser("verify", help="check S* A S = B exactly")
    p_ver.add_argument("file_a")
    p_ver.add_argument("file_s")
    p_ver.add_argument("file_b")

    p_rnd = sub.add_parser("random", help="generate test instances")
    p_rnd.add_argument("--seed", type=int, default=0)
    p_rnd.add_argument("--p", type=int, default=5)
    p_rnd.add_argument("--n", type=int, default=3)
    p_rnd.add_argument("--epsilon", choices=["+1", "-1"], default="+1")
    p_rnd.add_argument("--degree", type=int, default=4)
    p_rnd.add_argument("--moves", type=int, default=6)
    p_rnd.add_argument("--count", type=int, default=1)
    p_rnd.add_argument("--out")

    p_self = sub.add_parser("selftest", help="smoke-test the library")
    p_self.add_argument("--budget-seconds", type=float, default=60.0)
    p_self.add_argument("--seed", type=int, default=0)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate verification FAILED: {exc}", file=sys.stderr)
        return 1
    except SelftestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    except ReductionError as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
