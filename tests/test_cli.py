import os
import resource
import subprocess
import sys
import time

import pytest

from starform.cli import (InputError, format_matrix, format_problem, main,
                          parse_problem)
from starform.tower import Tower
from starform.starpoly import StarPoly, parse_poly
from starform.polymat import CertificateError, PolyMatrix
from starform.canonical import canonicalize


def run_cli(args, python_flags=(), preexec_fn=None):
    proc = subprocess.run([sys.executable, *python_flags, "-m", "starform"] + args,
                          capture_output=True, text=True, preexec_fn=preexec_fn)
    return proc.returncode, proc.stdout, proc.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


PROB_SKEW = """\
p = 5
epsilon = -1
n = 2
A = [ [ 0, t ], [ t, t^3 ] ]
"""


@pytest.fixture
def prob_file(tmp_path):
    path = tmp_path / "a.prob"
    path.write_text(PROB_SKEW)
    return str(path)


def test_parse_problem_roundtrip():
    tower, eps, A, extras = parse_problem(PROB_SKEW)
    assert tower.p == 5 and eps == -1 and A.rows == 2
    text = format_problem(tower, eps, A)
    tower2, eps2, A2, _ = parse_problem(text)
    assert eps2 == eps
    assert format_matrix(A2) == format_matrix(A)
    # idempotent printing
    assert format_problem(tower2, eps2, A2) == text


def test_parse_problem_multiline_matrix():
    text = "p = 3\nA = [\n [ 1, t ],\n [ -t, 1 ]\n]\n"
    tower, eps, A, _ = parse_problem(text)
    assert A.rows == 2 and eps is None


def test_parse_problem_errors():
    with pytest.raises(InputError):
        parse_problem("n = 2\nA = [ [ 1 ] ]\n")  # missing p
    with pytest.raises(InputError):
        parse_problem("p = 5\n")  # missing A
    with pytest.raises(InputError):
        parse_problem("p = 5\nepsilon = +1\nA = [ [ t ] ]\n")  # wrong eps
    with pytest.raises(InputError):
        parse_problem("p = 5\nn = 3\nA = [ [ 1 ] ]\n")  # wrong n


def test_parse_problem_generator_lines():
    """Generator lines must give the tower's fixed levels, which parsing
    grows as far as the lines go; a level out of order, another minimal
    polynomial, reducible or not, or a line in t is an input error."""
    text = "p = 5\n# generator u1: u1^2+3 = 0\n# generator u2: u2^2+4*u1 = 0\nA = [ [ u2 ] ]\n"
    tower, _, A, _ = parse_problem(text)
    assert tower.describe_levels() == ["u1: u1^2+3 = 0", "u2: u2^2+4*u1 = 0"]
    assert A.entries[0][0].coeff(0) == tower.generator(2)
    assert parse_problem(text, tower)[0] is tower and tower.num_levels() == 2
    for bad in ("# generator u2: u2^2+3 = 0\n",              # out of order
                "# generator u1: u1^2+1 = 0\n",              # -1 = 2^2 mod 5
                "# generator u1: u1^2+3 = 0\n# generator u2: u2^2+2 = 0\n",
                "# generator u1: u1^2+2 = 0\n# generator u2: u2^3+u1 = 0\n",
                "# generator u1: t^2+3 = 0\n"):
        with pytest.raises(InputError):
            parse_problem(f"p = 5\n{bad}A = [ [ 1 ] ]\n")
    with pytest.raises(InputError, match="is not level 1 of the tower, u1: u1\\^2\\+3 = 0"):
        parse_problem("p = 5\n# generator u1: u1^2+2 = 0\nA = [ [ 1 ] ]\n", tower)


def _generator_header(p, levels):
    T = Tower(p)
    for _ in range(levels):
        T.grow()
    return "".join(f"# generator {line}\n" for line in T.describe_levels())


def test_generator_lines_stop_at_the_level_cap(tmp_path):
    """A header may name MAX_LEVELS = 7 levels.  A line for level 8 is an
    input error before the tower grows: the first product at level k
    builds a table of 2^(3k) entries, so deeper levels cost seconds, then
    minutes and gigabytes."""
    tower, _, A, _ = parse_problem(f"p = 5\n{_generator_header(5, 7)}A = [ [ u7 ] ]\n")
    assert tower.num_levels() == 7 and A.entries[0][0].coeff(0) == tower.generator(7)
    path = tmp_path / "deep.prob"
    path.write_text(f"p = 5\nn = 1\n{_generator_header(5, 8)}A = [ [ 1 ] ]\n")
    start = time.perf_counter()
    code, _, err = run_cli(["invariants", str(path)])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "generator u8: a problem file may name at most 7 tower levels" in err


def test_an_entry_names_a_level_without_its_generator_line(tmp_path):
    """The levels are fixed by p, so u1 needs no generator line, and a file
    naming u8 is refused at the level cap before the tower grows."""
    bare = tmp_path / "bare.prob"
    bare.write_text("p = 5\nepsilon = +1\nn = 1\nA = [ [ u1 ] ]\n")
    lined = tmp_path / "lined.prob"
    lined.write_text("p = 5\nepsilon = +1\nn = 1\n# generator u1: u1^2+3 = 0\n"
                     "A = [ [ u1 ] ]\n")
    for command in ("invariants", "canonical"):
        outs = [run_cli([command, str(path)]) for path in (bare, lined)]
        assert outs[0] == outs[1] and outs[0][0] == 0
    deep = tmp_path / "deep.prob"
    deep.write_text("p = 5\nepsilon = +1\nn = 1\nA = [ [ u8 ] ]\n")
    start = time.perf_counter()
    code, _, err = run_cli(["invariants", str(deep)])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "u8: a problem file may name at most 7 tower levels" in err


def test_invariants_command(prob_file):
    code, out, _ = run_cli(["invariants", prob_file])
    assert code == 0
    assert out.strip() == "t (odd), t (odd)"


def test_canonical_command(prob_file, tmp_path):
    cert_path = str(tmp_path / "cert.out")
    code, out, _ = run_cli(["canonical", prob_file,
                            "--certificate-out", cert_path])
    assert code == 0
    assert "1x1: t" in out
    cert_text = open(cert_path).read()
    assert "S = " in cert_text and "B = " in cert_text


def test_verify_command(prob_file, tmp_path):
    # python -X dev reports every file left open for the garbage collector
    cert_path = str(tmp_path / "cert.out")
    code, _, err = run_cli(["canonical", prob_file, "--certificate-out", cert_path],
                           python_flags=("-X", "dev"))
    assert code == 0 and "ResourceWarning" not in err
    lines = open(cert_path).read().splitlines()
    get = lambda key: next(l.split("= ", 1)[1] for l in lines
                           if l.startswith(f"{key} = "))
    s_file = tmp_path / "s.prob"
    b_file = tmp_path / "b.prob"
    s_file.write_text(f"p = 5\nA = {get('S')}\n")
    b_file.write_text(f"p = 5\nA = {get('B')}\n")
    code, out, err = run_cli(["verify", prob_file, str(s_file), str(b_file)],
                             python_flags=("-X", "dev"))
    assert code == 0 and out.strip() == "pass"
    assert "ResourceWarning" not in err

    # B is 2x3 or 3x3 with the right top-left 2x2 block: a shape mismatch
    b_text = b_file.read_text()
    tower, _, B, _ = parse_problem(b_text)
    z = StarPoly.zero(tower)
    wide = [list(row) + [z] for row in B.entries]
    for rows in (wide, wide + [[z, z, z]]):
        b_file.write_text(f"p = 5\nA = {format_matrix(PolyMatrix(tower, rows))}\n")
        code, out, _ = run_cli(["verify", prob_file, str(s_file), str(b_file)])
        assert code == 1 and out.startswith("fail: shape mismatch")
    b_file.write_text(b_text)

    # S or B over another prime is an input error, not a reduction mod 5
    for path in (s_file, b_file):
        text = path.read_text()
        path.write_text(text.replace("p = 5", "p = 7"))
        code, _, err = run_cli(["verify", prob_file, str(s_file), str(b_file)])
        assert code == 2 and "p = 7 does not match p = 5" in err
        path.write_text(text)

    # unimodular but wrong S: first mismatching entry is reported
    s_file.write_text("p = 5\nA = [ [ 1, 0 ], [ 0, 1 ] ]\n")
    code, out, _ = run_cli(["verify", prob_file, str(s_file), str(b_file)])
    assert code == 1 and out.startswith("fail: entry")

    # non-unimodular S
    s_file.write_text("p = 5\nA = [ [ t, 0 ], [ 0, 1 ] ]\n")
    code, out, _ = run_cli(["verify", prob_file, str(s_file), str(b_file)])
    assert code == 1 and "not unimodular" in out


def test_extension_field_certificate_round_trip(tmp_path):
    """2 is not a square mod 5, so S holds u1: the certificate carries its
    generator, the canonical text does not, and verify reads S and B back
    with the certificate's header lines."""
    prob = tmp_path / "a.prob"
    prob.write_text("p = 5\nepsilon = +1\nn = 1\nA = [ [ 2 ] ]\n")
    cert = tmp_path / "cert.out"
    code, out, _ = run_cli(["canonical", str(prob), "--certificate-out", str(cert)])
    assert code == 0
    assert out.splitlines() == ["p = 5", "epsilon = +1", "n = 1", "1x1: 1"]
    lines = cert.read_text().splitlines()
    assert "# generator u1: u1^2+3 = 0" in lines
    header = [l for l in lines if l.split("=", 1)[0].strip() not in
              ("epsilon", "n", "A", "S", "B")]
    for key in ("S", "B"):
        matrix = next(l for l in lines if l.startswith(f"{key} = ")).split("= ", 1)[1]
        (tmp_path / f"{key}.prob").write_text("\n".join(header + [f"A = {matrix}"]) + "\n")
    code, out, err = run_cli(["verify", str(prob), str(tmp_path / "S.prob"),
                              str(tmp_path / "B.prob")])
    assert (code, out) == (0, "pass\n"), err


def test_canonical_text_does_not_depend_on_the_tower(tmp_path):
    """Two congruent forms whose reductions grow different towers print the
    same canonical text: only the generators the blocks use are printed."""
    texts = []
    for matrix in ("[ [ -2*t^2-2, 0, -t^4+t^2+2 ], [ 0, -2, -t^3-3*t^2-t-3 ], "
                   "[ -t^4+t^2+2, t^3-3*t^2+t-3, -2*t^4+3*t^2-2 ] ]",
                   "[ [ 3*t^4-3*t^2+2, t^4+t^3+2*t^2+t+1, 2*t^3-t^2+2*t-1 ], "
                   "[ t^4-t^3+2*t^2-t+1, 3*t^4+t^2-2, -t^3+t^2-t+1 ], "
                   "[ -2*t^3-t^2-2*t-1, t^3+t^2+t+1, 2*t^2+2 ] ]"):
        prob = tmp_path / "a.prob"
        prob.write_text(f"p = 7\nepsilon = +1\nn = 3\nA = {matrix}\n")
        tower, _, A, _ = parse_problem(prob.read_text())
        canonicalize(A, 1)
        texts.append((tower.num_levels(), run_cli(["canonical", str(prob)])))
    (levels1, first), (levels2, second) = texts
    assert levels1 != levels2
    assert first == second and first[1].endswith("1x1: t^2+1\n1x1: t^2+1\n")


def test_whitespace_inside_an_entry_is_ignored(tmp_path):
    """A tab inside an entry is whitespace like a space: the tabbed file
    reads as the same matrix as the spaced one."""
    spaced = parse_problem("p = 5\nA = [ [ t^2 +1, t ], [ -t, 2 ] ]\n")[2]
    tabbed = tmp_path / "tab.prob"
    tabbed.write_text("p = 5\nA = [ [ t^2\t+1, t ], [ -\tt, 2 ] ]\n")
    assert format_matrix(parse_problem(tabbed.read_text())[2]) == format_matrix(spaced)
    assert main(["invariants", str(tabbed)]) == 0


def test_main_reuses_one_parser(prob_file, capsys):
    """The parser is built once per process; a usage error or an input
    error in one call leaves the next calls' results as they were."""
    from starform import cli
    assert cli.build_parser() is cli.build_parser()
    assert main(["invariants", prob_file]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["invariants"])
    assert exc.value.code == 2
    assert main(["invariants", prob_file + ".missing"]) == 2
    capsys.readouterr()
    assert main(["invariants", prob_file]) == 0
    assert capsys.readouterr().out == first
    assert main(["verify", prob_file, prob_file, prob_file]) == 1
    assert capsys.readouterr().out.startswith("fail:")


def test_main_calls_a_rebound_command(prob_file, monkeypatch):
    """main looks each command up when it runs, so a wrapper bound after the
    parser was built (a test double, a tracer) is the one called."""
    from starform import cli
    assert main(["invariants", prob_file]) == 0
    monkeypatch.setattr(cli, "cmd_invariants", lambda args: 7)
    assert main(["invariants", prob_file]) == 7


def test_library_certificate_failure_exits_1(prob_file, monkeypatch, capsys):
    from starform import cli

    def failing(A, eps):
        raise CertificateError("entry (1,1): t != 1")

    monkeypatch.setattr(cli, "canonicalize", failing)
    assert main(["canonical", prob_file]) == 1
    err = capsys.readouterr().err
    assert "certificate verification FAILED" in err
    assert "Traceback" not in err


def test_reduction_failure_exits_1_in_one_line(prob_file, monkeypatch, capsys):
    from starform import cli
    from starform.congruence import ReductionError

    def failing(A, eps):
        raise ReductionError("skew pivot: y = 0 in every direction of f2")

    monkeypatch.setattr(cli, "canonicalize", failing)
    assert main(["canonical", prob_file]) == 1
    err = capsys.readouterr().err
    assert err == "reduction failed: skew pivot: y = 0 in every direction of f2\n"


def test_congruent_command(tmp_path):
    a = tmp_path / "a.prob"
    b = tmp_path / "b.prob"
    c = tmp_path / "c.prob"
    a.write_text("p = 5\nepsilon = +1\nA = [ [ 1, 0 ], [ 0, t^2-1 ] ]\n")
    # congruent to a: scale the second row/col by 2 (2*2=4, 4*(t^2-1))
    b.write_text("p = 5\nepsilon = +1\nA = [ [ 1, 0 ], [ 0, 4*t^2-4 ] ]\n")
    c.write_text("p = 5\nepsilon = +1\nA = [ [ 1, 0 ], "
                 "[ 0, t^4-2*t^2+1 ] ]\n")
    cert_out = tmp_path / "cert.out"
    code, out, _ = run_cli(["congruent", str(a), str(b),
                            "--certificate-out", str(cert_out)])
    assert code == 0 and out.strip() == "yes"
    assert cert_out.exists()
    code, out, _ = run_cli(["congruent", str(a), str(c)])
    assert code == 0 and out.strip() == "no"


def test_congruent_kind_mismatch_prints_no(tmp_path):
    a = tmp_path / "a.prob"
    b = tmp_path / "b.prob"
    a.write_text("p = 5\nA = [ [ 1, 0 ], [ 0, 1 ] ]\n")
    b.write_text("p = 5\nA = [ [ t, 0 ], [ 0, t ] ]\n")  # t * identity: skew
    code, out, _ = run_cli(["congruent", str(a), str(b)])
    assert code == 0 and out.strip() == "no"


def test_random_command_deterministic(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    args = ["random", "--seed", "11", "--p", "5", "--n", "3",
            "--epsilon", "-1", "--count", "2", "--moves", "4"]
    code, _, _ = run_cli(args + ["--out", str(d1)])
    assert code == 0
    code, _, _ = run_cli(args + ["--out", str(d2)])
    assert code == 0
    for name in ("inst_0000.prob", "inst_0001.prob", "inst_0000.canon"):
        assert (d1 / name).read_text() == (d2 / name).read_text()
    # generated matrices match the declared epsilon
    tower, eps, A, _ = parse_problem((d1 / "inst_0000.prob").read_text())
    assert eps == -1


def _block_lines(text):
    return [line for line in text.splitlines() if not line.startswith("generator ")]


def test_random_instances_parse_and_canonicalize(tmp_path):
    # the canonical text of a scrambled instance is its generated ground truth
    for k, spec in enumerate((["--seed", "3", "--p", "3", "--n", "2", "--epsilon", "+1"],
                              ["--seed", "3", "--p", "5", "--n", "4", "--epsilon", "-1"])):
        d = tmp_path / f"r{k}"
        d.mkdir()
        code, _, _ = run_cli(["random", *spec, "--count", "1", "--out", str(d)])
        assert code == 0
        code, out, _ = run_cli(["canonical", str(d / "inst_0000.prob")])
        assert code == 0
        assert _block_lines(out) == _block_lines((d / "inst_0000.canon").read_text())


def test_input_error_exit_code(tmp_path):
    code, _, err = run_cli(["invariants", str(tmp_path / "missing.prob")])
    assert code == 2
    bad = tmp_path / "bad.prob"
    bad.write_text("p = 5\nA = [ [ x ] ]\n")
    code, _, err = run_cli(["invariants", str(bad)])
    assert code == 2
    # the first prime above 2^24: F_p coordinates no longer fit a slot of
    # the element-cache keys; under a memory limit, since such a Tower once
    # built a p x p table
    big = tmp_path / "big.prob"
    big.write_text("p = 16777259\nA = [ [ t ] ]\n")
    code, _, err = run_cli(["invariants", str(big)],
                           preexec_fn=_limit_address_space)
    assert code == 2
    assert "2^24" in err


def test_selftest_quick():
    code, out, _ = run_cli(["selftest", "--budget-seconds", "5", "--seed", "4"])
    assert code == 0
    assert "selftest passed" in out


_WRONG_STAR_UNDER_O = """
import sys
if __debug__:
    sys.exit("not running under python -O")
from starform import cli
from starform.starpoly import StarPoly

good = StarPoly.star
StarPoly.star = lambda self: good(self) + StarPoly.one(self.tower)
sys.exit(cli.main(["selftest", "--budget-seconds", "5", "--seed", "4"]))
"""


def test_selftest_fails_under_python_O():
    # a broken law must fail the selftest even with asserts compiled out
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_STAR_UNDER_O],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("selftest FAILED: star: "), proc.stderr
    assert "passed" not in proc.stdout
