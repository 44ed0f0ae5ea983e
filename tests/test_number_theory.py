"""Bounded time on big integers, and invariants that survive `python -O`.

Trial division over these 10- to 60-digit integers does not finish;
under a one-second deadline a regression to it fails here instead of
hanging the suite.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from qdulac import cli
from qdulac.algebra import q_log, q_pow, rational_roots
from qdulac.cli import EXIT_OK, main
from qdulac.errors import InternalInvariantError, IrrationalQPowerError, QDulacError

F = Fraction

P = 10**9 + 7
# 20-digit primes: products and powers of them have no small factors
P20 = 10**19 + 51
Q20 = 10**19 + 87


def test_q_log_large_prime_q(deadline):
    with deadline(1):
        assert q_log(F(1, P), F(1, P**2)) == 2
        assert q_log(F(1, P), P**3) == -3
        assert q_log(F(1, P), F(1, P + 2)) is None


def test_rational_roots_smooth_constant(deadline):
    n = 2**20 * 3**10
    with deadline(1):
        assert rational_roots([-(2**40 * 3**20), 0, 1]) == [(F(-n), 1), (F(n), 1)]


def test_truncate_large_smooth_coefficient(deadline, tmp_path, capsys):
    path = tmp_path / "eq.qde"
    path.write_text("y^2 - 3^40*y + x = 0\n", encoding="utf-8")
    with deadline(1):
        code = main(["truncate", "--eq", str(path), "--q", "1/2", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    cs = [
        cand["c"]
        for face in doc["faces"]
        for cand in face["candidates"]
    ]
    assert [{"coef": str(3**40), "monomial": {}}] in cs


def test_q_pow_huge_root_index_is_irrational(deadline):
    with deadline(1):
        with pytest.raises(IrrationalQPowerError):
            q_pow(F(1, 2), F(1, 10**6))
        assert q_pow(1, F(1, 10**6)) == 1


def test_sixty_digit_perfect_powers(deadline):
    base = F(P20, Q20)  # base**3 has 58 digits above and below
    with deadline(1):
        assert q_pow(base**3, F(2, 3)) == base**2
        assert q_pow(base**3, F(-5, 3)) == base**-5
        with pytest.raises(IrrationalQPowerError):
            q_pow(base**3 * 2, F(1, 3))
        with pytest.raises(IrrationalQPowerError):
            q_pow(F(P20 * Q20 * 7), F(1, 2))
        assert q_log(base**3, base**5) == F(5, 3)
        assert q_log(base**6, 1 / base**4) == F(-2, 3)
        assert q_log(base**3, base**2 * 2) is None
        assert q_log(F(2**199), F(1, 2**398)) == -2
        assert q_log(F(P20**3), F(P20**2, Q20**2)) is None


def test_sixty_digit_rational_roots(deadline):
    a, b = F(P20 * Q20, 7 * P20 + 1), F(-(Q20**3), P20)
    coeffs = [F(1)]
    for root in (a, b, b):
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    with deadline(1):
        assert rational_roots(coeffs) == sorted([(a, 1), (b, 2)])


def _run_optimized(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-O", "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_deflation_invariant_survives_optimize():
    proc = _run_optimized(
        "import sys\n"
        "from fractions import Fraction\n"
        "from qdulac.algebra import _deflate\n"
        "from qdulac.errors import InternalInvariantError\n"
        "if sys.flags.optimize != 1:\n"
        "    sys.exit('not optimized')\n"
        "try:\n"
        "    _deflate([1, 0, 1], Fraction(1))\n"
        "except InternalInvariantError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('deflation by a non-root passed')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "non-root" in proc.stdout


def test_injected_solver_bug_exits_3_under_optimize(tmp_path):
    path = tmp_path / "main.qde"
    path.write_text(
        "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
        " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2 = 0\n",
        encoding="utf-8",
    )
    # a difference operator that is off by one: every solve fails its check
    proc = _run_optimized(
        "import sys\n"
        "from qdulac import cli, expand\n"
        "from qdulac.algebra import TPoly\n"
        "real = expand.apply_difference_operator\n"
        "expand.apply_difference_operator = lambda *a: real(*a) + TPoly.const(1)\n"
        "sys.exit(cli.main(['expand', '--eq', sys.argv[1], '--params', 'a3,a4',\n"
        "                   '--q', '1/2', '--kmax', '2']))\n",
        str(path),
    )
    assert proc.returncode == QDulacError.exit_code, proc.stderr
    assert "difference solve failed to verify" in proc.stderr


def test_internal_invariant_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "eq.qde"
    path.write_text("y^2 - 3*y + x = 0\n", encoding="utf-8")

    def broken(*args, **kwargs):
        raise InternalInvariantError("injected")

    monkeypatch.setattr(cli, "analyze_face", broken)
    code = main(["truncate", "--eq", str(path), "--q", "1/2"])
    assert code == QDulacError.exit_code
    assert "injected" in capsys.readouterr().err
