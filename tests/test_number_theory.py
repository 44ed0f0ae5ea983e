"""Bounded time on big integers, and invariants that survive `python -O`.

Trial division over these 10- to 60-digit integers does not finish, and
a bisection as deep as the bit length of 4,000-digit roots takes
seconds; under a deadline a regression to either fails here instead of
hanging the suite.
"""

import json
import math
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


def test_four_thousand_digit_q(deadline):
    # the Newton root starts at a float estimate, and only prime root
    # indices are tried, so the ~1,700 primes below 14,600 bits are quick
    n = (10**4400 - 1) // 3
    with deadline(2):
        assert q_log(F(1, n), 2) is None
        assert rational_roots([n, 1 - 2 * n]) == [(F(n, 2 * n - 1), 1)]


def test_four_thousand_digit_roots(deadline):
    # a bisection over the Cauchy bound takes about 13,300 steps here
    n = (10**4000 - 1) // 3
    with deadline(1):
        assert rational_roots([n, -(n + 1), 1]) == [(F(1), 1), (F(n), 1)]


def test_roots_that_agree_modulo_small_primes(deadline):
    # s*(s - M)*(s - 2M) for M the product of the primes below 10,000 (14,277
    # bits): its roots meet modulo each of those primes, so the first prime
    # at which they stay apart is 10,007
    primes = [p for p in range(2, 10**4) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    m = math.prod(primes)
    assert m.bit_length() == 14277
    with deadline(3):
        roots = rational_roots([0, 2 * m * m, -3 * m, 1])
    assert roots == [(F(0), 1), (F(m), 1), (F(2 * m), 1)]


def test_injected_solver_bug_exits_3_under_optimize(tmp_path):
    path = tmp_path / "main.qde"
    path.write_text(
        "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
        " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2 = 0\n",
        encoding="utf-8",
    )
    # a difference operator that is off by one: every solve fails its check
    code = (
        "import sys\n"
        "from qdulac import cli, expand\n"
        "from qdulac.algebra import TPoly\n"
        "real = expand.apply_difference_operator\n"
        "expand.apply_difference_operator = lambda *a: real(*a) + TPoly.const(1)\n"
        "sys.exit(cli.main(['expand', '--eq', sys.argv[1], '--params', 'a3,a4',\n"
        "                   '--q', '1/2', '--kmax', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
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
