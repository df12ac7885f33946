"""Each prime is checked once, where it enters: the laws, specs and place
maps that hold a prime, and the public p-adic functions that take one."""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from trace_lab import adeles, core, padic
from trace_lab.adeles import AdelePoint, BruhatSchwartzSpec, FiniteFactor, Idele, gaussian_factor
from trace_lab.cli import CommandRequest, main, run_request
from trace_lab.core import PROVEN_PRIME_LIMIT, ParameterError, is_prime
from trace_lab.padic import char_qp, frac_part, padic_norm, prime_support, valuation
from trace_lab.semistable import SemistableLaw

# 2^89 - 1 is a Mersenne prime past the proven range of the primality test
_M89 = 2**89 - 1
assert _M89 >= PROVEN_PRIME_LIMIT
BAD_PRIMES = [4, 91, _M89]

_LAW_2 = SemistableLaw(2, 1.0, 1.0)

ENTRY_POINTS = {
    "SemistableLaw": lambda p: SemistableLaw(p, 1.0, 1.0),
    "Idele": lambda p: Idele(1.0, {p: Fraction(1)}),
    "AdelePoint": lambda p: AdelePoint(0.0, {p: Fraction(1)}),
    "AdelePoint.from_dict": lambda p: AdelePoint.from_dict({"inf": "0", str(p): "1"}),
    "Idele.from_dict": lambda p: Idele.from_dict({"inf": "1", str(p): "1"}),
    "BruhatSchwartzSpec": lambda p: BruhatSchwartzSpec(
        gaussian_factor(1.0), {p: FiniteFactor(_LAW_2, 1.0)}
    ),
    "valuation": lambda p: valuation(Fraction(1, 3), p),
    "padic_norm": lambda p: padic_norm(Fraction(1, 3), p),
    "frac_part": lambda p: frac_part(Fraction(1, 3), p),
    "char_qp": lambda p: char_qp(Fraction(1), Fraction(1, 3), p),
}


@pytest.mark.parametrize("p", BAD_PRIMES, ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_a_non_prime_or_unproven_p(entry, p):
    with pytest.raises(ParameterError, match="must be a prime|outside the proven range"):
        ENTRY_POINTS[entry](p)


CLI_REQUESTS = [
    ["padic-density", "--p", "{p}", "--gamma", "1", "--x", "1"],
    ["padic-mass", "--p", "{p}", "--gamma", "1"],
    ["idele-norm", "--a", "inf=1,{p}=1/3"],
    ["adele-eval", "--side", "char", "--x", "inf=0,{p}=1/3", "--y", "inf=1,fill=1"],
    ["adele-eval", "--side", "density", "--x", "inf=0,{p}=1/3"],
    ["adele-eval", "--side", "density", "--S", "{p}", "--x", "inf=0"],
    ["char-sum", "--mode", "direct", "--S", "{p}", "--heights", "4"],
    ["rr-check", "--parts", "scaling", "--a", "inf=2,{p}=1/3", "--grid-points", "1"],
]


@pytest.mark.parametrize("p", BAD_PRIMES, ids=str)
@pytest.mark.parametrize("argv", CLI_REQUESTS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_exits_2_on_a_non_prime_or_unproven_p(argv, p, capsys):
    # the same request at p = 3 succeeds, so exit 2 comes from p
    assert main([a.replace("{p}", "3") for a in argv]) == 0
    capsys.readouterr()
    assert main([a.replace("{p}", str(p)) for a in argv]) == 2
    assert str(p) in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


def test_rr_product_checks_each_listed_prime_once(monkeypatch):
    listed: list[int] = []
    checked: list[int] = []

    def listing_prime_support(q):
        out = prime_support(q)
        listed.extend(out)
        return out

    def counting_is_prime(n):
        checked.append(n)
        return is_prime(n)

    monkeypatch.setattr(adeles, "prime_support", listing_prime_support)
    monkeypatch.setattr(core, "is_prime", counting_is_prime)
    monkeypatch.setattr(padic, "is_prime", counting_is_prime, raising=False)
    code, _ = run_request(CommandRequest("rr-check", {"parts": "product", "count": "200"}))
    assert code == 0
    assert len(listed) > 200
    assert Counter(checked) <= Counter(listed)


def test_adele_char_checks_each_listed_prime_once(monkeypatch):
    # the x and y of one adelic_diagonal benchmark request: 19 and 439 are
    # listed in x, 251 and 281 in y, each checked where the point is built
    checked: list[int] = []

    def counting_is_prime(n):
        checked.append(n)
        return is_prime(n)

    monkeypatch.setattr(core, "is_prime", counting_is_prime)
    monkeypatch.setattr(padic, "is_prime", counting_is_prime)
    x = "30542231359/1"
    y = "1/70531"
    params = {
        "side": "char",
        "x": f"inf={x},19={x},439={x},fill={x}",
        "y": f"inf={y},251={y},281={y},fill={y}",
    }
    code, _ = run_request(CommandRequest("adele-eval", params))
    assert code == 0
    assert sorted(checked) == [19, 251, 281, 439]
