"""Request lists of the three benchmark workloads.

A request is a ``(label, subcommand, params)`` triple; ``params`` holds the
string flags that ``trace_lab.cli.CommandRequest`` takes.  A pass is one
full request list.  ``build_pass(workload, seed, index)`` depends only on
its arguments, so the same seed gives the same passes on every run.
"""
from __future__ import annotations

import random
from fractions import Fraction

Request = tuple[str, str, dict[str, str]]

WORKLOADS = ("paper_battery", "torus_small_t", "adelic_diagonal")

# Generated rationals come from a fixed pool whose seed-commit results are
# recorded in the reference snapshot; a seed picks a permutation of it, and
# successive passes walk that permutation, so no rational repeats within a
# run until the pool is used up (POOL_SIZE / PER_PASS passes).
POOL_SIZE = 1024
PER_PASS = 9

_PRIMES = tuple(
    n for n in range(2, 1000) if all(n % d for d in range(2, int(n**0.5) + 1))
)


def paper_requests() -> list[Request]:
    """The requests of `reproduce-paper`, in its order, with its labels.

    This is a copy of the CLI's own list; ``check_paper_list`` in
    ``reference.py`` compares the two outputs on every paper_battery run.
    """
    reqs: list[Request] = []
    for tv in ("0.1", "0.25", "0.5", "1", "2", "4", "10"):
        reqs.append((f"theta[t={tv}]", "theta", {"t": tv}))
    reqs.append(("theta-integral", "theta-integral", {}))
    s_grid = ",".join(f"0.{k}" for k in range(1, 10))
    for pv in ("2", "3", "5"):
        reqs.append((f"gamma[p={pv}]", "padic-gamma", {"p": pv, "s": s_grid, "mode": "both"}))
    for pv in ("2", "3", "5"):
        for gv in ("1/2", "1", "2"):
            for tauv in ("1/2", "1", "2"):
                reqs.append(
                    (
                        f"radial[p={pv},gamma={gv},tau={tauv}]",
                        "padic-integral",
                        {"p": pv, "gamma": gv, "tau": tauv, "domain": "both"},
                    )
                )
    reqs.append(
        (
            "haar-mc",
            "mc-haar",
            {"p": "2", "count": "1000000", "seed": "20260814", "gamma": "1", "tau": "1"},
        )
    )
    for pv in ("2", "3", "5"):
        p = int(pv)
        x_grid = f"1/{p * p},1/{p},1,{p},{p * p}"
        for gv in ("1/2", "1", "2"):
            for ctv in ("1/2", "1", "2"):
                label = f"p={pv},gamma={gv},Ct={ctv}"
                reqs.append(
                    (
                        f"density[{label}]",
                        "padic-density",
                        {"p": pv, "gamma": gv, "C": ctv, "t": "1", "x": x_grid, "method": "both"},
                    )
                )
                reqs.append(
                    (f"mass[{label}]", "padic-mass", {"p": pv, "gamma": gv, "C": ctv, "t": "1"})
                )
    reqs.append(("trace-gauss", "trace-check", {"kind": "gaussian", "t": "0.1,0.5,1,4"}))
    reqs.append(
        ("trace-cauchy", "trace-check", {"kind": "stable", "alpha": "1", "sigma": "1", "t": "1"})
    )
    reqs.append(
        (
            "trace-stable",
            "trace-check",
            {"kind": "stable", "alpha": "1.5", "sigma": "1", "t": "1", "tol": "1e-6"},
        )
    )
    reqs.append(("potential[alpha=1.5]", "potential-identity", {"alpha": "1.5", "sigma": "1"}))
    reqs.append(("potential[gaussian]", "potential-identity", {"kind": "gaussian"}))
    reqs.append(("potential[alpha=0.8]", "potential-identity", {"alpha": "0.8", "sigma": "1"}))
    reqs.append(("cauchy[paper]", "cauchy-report", {"convention": "paper"}))
    reqs.append(("cauchy[consistent]", "cauchy-report", {"convention": "consistent"}))
    reqs.append(("rr", "rr-check", {}))
    reqs.append(("char-sum[direct]", "char-sum", {"mode": "direct"}))
    reqs.append(("char-sum[bound]", "char-sum", {"mode": "paper_bound"}))
    return reqs


def torus_requests() -> list[Request]:
    """Real-line and torus requests: spectral sums at small t, no p-adic code."""
    reqs: list[Request] = []
    for d in (1, 2, 3):
        # d = 1 and t = 1 converge in a few terms, so a change that slows
        # tiny sums shows; d = 3 at t <= 0.01 hits max_terms (exit 3)
        ts = ("1",) if d == 1 else ("0.005", "0.01", "0.02", "0.03", "0.05", "0.1", "1")
        for t in ts:
            reqs.append((f"trace[d={d},t={t}]", "trace-check", {"kind": "gaussian", "d": str(d), "t": t}))
            reqs.append(
                (
                    f"psf[d={d},t={t}]",
                    "psf-check",
                    {"kind": "gaussian", "d": str(d), "t": t, "x": ",".join(["0"] * d)},
                )
            )
    for a in ("1", "1.2", "1.5", "1.9"):
        for t in ("0.1", "1", "4"):
            reqs.append(
                (f"trace-stable[alpha={a},t={t}]", "trace-check", {"kind": "stable", "alpha": a, "t": t})
            )
    for a in ("0.5", "0.8", "1.2", "1.5", "1.9"):
        reqs.append((f"psf-stable[alpha={a}]", "psf-check", {"kind": "stable", "alpha": a}))
        reqs.append((f"potential[alpha={a}]", "potential-identity", {"alpha": a}))
    reqs.append(("theta", "theta", {"t": "0.5"}))
    reqs.append(("theta-integral", "theta-integral", {}))
    reqs.append(("cauchy[paper]", "cauchy-report", {"convention": "paper"}))
    reqs.append(("cauchy[consistent]", "cauchy-report", {"convention": "consistent"}))
    return reqs


def adelic_fixed_requests() -> list[Request]:
    """The six heavy adelic requests repeated in every pass."""
    reqs: list[Request] = [
        (f"char-sum[S={s}]", "char-sum", {"mode": "direct", "S": s}) for s in ("2", "3", "2,3", "2,3,5")
    ]
    reqs.append(("rr-product", "rr-check", {"parts": "product", "count": "2000"}))
    reqs.append(("rr-reduction", "rr-check", {"parts": "reduction"}))
    return reqs


def _pool_rational(rng: random.Random) -> tuple[Fraction, tuple[int, ...]]:
    """A random nonzero rational with its prime support, known by construction."""
    primes = rng.sample(_PRIMES, rng.randint(2, 5))
    split = rng.randint(0, len(primes))
    num = rng.choice((-1, 1))
    den = 1
    for i, p in enumerate(primes):
        power = p ** rng.randint(1, 3)
        if i < split:
            num *= power
        else:
            den *= power
    return Fraction(num, den), tuple(sorted(primes))


def _diagonal_flag(q: Fraction, support: tuple[int, ...]) -> str:
    text = f"{q.numerator}/{q.denominator}"
    return ",".join([f"inf={text}"] + [f"{p}={text}" for p in support] + [f"fill={text}"])


def pool_requests(index: int) -> list[Request]:
    """Pool entry ``index``: one `idele-norm` and one `adele-eval --side char`
    on diagonal embeddings of three generated rationals."""
    rng = random.Random(f"adelic-pool:{index}")
    q, _ = _pool_rational(rng)
    x, x_support = _pool_rational(rng)
    y, y_support = _pool_rational(rng)
    return [
        (f"idele-norm[{index}]", "idele-norm", {"diagonal": f"{q.numerator}/{q.denominator}"}),
        (
            f"adele-char[{index}]",
            "adele-eval",
            {"side": "char", "x": _diagonal_flag(x, x_support), "y": _diagonal_flag(y, y_support)},
        ),
    ]


def build_pass(workload: str, seed: int, index: int) -> list[Request]:
    """Pass ``index`` of ``workload`` under ``seed``, in the order it is sent."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "paper_battery":
        reqs = paper_requests()
    elif workload == "torus_small_t":
        reqs = torus_requests()
    elif workload == "adelic_diagonal":
        order = random.Random(f"{workload}:{seed}").sample(range(POOL_SIZE), POOL_SIZE)
        reqs = adelic_fixed_requests()
        for k in range(PER_PASS):
            reqs += pool_requests(order[(index * PER_PASS + k) % POOL_SIZE])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def all_requests(workload: str) -> list[Request]:
    """Every distinct request the workload can send, for the snapshot."""
    if workload == "paper_battery":
        return paper_requests()
    if workload == "torus_small_t":
        return torus_requests()
    if workload == "adelic_diagonal":
        reqs = adelic_fixed_requests()
        for index in range(POOL_SIZE):
            reqs += pool_requests(index)
        return reqs
    raise ValueError(f"unknown workload {workload!r}")
