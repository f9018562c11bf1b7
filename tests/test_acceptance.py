"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` or ``-rA`` to see them).

Criterion 8 is asserted exactly as specified and is expected to fail: with the
fixed parameters (beta=0.75, gamma=2.2) the hockey-stick bound is provably
below the order-2 Hellinger bound for n in {1, 2, 3} (at n=1 the hockey-stick
information is exactly zero, giving 5*0.75^2/66 ~ 0.0426 against 1/18 ~ 0.0556).
The attainable part (dominance from n=4 on, both curves decreasing) is asserted
by its green companion test.
"""

import math
import random
import time
from decimal import Decimal, getcontext

import pytest
from oracles import (
    chi_squared_bernoulli,
    chi_squared_scaled_upper_bound,
    combinatorial_identity_check,
    f_mi_numeric,
    monte_carlo_divergence,
)

from fdivrisk.bounds import (
    hellinger_bound,
    hockey_stick_bound,
    optimize_parameters,
    optimize_rho_closed_form,
)
from fdivrisk.cli import SweepConfig, compute_risk_curve, main
from fdivrisk.divergences import (
    e_beta_gamma_numeric,
    hellinger_divergence,
)
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel
from fdivrisk.numerics import log_comb
from fdivrisk.validation import risk_reports

SEED = 20250811


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} {detail}")


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def test_criterion_1_bernoulli_chi_squared_bound():
    start = time.time()
    worst = 0.0
    floor_ok = True
    for n in range(1, 51):
        scaled = chi_squared_bernoulli(BernoulliModel(n))
        engine = hellinger_bound(2.0, scaled, 2.0).value
        closed = (2.0 / 27.0) / scaled.value
        worst = max(worst, rel_err(engine, closed))
        floor_ok = floor_ok and engine >= 7.0 / (72.0 * math.sqrt(math.pi * n))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and floor_ok and elapsed < 1.0
    report(1, ok, f"worst rel err {worst:.2e}, floor ok {floor_ok}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert floor_ok
    assert elapsed < 1.0


def test_criterion_2_gaussian_three_halves_bound():
    start = time.time()
    sw2, s2 = 1.0, 2.0
    c = 2.0 / math.sqrt(2.0 * math.pi * sw2)
    worst_closed = worst_gap = 0.0
    floor_ok = True
    for n in range(1, 51):
        scaled = hellinger_divergence(GaussianModel(n, sw2, s2), 1.5)
        engine = hellinger_bound(1.5, scaled, c).value
        # exact maximisation gives 27 sqrt(2 pi sw2) / 512 / scaled^2
        closed = 27.0 * math.sqrt(2.0 * math.pi * sw2) / 512.0 / scaled.value**2
        worst_closed = max(worst_closed, rel_err(engine, closed))
        r = n * sw2 / s2
        floor = 81.0 * math.sqrt(2.0 * math.pi) / 2048.0 * math.sqrt(sw2 / (1.0 + r))
        floor_ok = floor_ok and engine >= floor
        # the slack in the final weakening is exactly (4/3)(1 + 3r/4)/(1 + r)
        gap = engine / floor
        algebra = (4.0 / 3.0) * (1.0 + 0.75 * r) / (1.0 + r)
        worst_gap = max(worst_gap, rel_err(gap, algebra))
    elapsed = time.time() - start
    ok = worst_closed <= 1e-10 and worst_gap <= 1e-10 and floor_ok and elapsed < 1.0
    report(
        2,
        ok,
        f"closed-form rel err {worst_closed:.2e}, gap-algebra rel err {worst_gap:.2e}, {elapsed:.2f}s",
    )
    assert worst_closed <= 1e-10
    assert worst_gap <= 1e-10
    assert floor_ok
    assert elapsed < 1.0


def test_criterion_3_closed_form_vs_quadrature():
    start = time.time()
    worst_bernoulli = 0.0
    for n in range(1, 11):
        model = BernoulliModel(n)
        for p in (1.5, 2.0, 3.0):
            closed = hellinger_divergence(model, p).value
            quad = f_mi_numeric(model, Hellinger(p)).value
            worst_bernoulli = max(worst_bernoulli, rel_err(closed, quad))
    worst_gaussian = 0.0
    for sw2, s2 in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
        model = GaussianModel(1, sw2, s2)
        for p in (1.5, 2.0):
            closed = hellinger_divergence(model, p).value
            quad = f_mi_numeric(model, Hellinger(p)).value
            worst_gaussian = max(worst_gaussian, rel_err(closed, quad))
    elapsed = time.time() - start
    ok = worst_bernoulli <= 1e-8 and worst_gaussian <= 1e-6 and elapsed < 30.0
    report(
        3,
        ok,
        f"bernoulli rel err {worst_bernoulli:.2e}, gaussian rel err {worst_gaussian:.2e}, {elapsed:.1f}s",
    )
    assert worst_bernoulli <= 1e-8
    assert worst_gaussian <= 1e-6
    assert elapsed < 30.0


def test_criterion_4_hockey_stick_instances():
    start = time.time()
    beta, gamma = 0.75, 2.2
    worst = 0.0
    for n in range(1, 51):
        b_model = BernoulliModel(n)
        e_b = e_beta_gamma_numeric(b_model, beta, gamma)
        engine = hockey_stick_bound(beta, gamma, e_b, 2.0).value
        formula = 5.0 * (beta - e_b.value) ** 2 / 66.0
        worst = max(worst, rel_err(engine, formula))

        g_model = GaussianModel(n, 1.0, 2.0)
        e_g = e_beta_gamma_numeric(g_model, beta, gamma)
        c = g_model.small_ball_coefficient()
        engine_g = hockey_stick_bound(beta, gamma, e_g, c).value
        formula_g = 5.0 * math.sqrt(2.0 * math.pi * 1.0) * (beta - e_g.value) ** 2 / 66.0
        worst = max(worst, rel_err(engine_g, formula_g))

    mc_ok = True
    details = []
    for n in (1, 5, 10):
        for model in (BernoulliModel(n), GaussianModel(n, 1.0, 2.0)):
            engine = e_beta_gamma_numeric(model, beta, gamma)
            mc = monte_carlo_divergence(model, HockeyStick(beta, gamma), 10**7, seed=SEED + n)
            gap = abs(engine.value - mc.value)
            band = 3.0 * mc.error_estimate + engine.error_estimate
            mc_ok = mc_ok and gap <= band
            details.append(f"n={n}:{gap:.1e}<={band:.1e}")
    elapsed = time.time() - start
    ok = worst <= 1e-10 and mc_ok and elapsed < 120.0
    report(4, ok, f"formula rel err {worst:.2e}, MC bands {'ok' if mc_ok else 'VIOLATED'}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert mc_ok, details
    assert elapsed < 120.0


def test_criterion_5_soundness_against_risk_oracle():
    start = time.time()
    failures = []
    models = [m for n in range(1, 51) for m in (BernoulliModel(n), GaussianModel(n, 1.0, 2.0))]
    # The oracle of model m draws with seed SEED + m.n, on worker threads
    # while this thread runs the parameter searches.
    for model, (risk, std_err) in zip(models, risk_reports(models, samples=10**6, seed=SEED)):
        coeff = model.small_ball_coefficient()
        p = 2.0 if isinstance(model, BernoulliModel) else 1.5
        results = [
            hellinger_bound(p, hellinger_divergence(model, p), coeff),
            hockey_stick_bound(0.75, 2.2, e_beta_gamma_numeric(model, 0.75, 2.2), coeff),
            optimize_parameters(model, "hellinger"),
            optimize_parameters(model, "hockey_stick"),
        ]
        ceiling = risk + 3.0 * std_err
        for result in results:
            if result.value > ceiling:
                failures.append((model, result.generator, result.value, ceiling))
    elapsed = time.time() - start
    ok = not failures and elapsed < 120.0
    report(5, ok, f"{len(failures)} violations over 400 bounds, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 120.0


def test_criterion_6_appendix_identities():
    start = time.time()
    identity_ok = all(combinatorial_identity_check(n) for n in range(0, 51))
    envelope_ok = True
    bracket_ok = True
    for n in range(1, 10**4 + 1):
        scaled = math.exp(
            math.log(n + 1.0)
            - math.log(2.0 * n + 1.0)
            + n * math.log(4.0)
            - (math.lgamma(2 * n + 1.0) - 2.0 * math.lgamma(n + 1.0))
        )
        envelope_ok = envelope_ok and scaled <= chi_squared_scaled_upper_bound(n)
        # 4^n / C(2n,n) <= (8/7) sqrt(pi n); the literal inverted form
        # C(2n,n) >= (8/7) 4^n / sqrt(pi n) is false for every n.
        lhs = n * math.log(4.0) - log_comb(2 * n, n)
        bracket_ok = bracket_ok and lhs <= math.log(8.0 / 7.0) + 0.5 * math.log(math.pi * n)
    big_n = 10**4
    ratio = chi_squared_bernoulli(BernoulliModel(big_n)).value / (0.5 * math.sqrt(math.pi * big_n))
    stirling_ok = abs(ratio - 1.0) <= 1e-3
    elapsed = time.time() - start
    ok = identity_ok and envelope_ok and bracket_ok and stirling_ok and elapsed < 5.0
    report(
        6,
        ok,
        f"identity {identity_ok}, envelope {envelope_ok}, bracket {bracket_ok}, "
        f"stirling ratio {ratio:.6f}, {elapsed:.1f}s",
    )
    assert identity_ok and envelope_ok and bracket_ok and stirling_ok
    assert elapsed < 5.0


def _golden_max_high_precision(c: float, t: float, b: float) -> tuple[float, float]:
    """Golden-section maximisation of rho (1 - c rho^t - b) in 30-digit
    arithmetic; comparison ties near the flat maximum start far below the
    1e-10 comparison level this oracle certifies.

    The search runs over u = ln rho, where the objective e^u (1 - b - c e^(t u))
    is unimodal as well, so each step costs two ``exp`` calls and no ``ln``
    (the slow one in ``decimal``). The bracket [ln hi - 40, ln hi], hi being
    the root of the objective, holds the maximiser (it lies above hi / e); it
    ends narrower than 1e-14 in u, i.e. 1e-14 relative in rho."""
    getcontext().prec = 30
    one = Decimal(1)
    cc, tt, bb = Decimal(repr(c)), Decimal(repr(t)), Decimal(repr(b))

    def h(u: Decimal) -> Decimal:
        return u.exp() * (one - bb - cc * (u * tt).exp())

    hi = ((one - bb) / cc).ln() / tt
    lo = hi - 40
    inv_phi = (Decimal(5).sqrt() - 1) / 2
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = h(x1), h(x2)
    tol = Decimal("1e-14")
    for _ in range(120):
        if hi - lo <= tol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = h(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = h(x1)
    u = (lo + hi) / 2
    return float(u.exp()), float(h(u))


def test_criterion_7_rho_optimizer_against_golden_section():
    start = time.time()
    rng = random.Random(SEED)
    worst_rho = worst_val = 0.0
    for _ in range(1000):
        c = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        t = rng.uniform(0.1, 3.0)
        b = rng.uniform(0.0, 0.95)
        rho_c, val_c = optimize_rho_closed_form(c, t, b)
        rho_g, val_g = _golden_max_high_precision(c, t, b)
        worst_rho = max(worst_rho, rel_err(rho_c, rho_g))
        worst_val = max(worst_val, rel_err(val_c, val_g))
    elapsed = time.time() - start
    ok = worst_rho <= 1e-10 and worst_val <= 1e-10 and elapsed < 5.0
    report(7, ok, f"rho rel err {worst_rho:.2e}, value rel err {worst_val:.2e}, {elapsed:.1f}s")
    assert worst_rho <= 1e-10
    assert worst_val <= 1e-10
    assert elapsed < 5.0


def _figure_curve() -> tuple[list[float], list[float]]:
    config = SweepConfig(
        model="bernoulli",
        n_lo=1,
        n_hi=50,
        families=("hellinger", "hockey_stick"),
        sigma_w_sq=1.0,
        sigma_sq=2.0,
        p=2.0,
        beta=0.75,
        gamma=2.2,
        optimize=False,
        oracle=False,
        samples=10**6,
        seed=SEED,
    )
    curve = compute_risk_curve(config)
    return (
        [row.hellinger for row in curve.rows],
        [row.hockey_stick for row in curve.rows],
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "fixed-parameter dominance is provably false at n in {1, 2, 3}: the "
        "hockey-stick information vanishes there (max density ratio n+1 stays "
        "below gamma/beta) while the order-2 Hellinger bound is larger"
    ),
)
def test_criterion_8_figure_dominance_as_specified():
    hellinger, hockey = _figure_curve()
    dominance = all(hs >= h for h, hs in zip(hellinger, hockey))
    decreasing = all(a >= b for a, b in zip(hellinger, hellinger[1:])) and all(
        a >= b for a, b in zip(hockey, hockey[1:])
    )
    report(8, dominance and decreasing, f"dominance for all n: {dominance}, decreasing: {decreasing}")
    assert dominance and decreasing


def test_criterion_8_attainable_part():
    start = time.time()
    hellinger, hockey = _figure_curve()
    decreasing = all(a >= b for a, b in zip(hellinger, hellinger[1:])) and all(
        a >= b for a, b in zip(hockey, hockey[1:])
    )
    dominance_from_4 = all(hs >= h for h, hs in zip(hellinger[3:], hockey[3:]))
    # The three small-n violations are a property of the fixed parameters,
    # not an engine artefact; pin them so a regression cannot hide here.
    early_violation = all(hs < h for h, hs in zip(hellinger[:3], hockey[:3]))
    elapsed = time.time() - start
    ok = decreasing and dominance_from_4 and early_violation and elapsed < 120.0
    report(
        8,
        ok,
        f"decreasing {decreasing}, dominance n>=4 {dominance_from_4}, "
        f"known n<=3 exception {early_violation}, {elapsed:.1f}s (attainable part)",
    )
    assert decreasing and dominance_from_4 and early_violation
    assert elapsed < 120.0


def test_criterion_9_determinism(tmp_path):
    sweep_args = [
        "sweep",
        *["--model", "bernoulli", "--n-range", "1..6", "--oracle"],
        *["--samples", "50000", "--seed", str(SEED)],
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(sweep_args + ["--csv", str(a)])
    code_b = main(sweep_args + ["--csv", str(b)])
    identical = a.read_bytes() == b.read_bytes()

    validate_args = [
        "validate",
        *["--model", "bernoulli", "--n-range", "1..3", "--samples", "50000", "--seed", str(SEED)],
    ]
    first = main(list(validate_args))
    second = main(list(validate_args))
    ok = identical and code_a == code_b == 0 and first == second
    report(9, ok, f"csv identical {identical}, validate exits {first}=={second}")
    assert identical
    assert code_a == code_b == 0
    assert first == second
