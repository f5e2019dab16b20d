"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py -v`` to see
them as they execute).

Criterion 2 is split in three.  2b checks that the analytic constants
1 - 1/sqrt(2) and sqrt(2) - 1 are the limits that the Catalan partial sums
a_0..a_60 and b_0..b_60 reach.  These sums are pinned to the period-average
maps by 2a; they are alternating series whose terms shrink like k^(-1/2) (a)
and k^(-3/2) (b), so the raw k = 60 sums still sit ~3.6e-2 and ~2.9e-4 from
their limits.  2b therefore applies its 1e-8 bound to the Euler
(van Wijngaarden) transform of the 61 partial sums, and pins the documented
rate separately: each raw k = 60 gap lies in its Leibniz bracket
[t_61 - t_62, t_61], and sqrt(61) * gap_a and 61^(3/2) * gap_b lie within 2%
of their asymptotic values 1/(2 sqrt(pi)) and 1/(4 sqrt(pi)).
"""

import json
import math
import time

import numpy as np
import pytest

import memoryflow as mf
from memoryflow.cli import main as cli_main
from memoryflow.harmonic import (
    CATALAN_LIMIT_A,
    CATALAN_LIMIT_B,
    ENGINE_AGREEMENT_TOL,
    catalan,
    catalan_coeffs,
    identity_series,
    integrate_series_against_spectrum,
    series_from_transfer,
    series_multiply,
)
from memoryflow.openwalk import discrete_filter, filtered_density
from memoryflow.walk import INTEGRAL_RECURSION_TOL, walk_evolve

SIGMA = 1.0
MU1 = 15.0
DELTA_OMEGA = 9.0 * SIGMA
DELTA_N = 0.009
T_REVIVAL = 2.0 * math.pi / (DELTA_OMEGA * DELTA_N)
PAIR_DIRECTION = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)

#: the oracle's 40-step scale point: the dilation past fig4's 10 steps with K
#: up to 64, and the quadrature engine's panel orders against the series
#: engine up to power 240
ORACLE_40 = ["oracle", "--set", "oracle.max_steps=40", "--set", "oracle.n_freqs=[8,16,32,64]",
             "--set", "oracle.engine_max_power=240"]


def spectrum(a):
    return mf.SpectrumParams(a, SIGMA, MU1, DELTA_OMEGA)


def dephasing(dt_factor):
    return mf.DephasingConfig(DELTA_N, dt_factor * T_REVIVAL)


def eigvals_2x2_hermitian(a, b, c):
    """Closed-form eigenvalues of [[a, b], [conj(b), c]]:
    (a + c)/2 -/+ sqrt((a - c)^2 + 4 |b|^2)/2, criterion 9's reference."""
    half_sum = 0.5 * (a + c)
    half_disc = 0.5 * math.sqrt((a - c) ** 2 + 4.0 * abs(b) ** 2)
    return half_sum - half_disc, half_sum + half_disc


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num}: {name}: {status} {detail}".rstrip())


def test_criterion_1_dephasing_revivals():
    start = time.perf_counter()
    sp = spectrum(1.0)
    step = T_REVIVAL / 8.0
    ts = step * np.arange(26)  # [0, 3.2 revival times]
    mags = np.abs(mf.decoherence_function(sp, DELTA_N, ts))
    peak_devs = []
    for i in range(1, len(mags) - 1):
        if mags[i] >= mags[i - 1] and mags[i] >= mags[i + 1] and mags[i] > 0.05:
            m = round(ts[i] / T_REVIVAL)
            peak_devs.append((m, abs(ts[i] - m * T_REVIVAL)))
    target = math.exp(-0.5 * (2.0 * math.pi / 9.0) ** 2)
    closed = abs(mf.decoherence_function(sp, DELTA_N, T_REVIVAL))
    direct = abs(mf.decoherence_by_quadrature(sp, DELTA_N, T_REVIVAL))
    elapsed = time.perf_counter() - start

    ok = (
        {m for m, _ in peak_devs} >= {1, 2, 3}
        and all(dev <= step * (1.0 + 1e-9) for _, dev in peak_devs)
        and abs(closed - target) <= 1e-6
        and abs(direct - target) <= 1e-6
        and elapsed < 1.0
    )
    report(1, "dephasing revivals", ok,
           f"(peaks at m={sorted(m for m, _ in peak_devs)}, "
           f"|kappa(t1)| dev {abs(closed - target):.1e}, {elapsed:.2f}s)")
    assert {m for m, _ in peak_devs} >= {1, 2, 3}
    for m, dev in peak_devs:
        assert dev <= step * (1.0 + 1e-9), f"revival {m} off by {dev / step:.2f} grid steps"
    assert abs(closed - target) <= 1e-6
    assert abs(direct - target) <= 1e-6
    assert elapsed < 1.0


def test_criterion_2a_closed_form_matches_period_average():
    start = time.perf_counter()
    worst = 0.0
    for m in range(41):
        dev = float(np.max(np.abs(
            mf.strong_limit_closed_form(m) - mf.strong_limit_map(0.5, m)
        )))
        worst = max(worst, dev)
    lam1 = np.zeros((3, 3))
    lam1[2, 0] = 1.0
    lam2 = 0.5 * np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    lam3 = 0.5 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    exact = (
        np.array_equal(mf.strong_limit_closed_form(1), lam1)
        and np.array_equal(mf.strong_limit_closed_form(2), lam2)
        and np.array_equal(mf.strong_limit_closed_form(3), lam3)
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and exact and elapsed < 1.0
    report("2a", "closed-form period-average maps", ok,
           f"(max dev {worst:.1e} over m<=40, {elapsed:.2f}s)")
    assert worst < 1e-12
    assert exact
    assert elapsed < 1.0


def euler_sum(partial_sums):
    """Euler (van Wijngaarden) transform: average neighbouring partial sums
    until one value is left."""
    sums = list(partial_sums)
    while len(sums) > 1:
        sums = [0.5 * (x + y) for x, y in zip(sums, sums[1:])]
    return sums[0]


def test_criterion_2b_catalan_limit_convergence_by_k60():
    # The raw partial sums converge only algebraically (see the module
    # docstring), so the 1e-8 bound applies to their Euler sums.  The raw
    # k = 60 gaps pin the rate: a remainder of an alternating series with
    # decreasing terms t_i lies between t_61 - t_62 and t_61.
    coeffs = [catalan_coeffs(k) for k in range(61)]
    euler_gap_a = abs(euler_sum(c.a for c in coeffs) - CATALAN_LIMIT_A)
    euler_gap_b = abs(euler_sum(c.b for c in coeffs) - CATALAN_LIMIT_B)
    gap_a = abs(coeffs[60].a - CATALAN_LIMIT_A)
    gap_b = abs(coeffs[60].b - CATALAN_LIMIT_B)

    def term_a(i):
        return 0.5 * (2 * i + 1) * catalan(i) / 4**i

    def term_b(i):
        return 0.5 * catalan(i) / 4**i

    rate_a = math.sqrt(61.0) * gap_a * 2.0 * math.sqrt(math.pi)
    rate_b = 61.0**1.5 * gap_b * 4.0 * math.sqrt(math.pi)
    bracket_a = term_a(61) - term_a(62) <= gap_a <= term_a(61)
    bracket_b = term_b(61) - term_b(62) <= gap_b <= term_b(61)
    ok = (
        euler_gap_a <= 1e-8 and euler_gap_b <= 1e-8
        and bracket_a and bracket_b
        and abs(rate_a - 1.0) <= 0.02 and abs(rate_b - 1.0) <= 0.02
    )
    report("2b", "coefficient limits reached by k=60", ok,
           f"(Euler-summed gaps {euler_gap_a:.1e} (a), {euler_gap_b:.1e} (b), "
           f"tol 1e-8; raw |a_60 - a_inf| = {gap_a:.3e}, "
           f"|b_60 - b_inf| = {gap_b:.3e})")
    assert euler_gap_a <= 1e-8, (
        f"Euler sum of a_0..a_60 is {euler_gap_a:.3e} from 1 - 1/sqrt(2) (> 1e-8)"
    )
    assert euler_gap_b <= 1e-8, (
        f"Euler sum of b_0..b_60 is {euler_gap_b:.3e} from sqrt(2) - 1 (> 1e-8)"
    )
    assert bracket_a, f"|a_60 - a_inf| = {gap_a:.3e} outside its Leibniz bracket"
    assert bracket_b, f"|b_60 - b_inf| = {gap_b:.3e} outside its Leibniz bracket"
    assert abs(rate_a - 1.0) <= 0.02, (
        f"sqrt(61) |a_60 - a_inf| is {rate_a:.4f} x 1/(2 sqrt(pi)): not the k^(-1/2) rate"
    )
    assert abs(rate_b - 1.0) <= 0.02, (
        f"61^(3/2) |b_60 - b_inf| is {rate_b:.4f} x 1/(4 sqrt(pi)): not the k^(-3/2) rate"
    )


def test_criterion_3_engine_equivalence():
    start = time.perf_counter()
    worst = 0.0
    where = ""
    for dt_factor in (0.014, 2.0):
        cfg = dephasing(dt_factor)
        for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
            series = series_from_transfer(eta)
            power = identity_series()
            for m in range(21):
                if m > 0:
                    power = series_multiply(power, series)
                for a in (0.0, 1.0):
                    sp = spectrum(a)
                    exact = integrate_series_against_spectrum(power, sp, cfg)
                    quad = mf.quadrature_map(eta, m, sp, cfg)
                    dev = float(np.max(np.abs(exact - quad)))
                    if dev > worst:
                        worst = dev
                        where = f"dt={dt_factor}, eta={eta}, m={m}, A={a}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, "series vs quadrature engines", ok,
           f"(max dev {worst:.1e} at {where}, {elapsed:.1f}s)")
    assert worst < 1e-8, where
    assert elapsed < 30.0


def test_criterion_3_strong_limit_error_engines_at_200_steps(tmp_path):
    # the strong limit's period row on the quadrature engine, past fig5's 15
    # steps: both engines write the same keys, and every error agrees
    tables = []
    for engine in ("series", "quadrature"):
        out = tmp_path / engine
        assert cli_main(["strong-limit-error", "--preset", "fig5", "--set", "steps=200",
                         "--engine", engine, "--out", str(out)]) == 0
        lines = (out / "strong_limit_error.csv").read_text().splitlines()
        tables.append([line.split(",") for line in lines])
    series, quadrature = tables
    assert max(int(row[2]) for row in series[1:]) == 200
    assert [row[:-1] for row in series] == [row[:-1] for row in quadrature]
    devs = [abs(float(s[-1]) - float(q[-1])) for s, q in zip(series[1:], quadrature[1:])]
    ok = all(dev <= ENGINE_AGREEMENT_TOL for dev in devs)
    report(3, "strong-limit error engines at 200 steps", ok,
           f"({len(devs)} errors, max dev {max(devs):.1e})")
    assert ok, max(devs)


def test_criterion_4_special_case_recovery():
    start = time.perf_counter()
    sp = spectrum(0.0)
    cfg = dephasing(0.014)
    series_x, report_x = mf.nm_qubit(0.0, sp, cfg, n_steps=30)
    even_dev = max(abs(series_x.values[2 * m] - 1.0) for m in range(16))
    series_z, report_z = mf.nm_qubit(1.0, sp, cfg, n_steps=30)
    max_inc_z = float(np.max(report_z.increments))
    elapsed = time.perf_counter() - start
    ok = (
        even_dev <= 1e-10
        and report_x.measure > 0.0
        and report_z.measure == 0.0
        and max_inc_z <= 1e-10
        and elapsed < 5.0
    )
    report(4, "control special cases", ok,
           f"(even-step dev {even_dev:.1e}, sigma_x measure {report_x.measure:.3e}, "
           f"sigma_z max increment {max_inc_z:.1e}, {elapsed:.2f}s)")
    assert even_dev <= 1e-10
    assert report_x.measure > 0.0
    assert report_z.measure == 0.0 and max_inc_z <= 1e-10
    assert elapsed < 5.0


def test_criterion_5_strong_dephasing_approximation_quality():
    start = time.perf_counter()
    sp = spectrum(0.0)
    weak = dephasing(0.02)
    intermediate = dephasing(1.03)
    violations = []
    for m in range(1, 16):
        err_weak = mf.approximation_error(0.5, m, sp, weak)
        err_inter = mf.approximation_error(0.5, m, sp, intermediate)
        if not err_inter < err_weak:
            violations.append((m, err_inter, err_weak))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    report(5, "single-period average error ordering", ok,
           f"(strict for all 15 steps, {elapsed:.1f}s)" if ok else f"(violations {violations})")
    assert not violations, violations
    assert elapsed < 30.0


def test_criterion_6_filter_dilation_equivalence():
    start = time.perf_counter()
    sp = spectrum(0.7)
    cfg = dephasing(0.4)
    coin = (1.0 / math.sqrt(2.0), 1.0j / math.sqrt(2.0))
    worst = 0.0
    for n_freqs in (8, 16, 32):
        for n in range(5):
            dil, omegas, weights = mf.dilation_oracle(coin[0], coin[1], n, sp, cfg, n_freqs)
            flt = filtered_density(walk_evolve(coin[0], coin[1], n),
                                   discrete_filter(omegas, weights, cfg))
            worst = max(worst, float(np.max(np.abs(dil.matrix - flt.matrix))))
    # dephasing leaves p(x) untouched: the traced dilation's against the
    # unitary walk's, so a defect in the dilation's construction shows
    pos_dev = 0.0
    for dt_factor in (0.1, 1.0, 8.0):
        for a in (0.0, 0.5, 1.0):
            strong_cfg = dephasing(dt_factor)
            for n in (6, 12):
                dil = mf.dilation_oracle(coin[0], coin[1], n, spectrum(a), strong_cfg, 16)[0]
                p1 = dil.position_distribution()
                p2 = mf.position_distribution(walk_evolve(coin[0], coin[1], n))
                pos_dev = max(pos_dev, max(abs(p1[x] - p2[x]) for x in p2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and pos_dev <= 1e-12 and elapsed < 60.0
    report(6, "dilation vs coherence filter", ok,
           f"(trace-out dev {worst:.1e}, position dev {pos_dev:.1e}, {elapsed:.1f}s)")
    assert worst <= 1e-10
    assert pos_dev <= 1e-12
    assert elapsed < 60.0


def test_criterion_6_oracle_at_40_steps(tmp_path):
    # a failed or refused oracle check exits 2
    assert cli_main([*ORACLE_40, "--out", str(tmp_path)]) == 0
    oracle = json.loads((tmp_path / "oracle_report.json").read_text())
    checks = {c["name"]: c for c in oracle["checks"]}
    dilation = {checks[f"dilation_vs_filter_K{k}"]["steps"]["last"] for k in (8, 16, 32, 64)}
    ok = oracle["all_pass"] is True and dilation == {40} \
        and checks["series_vs_quadrature"]["m"] == 240
    report(6, "dilation oracle at 40 steps", ok,
           f"(worst dev {max(c['max_dev'] for c in oracle['checks']):.1e})")
    assert oracle["all_pass"] is True
    assert dilation == {40}
    assert checks["series_vs_quadrature"]["m"] == 240


def test_criterion_7_walk_amplitude_integrals():
    start = time.perf_counter()
    worst = 0.0
    where = ""
    for m in range(13):
        left = walk_evolve(1.0, 0.0, m)
        right = walk_evolve(0.0, 1.0, m)
        for x in range(-m, m + 1):
            if (m + x) % 2 != 0:
                continue
            amps = mf.walk_amplitudes_integral(m, x)
            al, bl = left.coin_pair_at(x)
            ar, br = right.coin_pair_at(x)
            dev = max(abs(amps.a_left - al), abs(amps.b_left - bl),
                      abs(amps.a_right - ar), abs(amps.b_right - br))
            if dev > worst:
                worst = dev
                where = f"m={m}, x={x}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(7, "quasi-momentum amplitudes vs recursion", ok,
           f"(max dev {worst:.1e} at {where}, {elapsed:.1f}s)")
    assert worst < 1e-6, where
    assert elapsed < 30.0


def test_criterion_7_integral_check_at_400_steps(tmp_path):
    # the quasi-momentum rows against the recursion over 400 steps, with the
    # refinement guard at every site, past fig4's 10 and the oracle's 8
    assert cli_main(["walk", "--check-integrals", "--set", "steps=400",
                     "--set", "integral_check_cap=400", "--out", str(tmp_path)]) == 0
    derived = json.loads((tmp_path / "walk_manifest.json").read_text())["derived"]
    worst = derived["integral_max_deviation"]
    ok = derived["integral_check_steps"] == 400 and worst <= INTEGRAL_RECURSION_TOL
    report(7, "quasi-momentum amplitudes vs recursion at 400 steps", ok,
           f"(max dev {worst:.1e})")
    assert derived["integral_check_steps"] == 400
    assert worst <= INTEGRAL_RECURSION_TOL


def test_criterion_8_walk_measure_structure(tmp_path):
    start = time.perf_counter()
    rc = cli_main(["open-walk-nm", "--preset", "fig4", "--out", str(tmp_path)])
    sweep_elapsed = time.perf_counter() - start
    assert rc == 0
    rows = (tmp_path / "open_walk_nm.csv").read_text().splitlines()[1:]
    parsed = [r.split(",") for r in rows]
    filter_rows = {}
    strong_values = set()
    for a_s, v_s, n_s, mode in parsed:
        if mode == "filter":
            filter_rows[(float(a_s), float(v_s))] = float(n_s)
        else:
            strong_values.add(float(n_s))

    # (a) spectrum independence at integer interaction times
    spread = {}
    for target in (1.0, 2.0, 3.0):
        vals = [n for (a, v), n in filter_rows.items() if abs(v - target) < 1e-9]
        assert len(vals) == 3, f"grid must contain interaction time {target}"
        spread[target] = max(vals) - min(vals)

    # (b) one strong-limit value; deep-dephasing filter run approaches it
    assert len(strong_values) == 1
    strong = strong_values.pop()
    deep = {}
    for a in (0.0, 1.0):
        _, rep = mf.nm_walk(spectrum(a), dephasing(8.0), n_steps=10)
        deep[a] = rep.measure
    elapsed = time.perf_counter() - start

    ok = (
        all(s < 1e-6 for s in spread.values())
        and all(abs(deep[a] - strong) < 1e-4 for a in deep)
        and deep[0.0] > 0.0
        and sweep_elapsed < 300.0
    )
    report(8, "walk measure structure", ok,
           f"(integer-time spread {max(spread.values()):.1e}, strong value {strong:.4f}, "
           f"deep-dephasing gap {max(abs(deep[a] - strong) for a in deep):.1e}, "
           f"sweep {sweep_elapsed:.0f}s)")
    for target, s in spread.items():
        assert s < 1e-6, f"curves split by {s:.2e} at interaction time {target}"
    for a, value in deep.items():
        assert abs(value - strong) < 1e-4
    assert deep[0.0] > 0.0
    assert sweep_elapsed < 300.0


def test_criterion_9_numerical_kernel_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_tr = worst_fro = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (x + x.conj().T) / 2.0
        vals = mf.hermitian_eigenvalues(h)
        worst_tr = max(worst_tr, abs(float(np.sum(vals)) - float(np.trace(h).real)))
        worst_fro = max(worst_fro, abs(float(np.sum(vals ** 2)) - float(np.sum(np.abs(h) ** 2))))
    worst_2x2 = 0.0
    for _ in range(200):
        a, c = rng.normal(size=2)
        b = complex(rng.normal(), rng.normal())
        h = np.array([[a, b], [np.conj(b), c]])
        lo, hi = eigvals_2x2_hermitian(a, b, c)
        got = mf.hermitian_eigenvalues(h)
        worst_2x2 = max(worst_2x2, float(np.max(np.abs(got - np.array([lo, hi])))))
    state_defect = 0.0
    min_eig = 0.0
    for a in (0.0, 1.0):
        for dt_factor in (0.1, 2.0):
            rho = mf.open_walk_evolve(0.6, 0.8j, 8, spectrum(a), dephasing(dt_factor))
            state_defect = max(state_defect, rho.hermiticity_defect(), abs(rho.trace() - 1.0))
            min_eig = min(min_eig, rho.min_eigenvalue())
    elapsed = time.perf_counter() - start
    ok = (
        worst_tr < 1e-10 and worst_fro < 1e-10 and worst_2x2 < 1e-12
        and state_defect < 1e-12 and min_eig >= -1e-10 and elapsed < 10.0
    )
    report(9, "numerical kernel properties", ok,
           f"(trace {worst_tr:.1e}, frobenius {worst_fro:.1e}, 2x2 {worst_2x2:.1e}, "
           f"state defect {state_defect:.1e}, min eig {min_eig:.1e}, {elapsed:.1f}s)")
    assert worst_tr < 1e-10
    assert worst_fro < 1e-10
    assert worst_2x2 < 1e-12
    assert state_defect < 1e-12
    assert min_eig >= -1e-10
    assert elapsed < 10.0


@pytest.mark.parametrize("preset_name,command", [
    ("fig1", "dephasing"),
    ("fig2", "controlled-qubit"),
    ("fig3", "controlled-qubit"),
    ("fig5", "strong-limit-error"),
])
def test_criterion_10_determinism_presets(tmp_path, preset_name, command):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert cli_main([command, "--preset", preset_name, "--out", str(out)]) == 0
    identical = all(
        (out2 / f.name).read_bytes() == f.read_bytes() for f in sorted(out1.iterdir())
    )
    report(10, f"determinism ({preset_name})", identical, "")
    assert identical


@pytest.mark.parametrize("label,argv", [
    ("oracle", ["oracle"]),
    ("walk integral check", ["walk", "--check-integrals"]),
    ("oracle at 40 steps", ORACLE_40),
])
def test_criterion_10_determinism_checks(tmp_path, label, argv):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert cli_main([*argv, "--out", str(out)]) == 0
    names = sorted(f.name for f in out1.iterdir())
    identical = names == sorted(f.name for f in out2.iterdir()) and all(
        (out2 / name).read_bytes() == (out1 / name).read_bytes() for name in names
    )
    report(10, f"determinism ({label})", identical, "")
    assert identical


def test_criterion_10_determinism_sweep_parallelism(tmp_path):
    outs = []
    for label, jobs in (("serial1", "1"), ("serial2", "1"), ("threads", "4")):
        out = tmp_path / label
        rc = cli_main([
            "open-walk-nm", "--preset", "fig4", "--out", str(out), "--jobs", jobs,
        ])
        assert rc == 0
        outs.append((out / "open_walk_nm.csv").read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    report(10, "determinism (fig4, parallel sweep)", identical, "")
    assert identical
