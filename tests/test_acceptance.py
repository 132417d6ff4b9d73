"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its stated tolerance."""

import json
import math
import time

import numpy as np

from qcw import (
    ModelParams,
    SimConfig,
    SpreadLaw,
    StateVector,
    bessel_i0_scaled,
    eigenprices_batch,
    fit_spread_params,
    imbalance_summary,
    ks_distance,
    probabilities,
    propagate,
    sample_spread,
    simulate_ensemble,
    simulate_path,
    spread_cdf,
)
from qcw.cli import main
from qcw.market_sim import _child_seed

from oracles import (
    eig_2x2_hermitian_extended,
    i0_scaled_quadrature,
    propagate_expm,
    rayleigh_cdf,
)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_eigen_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 1_000_000
    mid = rng.uniform(5.0, 1000.0, n)
    diff = rng.normal(0.0, 1.0, n)
    s11 = mid + 0.5 * diff
    s22 = mid - 0.5 * diff
    s12 = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)

    ask, bid, _, _ = eigenprices_batch(s11, s22, s12)
    ask_ref, bid_ref = eig_2x2_hermitian_extended(s11, s22, s12)
    worst = max(
        np.max(np.abs(ask - ask_ref) / np.abs(ask_ref)),
        np.max(np.abs(bid - bid_ref) / np.abs(bid_ref)),
    )
    elapsed = time.perf_counter() - t0
    report(
        1,
        "eigen-oracle equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"max rel err {worst:.3e} (tol 1e-12), {elapsed:.1f}s (limit 10s) on 1e6 operators",
    )


def test_criterion_02_spread_law_consistency():
    t0 = time.perf_counter()
    settings = [
        SpreadLaw(xi1=0.10, kappa1=0.05),
        SpreadLaw(xi1=0.08, kappa1=0.08),  # Rayleigh case
        SpreadLaw(xi1=0.20, kappa1=0.05),
    ]
    details = []
    worst = 0.0
    for k, law in enumerate(settings):
        draws = sample_spread(law, np.random.default_rng(300 + k), 100_000)
        d = ks_distance(draws, law)
        worst = max(worst, d)
        details.append(f"({law.xi1:g},{law.kappa1:g}) KS={d:.4f}")
    # second, analytic oracle for the equal-scale case
    ray = settings[1]
    grid = np.linspace(0.0, ray.tail_cutoff(), 200)
    cdf_gap = float(np.max(np.abs(spread_cdf(grid, ray) - rayleigh_cdf(grid, ray.xi1))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "spread-law consistency",
        worst < 0.02 and cdf_gap < 1e-5 and elapsed < 30.0,
        "; ".join(details)
        + f"; Rayleigh-CDF gap {cdf_gap:.2e}; {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_03_density_normalization():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        xi1, kappa1 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 2))
        law = SpreadLaw(xi1=float(xi1), kappa1=float(kappa1))
        worst = max(worst, abs(spread_cdf(law.tail_cutoff(), law) - 1.0))
    report(
        3,
        "density normalization",
        worst < 1e-6,
        f"max |integral - 1| = {worst:.2e} over 20 random laws (tol 1e-6)",
    )


def test_criterion_04_unitarity_and_propagator_oracle():
    params = ModelParams(
        sigma=0.0, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=10.0, dt=1.0
    )
    rng = np.random.default_rng(505)
    state = StateVector.balanced()
    worst_drift = 0.0
    for _ in range(100_000):
        state = propagate(
            state,
            xi=float(rng.normal(0.0, 0.5)),
            kappa=float(rng.normal(0.0, 0.5)),
            s_mid=float(rng.uniform(0.0, 50.0)),
            params=params,
            renormalize=False,
        )
        drift = abs(state.norm_sq() - 1.0)
        if drift > worst_drift:
            worst_drift = drift

    worst_component = 0.0
    for k in range(10_000):
        xi = float(rng.normal(0.0, 0.4))
        kappa = complex(rng.normal(0.0, 0.4), rng.normal(0.0, 0.4) if k % 3 == 0 else 0.0)
        s_mid = float(rng.uniform(0.0, 200.0))
        psi = StateVector.from_amplitudes(
            complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        )
        expected = propagate_expm(
            s_mid + 0.5 * xi,
            s_mid - 0.5 * xi,
            0.5 * kappa,
            [psi.psi_ask, psi.psi_bid],
            params.dt,
            params.tau,
            params.s0,
        )
        out = propagate(psi, xi, kappa, s_mid, params, renormalize=False)
        gap = max(abs(out.psi_ask - expected[0]), abs(out.psi_bid - expected[1]))
        if gap > worst_component:
            worst_component = gap

    report(
        4,
        "unitarity / propagator oracle",
        worst_drift < 1e-6 and worst_component < 1e-10,
        f"norm drift {worst_drift:.2e} over 1e5 steps (tol 1e-6); "
        f"max |diff| vs expm {worst_component:.2e} on 1e4 inputs (tol 1e-10)",
    )


def test_criterion_05_oscillation_frequency():
    # constant spread, no scrambling: the amplitude pair rotates at
    # omega = delta/(2*tau*s0); FFT of the sampled amplitude trajectory
    # (mid-price carrier removed by setting s_mid = 0) peaks there.
    xi, kappa = 0.6, 0.8  # delta = 1.0
    tau, s0 = 1.0, 1.0
    omega_true = 1.0 / (2.0 * tau * s0)
    dt = 0.37
    n = 65_536
    params = ModelParams(
        sigma=0.0, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=tau, s0=s0, dt=dt
    )
    state = StateVector(1.0, 0.0)
    signal = np.empty(n, dtype=complex)
    for k in range(n):
        state = propagate(state, xi, kappa, s_mid=0.0, params=params)
        signal[k] = state.psi_ask
    spectrum = np.abs(np.fft.fft(signal))
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    omega_est = abs(freqs[int(np.argmax(spectrum))])
    rel = abs(omega_est - omega_true) / omega_true
    report(
        5,
        "oscillation frequency",
        rel < 1e-3,
        f"FFT peak at {omega_est:.6f} vs delta/(2*tau*s0) = {omega_true:.6f}, "
        f"rel err {rel:.2e} (tol 1e-3)",
    )


def test_criterion_06_wiener_correspondence_bitwise():
    sigma = 0.02
    seed = 20_240_601
    n = 10_000
    params = ModelParams(
        sigma=sigma, xi0=0.0, xi1=0.0, kappa0=0.0, kappa1=0.0, tau=1.0, s0=100.0, dt=1.0
    )
    config = SimConfig(n_steps=n, initial_price=100.0, seed=seed)
    path = simulate_path(config, params)

    rng = np.random.default_rng(_child_seed(np.random.SeedSequence(seed), 0))
    s = 100.0
    expected = np.empty(n)
    for k in range(n):
        dz = float(rng.standard_normal(3)[0])
        s = s + s * sigma * dz
        expected[k] = s
    identical = bool(np.array_equal(path.s_trade, expected))
    report(
        6,
        "Wiener correspondence",
        identical,
        f"simulated path equals the classical recursion bit-for-bit over {n} steps: {identical}",
    )


def test_criterion_07_mle_recovery_and_scaling():
    t0 = time.perf_counter()
    truth = SpreadLaw(xi1=0.10, kappa1=0.05)

    fit = fit_spread_params(sample_spread(truth, np.random.default_rng(808), 100_000))
    err_xi = abs(fit.xi1_hat - truth.xi1) / truth.xi1
    err_kappa = abs(fit.kappa1_hat - truth.kappa1) / truth.kappa1

    reps = 5
    rms = {}
    for n in (1000, 10_000, 100_000):
        errs = []
        for r in range(reps):
            f = fit_spread_params(
                sample_spread(truth, np.random.default_rng(7000 + 13 * r + n), n)
            )
            errs.append(
                ((f.xi1_hat - truth.xi1) / truth.xi1) ** 2
                + ((f.kappa1_hat - truth.kappa1) / truth.kappa1) ** 2
            )
        rms[n] = math.sqrt(float(np.mean(errs)))
    step = math.sqrt(10.0)
    r1 = rms[1000] / rms[10_000]
    r2 = rms[10_000] / rms[100_000]
    scaling_ok = step / 2 < r1 < step * 2 and step / 2 < r2 < step * 2
    elapsed = time.perf_counter() - t0
    report(
        7,
        "MLE recovery",
        err_xi < 0.05 and err_kappa < 0.05 and scaling_ok and elapsed < 60.0,
        f"rel err (xi1, kappa1) = ({err_xi:.3f}, {err_kappa:.3f}) at 1e5 (tol 0.05); "
        f"error ratios per decade {r1:.2f}, {r2:.2f} (expect ~{step:.2f} within x2); "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_08_ergodicity_breaking_demo():
    t0 = time.perf_counter()
    crash_params = ModelParams(
        sigma=0.0005, xi0=0.0, xi1=0.005, kappa0=0.0, kappa1=0.002,
        tau=1.0, s0=100.0, dt=1.0,
    )
    crash_config = SimConfig(
        n_steps=400,
        initial_price=100.0,
        initial_state=StateVector.from_imbalance(-0.9),
        mode="imbalance-coupled",
        c_i=10.0 * crash_params.xi1,
        seed=909,
    )
    ensemble = simulate_ensemble(crash_config, crash_params, 100)
    hits = sum(
        1 for p in ensemble if p.bid_fraction() > 0.5 and p.net_log_return() < 0.0
    )

    balanced_params = ModelParams(
        sigma=0.001, xi0=0.0, xi1=0.05, kappa0=0.0, kappa1=0.05,
        tau=8e-4, s0=100.0, dt=1.0,
    )
    balanced_config = SimConfig(n_steps=10_000, initial_price=100.0, seed=910)
    balanced = simulate_ensemble(balanced_config, balanced_params, 100)
    summary = imbalance_summary(balanced)
    skew = summary["skewness"]
    elapsed = time.perf_counter() - t0
    report(
        8,
        "ergodicity-breaking demo",
        hits >= 95 and abs(skew) < 0.1 and elapsed < 60.0,
        f"{hits}/100 crash runs with bid fraction > 0.5 and negative log return "
        f"(need >= 95); balanced |skew(Q(I))| = {abs(skew):.3f} at {summary['n']:.0e} "
        f"samples (tol 0.1); {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_09_bessel_against_integral_representation():
    xs = np.concatenate(
        [
            [0.0],
            np.geomspace(1e-6, 13.0, 40),
            np.linspace(13.5, 16.5, 31),  # brackets the series/asymptotic switch at 15
            np.linspace(17.0, 700.0, 120),
        ]
    )
    worst = 0.0
    for x in xs:
        mine = bessel_i0_scaled(float(x))
        ref = i0_scaled_quadrature(float(x))
        worst = max(worst, abs(mine - ref) / ref)
    report(
        9,
        "Bessel I0 vs integral representation",
        worst < 1e-10,
        f"max rel err {worst:.2e} on [0, 700] incl. switch point (tol 1e-10)",
    )


def test_criterion_10_command_determinism(tmp_path):
    model = {
        "sigma": 0.001, "xi0": 0.0, "xi1": 0.05, "kappa0": 0.0, "kappa1": 0.05,
        "tau": 0.0008, "s0": 100.0, "dt": 1.0,
    }
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(dict(model, n_steps=400, initial_price=100.0, mode="balanced",
                        initial_imbalance=0.0, seed=4)),
        encoding="utf-8",
    )
    imb_cfg = tmp_path / "imb.json"
    imb_cfg.write_text(
        json.dumps(dict(model, n_paths=8, n_steps=150, bins=21, initial_price=100.0,
                        mode="balanced", initial_imbalance=0.0, seed=5)),
        encoding="utf-8",
    )
    draws = sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), np.random.default_rng(11), 600)
    quotes = tmp_path / "quotes.csv"
    quotes.write_text(
        "timestamp,bid,ask\n"
        + "\n".join(f"t{k},100.0,{100.0 + float(d)!r}" for k, d in enumerate(draws))
        + "\n",
        encoding="utf-8",
    )
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(
        json.dumps({"input": "quotes.csv", "format": "quotes", "bins": 30, "seed": 6}),
        encoding="utf-8",
    )

    jobs = [
        ("simulate", sim_cfg, ("path.csv", "summary.json")),
        ("imbalance", imb_cfg, ("qi.csv", "moments.json")),
        ("fit", fit_cfg, ("pdf.csv", "fit.json")),
    ]
    all_equal = True
    for command, cfg, outputs in jobs:
        dir_a = tmp_path / f"{command}-a"
        dir_b = tmp_path / f"{command}-b"
        assert main([command, "--config", str(cfg), "--out", str(dir_a)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(dir_b)]) == 0
        for name in outputs:
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                all_equal = False
    report(
        10,
        "command determinism",
        all_equal,
        f"byte-identical reruns for simulate/fit/imbalance: {all_equal}",
    )
