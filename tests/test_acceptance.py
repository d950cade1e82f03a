"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The twin-study criteria
plant a structure-preserving latent source on Dev1-like parameters and check
recovery, ranking, extrapolation, and determinism end to end.
"""

import time

import numpy as np
import pytest

from qude import cli, dynamics, metrics, models, qcore, tomography, train

import states
from conftest import (
    DEV1,
    DEV2,
    PLANT_ALPHA,
    PLANT_GAMMA,
    make_twin_dataset,
    planted_source,
)

TWO_PI = 2.0 * np.pi


def check(criterion: int, condition: bool, detail: str) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"\n[acceptance] criterion {criterion:02d}: {status} | {detail}")
    assert condition, f"criterion {criterion:02d} failed: {detail}"


def recovery_fit_config(**kw) -> train.TrainConfig:
    defaults = dict(adam_epochs=30, adam_batch=5, adam_lr=1e-3, lbfgs_max_iters=200, seed=0)
    defaults.update(kw)
    return train.TrainConfig(**defaults)


def test_criterion_01_effective_time_arithmetic():
    t0 = time.perf_counter()
    cases = [
        # (device, inverse channel rates (us), expected T1_eff, T2_eff, tol)
        (DEV1, (1686.0, 1686.0, 688.0), 171.0, 27.0, 0.5),
        (DEV2, (10.0, 10.0, 8.5), 4.6, 1.6, 0.1),
        (DEV2, (11.2, 11.2, 11.1), 5.1, 1.9, 0.1),
        (DEV2, (7.8, 7.8, 6.2), 3.7, 1.2, 0.1),
    ]
    results = []
    for dev, inv_rates, t1_exp, t2_exp, tol in cases:
        src = models.StructurePreservingSource(
            dim=2, gamma_raw=np.sqrt([1.0 / g for g in inv_rates])
        )
        et = models.effective_times(dev, src)
        results.append((et.T1_eff_us, et.T2_eff_us))
        assert abs(et.T1_eff_us - t1_exp) <= tol, (et.T1_eff_us, t1_exp)
        assert abs(et.T2_eff_us - t2_exp) <= tol, (et.T2_eff_us, t2_exp)
    elapsed = time.perf_counter() - t0
    check(
        1,
        elapsed < 1.0,
        f"four device readouts {['%.3g/%.3g' % r for r in results]}, {elapsed:.3f}s",
    )


def test_criterion_02_footnote_identity():
    t0 = time.perf_counter()
    gm = qcore.gell_mann_basis(2)
    n_op = dynamics.number_operator(2)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        rho = states.random_density_matrix(2, rng)
        lhs = dynamics.dissipator(gm.uppers[2], rho)
        rhs = 4.0 * dynamics.dissipator(n_op, rho)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    check(2, worst <= 1e-12 and elapsed < 1.0, f"max deviation {worst:.2e}, {elapsed:.3f}s")


def test_criterion_03_tomography_round_trip():
    t0 = time.perf_counter()
    inv_err = float(np.max(np.abs(tomography.M_MATRIX @ tomography.M_MATRIX_INV - np.eye(4))))
    rng = np.random.default_rng(3)
    rhos = np.stack([states.random_density_matrix(2, rng) for _ in range(1000)])
    probs = tomography.measurement_probs_many(rhos)
    recon = tomography.lie_reconstruct_many(probs)
    worst = float(np.max(qcore.trace_distance_many(recon, rhos)))
    elapsed = time.perf_counter() - t0
    check(
        3,
        inv_err <= 1e-14 and worst <= 1e-12 and elapsed < 5.0,
        f"M inverse {inv_err:.2e}, worst of 1000 round trips {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_rk4_physics_oracles():
    t0 = time.perf_counter()
    lvn = dynamics.DeviceModel(3.448, 214.0, 32.0, "lvn")

    rabi_exp = dynamics.Experiment("rabi", 0.5, duration_us=10.0, sample_dt_ns=4.0)
    traj = dynamics.integrate_rk4(lvn, rabi_exp, None, dt_internal_ns=1.0)
    rabi_err = float(
        np.max(np.abs(traj.states[:, 1, 1].real - np.sin(np.pi * traj.times_us) ** 2))
    )

    decay_exp = dynamics.Experiment(
        "decay", 0.0, duration_us=10.0, sample_dt_ns=4.0,
        initial_state=qcore.basis_projector(2, 1),
    )
    traj = dynamics.integrate_rk4(DEV1, decay_exp, None, dt_internal_ns=1.0)
    decay_err = float(
        np.max(np.abs(traj.states[:, 1, 1].real - np.exp(-traj.times_us / DEV1.T1_us)))
    )

    order_exp = dynamics.Experiment("order", 2.0, duration_us=2.0, sample_dt_ns=8.0)
    errs = []
    for dt in (8.0, 4.0):
        tr = dynamics.integrate_rk4(lvn, order_exp, None, dt_internal_ns=dt)
        errs.append(
            np.max(np.abs(tr.states[:, 1, 1].real - np.sin(4 * np.pi * tr.times_us) ** 2))
        )
    order = float(np.log2(errs[0] / errs[1]))

    elapsed = time.perf_counter() - t0
    check(
        4,
        rabi_err <= 1e-8 and decay_err <= 1e-8 and order >= 3.7 and elapsed < 10.0,
        f"Rabi {rabi_err:.2e}, decay {decay_err:.2e}, order {order:.2f}, {elapsed:.2f}s",
    )


def test_criterion_05_gradient_correctness(smoke_dataset):
    t0 = time.perf_counter()
    worst = {}
    for kind in ("sp", "affine", "nonlinear"):
        tmpl = models.make_source(kind, seed=3)
        rng = np.random.default_rng(11)
        theta = tmpl.pack() + 0.05 * rng.standard_normal(tmpl.pack().shape)
        g_adj = train.gradient(theta, smoke_dataset, DEV1, tmpl)
        g_fd = train.gradient(theta, smoke_dataset, DEV1, tmpl, method="finite_difference")
        # componentwise relative error; components that vanish relative to the
        # gradient norm are measured against the oracle's own rounding floor
        scale = np.maximum(np.abs(g_fd), 1e-3 * np.max(np.abs(g_fd)))
        worst[kind] = float(np.max(np.abs(g_adj - g_fd) / scale))
        assert worst[kind] <= 1e-5, (kind, worst[kind])
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    check(5, elapsed < 30.0, f"adjoint vs central differences: {detail}, {elapsed:.2f}s")


def test_criterion_06_twin_recovery(twin_clean_10us):
    t0 = time.perf_counter()
    tmpl = models.make_source("sp")

    # noiseless: alpha within 1 percent relative, gamma within 5 percent
    res = train.fit(twin_clean_10us, DEV1, tmpl, recovery_fit_config())
    fitted = tmpl.with_params(res.theta_star)
    alpha_rel = float(np.max(np.abs(fitted.alpha - PLANT_ALPHA) / np.abs(PLANT_ALPHA)))
    gamma_rel = float(np.max(np.abs(fitted.gammas - PLANT_GAMMA) / PLANT_GAMMA))
    assert alpha_rel <= 0.01, alpha_rel
    assert gamma_rel <= 0.05, gamma_rel

    # 5000-shot noise: learned detuning -2*alpha3 within 10 percent, 5 seeds
    det_true = -2.0 * PLANT_ALPHA[2]
    det_errs = []
    for seed in range(5):
        noisy = make_twin_dataset(seed=seed, duration_us=10.0, shots=5000)
        res_n = train.fit(noisy, DEV1, tmpl, recovery_fit_config())
        det = -2.0 * tmpl.with_params(res_n.theta_star).alpha[2]
        det_errs.append(abs(det - det_true) / abs(det_true))
    assert max(det_errs) <= 0.10, det_errs

    elapsed = time.perf_counter() - t0
    check(
        6,
        elapsed < 600.0,
        f"clean alpha {alpha_rel:.2e} gamma {gamma_rel:.2e}, "
        f"noisy detuning errors {['%.3f' % e for e in det_errs]}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def twin_noisy_20us():
    return make_twin_dataset(seed=42, duration_us=20.0, shots=5000, train_horizon_us=10.0)


def test_criterion_07_model_ranking(twin_noisy_20us):
    t0 = time.perf_counter()
    ds = twin_noisy_20us
    budgets = {"sp": (30, 200), "affine": (100, 120), "nonlinear": (100, 120)}
    stats = {}
    for kind, (epochs, iters) in budgets.items():
        tmpl = models.make_source(kind, seed=1)
        cfg = recovery_fit_config(adam_epochs=epochs, adam_batch=5, lbfgs_max_iters=iters)
        res = train.fit(ds, DEV1, tmpl, cfg)
        fitted = tmpl.with_params(res.theta_star)
        report, _ = metrics.evaluate_model(kind, DEV1, fitted, ds.experiments, 10.0)
        stats[kind] = {r.split: (r.mean, r.stddev) for r in report.moments}
    base_report, _ = metrics.evaluate_model("base", DEV1, None, ds.experiments, 10.0)
    stats["base"] = {r.split: (r.mean, r.stddev) for r in base_report.moments}

    base_val = stats["base"]["extrapolation"][0]
    for kind in budgets:
        assert stats[kind]["extrapolation"][0] < base_val, (kind, stats[kind], base_val)
    # train-set ordering with ties allowed inside one pooled stddev
    sp_m, sp_s = stats["sp"]["interpolation"]
    af_m, af_s = stats["affine"]["interpolation"]
    nl_m, _ = stats["nonlinear"]["interpolation"]
    assert sp_m <= af_m + sp_s, (sp_m, af_m, sp_s)
    assert af_m <= nl_m + af_s, (af_m, nl_m, af_s)

    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"{k} val {v['extrapolation'][0]:.4f}" for k, v in stats.items()
    )
    check(7, elapsed < 1800.0, f"{detail}, {elapsed:.0f}s")


def test_criterion_08_cptp_suite():
    t0 = time.perf_counter()
    latent = planted_source()
    worst_trace = 0.0
    worst_eig = 0.0
    for amp in (0.8, 3.47):
        exp = dynamics.Experiment(f"cptp-{amp}", amp, duration_us=50.0, sample_dt_ns=4.0)
        traj = dynamics.integrate_rk4(DEV1, exp, latent, dt_internal_ns=4.0)
        traces = np.trace(traj.states, axis1=1, axis2=2)
        worst_trace = max(worst_trace, float(np.max(np.abs(traces - 1.0))))
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(traj.states))))
    assert worst_trace <= 1e-9, worst_trace
    assert worst_eig >= -1e-8, worst_eig

    rng = np.random.default_rng(8)
    rhos, hs = [], []
    for _ in range(50):
        rhos.append(states.random_density_matrix(2, rng))
        hs.append(qcore.hermitize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
    rhos = np.stack(rhos)
    hs = np.stack([h for h in hs if np.max(np.linalg.eigvalsh(h)) > 0.0])
    ident_err = float(np.max(np.abs(qcore.spectral_filter_many(rhos) - rhos)))
    once = qcore.spectral_filter_many(hs)
    idem_err = float(np.max(np.abs(qcore.spectral_filter_many(once) - once)))
    assert ident_err <= 1e-12, ident_err
    assert idem_err <= 1e-12, idem_err

    elapsed = time.perf_counter() - t0
    check(
        8,
        elapsed < 10.0,
        f"trace {worst_trace:.2e}, min eig {worst_eig:.2e}, filter identity "
        f"{ident_err:.2e} idempotence {idem_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_09_extrapolation(twin_noisy_50us):
    t0 = time.perf_counter()
    ds = twin_noisy_50us
    tmpl = models.make_source("sp")
    res = train.fit(ds, DEV1, tmpl, recovery_fit_config())
    fitted = tmpl.with_params(res.theta_star)
    report, _ = metrics.evaluate_model("sp", DEV1, fitted, ds.experiments, 10.0)
    base_report, _ = metrics.evaluate_model("base", DEV1, None, ds.experiments, 10.0)
    sp_stats = {r.split: r.mean for r in report.moments}
    base_stats = {r.split: r.mean for r in base_report.moments}

    assert sp_stats["extrapolation"] < 2.0 * sp_stats["interpolation"], sp_stats
    assert sp_stats["extrapolation"] < base_stats["extrapolation"], (sp_stats, base_stats)

    elapsed = time.perf_counter() - t0
    check(
        9,
        elapsed < 600.0,
        f"sp interp {sp_stats['interpolation']:.4f} extrap {sp_stats['extrapolation']:.4f}, "
        f"base extrap {base_stats['extrapolation']:.4f}, {elapsed:.1f}s",
    )


DETERMINISM_CONFIG = """\
[device]
omega01_GHz = 3.448
T1_us = 214.0
T2_us = 32.0
base_model = lindblad

[experiments]
n_experiments = 2
p_max_MHz = 3.47
duration_us = 2.0
sample_dt_ns = 20.0
shots = 5000
seed = 77

[latent]
ansatz = sp
alpha_kHz = 0.15, 2.18, 5.66
gamma_inv_us = 1686, 1686, 688

[training]
ansatz = sp
mode = exp-gen
train_horizon_us = 1.0
adam_epochs = 10
adam_batch = 2
lbfgs_max_iters = 50
dt_internal_ns = 4.0
seed = 5
"""


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DETERMINISM_CONFIG)

    outputs = {}
    for tag in ("one", "two"):
        root = tmp_path / tag
        assert cli.main(["generate", "--config", str(cfg), "--out", str(root / "data")]) == 0
        assert (
            cli.main(
                ["train", "--config", str(cfg), "--dataset", str(root / "data/manifest.json"),
                 "--out", str(root / "fit")]
            )
            == 0
        )
        assert (
            cli.main(
                ["evaluate", "--model", str(root / "fit/model.json"),
                 "--dataset", str(root / "data/manifest.json"), "--out", str(root / "eval")]
            )
            == 0
        )
        files = {}
        for rel in (
            "data/manifest.json", "data/exp-000.jsonl", "data/exp-001.jsonl",
            "fit/model.json",
            "eval/moments.csv", "eval/histogram.csv", "eval/energy.csv",
            "eval/expected_trace_distance.csv",
        ):
            files[rel] = (root / rel).read_bytes()
        outputs[tag] = files

    mismatched = [rel for rel in outputs["one"] if outputs["one"][rel] != outputs["two"][rel]]
    elapsed = time.perf_counter() - t0
    check(
        10,
        not mismatched,
        f"{len(outputs['one'])} files byte-identical across two runs "
        f"(mismatches: {mismatched}), {elapsed:.1f}s",
    )
