"""Acceptance suite: one test per criterion, one printed verdict line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL <summary>` directly to the
terminal (bypassing capture) before asserting, so a full run always shows
the per-criterion scoreboard.
"""

import math

import numpy as np
import pytest

from oracle import full_channel_gain, joint_symbols, observed_gain, receiver_gain, sent_symbols

from mmwsec.analysis import (
    alignment_mixture_snr,
    b_moments,
    beta_e_hat_term,
    beta_e_term,
    beta_r_term,
    db_to_linear,
    dirichlet_B,
    receiver_snr,
    snr_r_random_path,
)
from mmwsec.array_geometry import ArrayConfig
from mmwsec.channel import channel_stats, sample_channel
from mmwsec.cli import main as cli_main
from mmwsec.montecarlo import SweepSpec, run_sweep, simulate_streams
from mmwsec.strategies import StrategyKind

THETA_R = 40.0
ALL = tuple(StrategyKind)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_alignment_constant(capsys):
    worst = 0.0
    for n in (2, 16, 32, 64):
        cfg = ArrayConfig(n)
        for theta in (1.0, 40.0, 90.0, 179.0):
            worst = max(worst, abs(dirichlet_B(theta, theta, cfg) - n))
    report(capsys, 1, worst < 1e-9, f"kernel alignment value, worst error {worst:.2e}")


def test_criterion_2_decomposition_oracle(capsys):
    cfg = ArrayConfig(32)
    rng = np.random.default_rng(1000)
    sqrt_ln = math.sqrt(12 * 32)
    worst = 0.0

    def rel(a, b):
        # unit floor: gains are O(1), and near kernel nulls a pure ratio
        # of two ~1e-16 roundoff residuals is meaningless
        return abs(a - b) / max(abs(a), abs(b), 1.0)

    # ten channels, 100 symbols of every strategy's kernel rows on each
    for seed in range(1000, 1010):
        ch = sample_channel(12, THETA_R, rng)
        # random-path: receiver per-path component and eavesdropper kernel form
        w, paths = sent_symbols(ch, cfg, StrategyKind.RANDOM_PATH, 16, 5, 100, seed)
        for x, (l,) in zip(w, paths):
            recv = receiver_gain(ch, cfg, x, [l])
            worst = max(worst, rel(recv, np.conj(ch.gains[l]) * math.sqrt(32 / 12)))
            theta_e = float(rng.integers(1, 181))
            kernel_form = dirichlet_B(theta_e, ch.aods_deg[l], cfg) / sqrt_ln
            worst = max(worst, rel(observed_gain(cfg, 12, theta_e, x), kernel_form))
        # conventional / switched: direct product is its own decomposition;
        # check the full-channel inner product against the coherent main term
        # plus the cross-path leakage recomputed per path
        for kind in (StrategyKind.CONVENTIONAL, StrategyKind.SWITCHED_ARRAY):
            for x in sent_symbols(ch, cfg, kind, 16, 5, 100, seed)[0]:
                parts = receiver_gain(ch, cfg, x, range(12))
                worst = max(worst, rel(full_channel_gain(ch, cfg, x), parts))
        # joint: receiver beta_R form, eavesdropper beta_E / beta_E_hat forms
        for x, main, paths in zip(*joint_symbols(ch, cfg, 16, 5, 100, seed)):
            s, i = paths
            decomposed = (
                np.conj(ch.gains[s]) * 16 + np.conj(ch.gains[i]) * 16
                + beta_r_term(ch, cfg, main, paths)
            ) / sqrt_ln
            worst = max(worst, rel(receiver_gain(ch, cfg, x, paths), decomposed))
            off = 77.3  # fractional, so never aligned with an integer-degree path
            sidelobe = beta_e_term(ch, cfg, main, paths, off)
            worst = max(worst, rel(observed_gain(cfg, 12, off, x), sidelobe))
            mainlobe = beta_e_hat_term(ch, cfg, main, paths, THETA_R) / sqrt_ln
            worst = max(worst, rel(observed_gain(cfg, 12, THETA_R, x), mainlobe))
    report(capsys, 2, worst < 1e-9, f"gain decompositions, worst relative error {worst:.2e}")


def test_criterion_3_random_path_receiver_snr(capsys):
    rho_r = db_to_linear(10.0)
    target = snr_r_random_path(32, 12, rho_r)  # 26.667
    ch = sample_channel(12, THETA_R, np.random.default_rng(1001))
    streams = simulate_streams(
        ch, ArrayConfig(32), StrategyKind.RANDOM_PATH, 16, 5, [THETA_R], 100_000,
        np.random.default_rng(1002),
    )
    sigma_r = channel_stats(ch).mean_gain ** 2 / rho_r
    est = receiver_snr(streams.recv_abs_sum, 100_000, sigma_r)
    err = abs(est - target) / target
    report(
        capsys, 3, err < 0.05,
        f"random-path receiver SNR {est:.3f} vs {target:.3f} ({err:.1%})",
    )


def test_criterion_4_zero_secrecy_baselines(capsys):
    spec = SweepSpec(
        strategies=(StrategyKind.CONVENTIONAL, StrategyKind.SWITCHED_ARRAY),
        axis="theta_e_deg",
        axis_values=(THETA_R,),
        rho_r_db=10.0,
        rho_e_db=15.0,
        symbols_per_point=10_000,
        ensemble=200,
    )
    rows = run_sweep(spec).rows
    ok = all(r.rate_bps_hz == 0.0 and r.stderr == 0.0 for r in rows)
    detail = ", ".join(f"{r.strategy.value}={r.rate_bps_hz:.6f}" for r in rows)
    report(capsys, 4, ok, f"on-path baselines clamp to zero: {detail}")


def test_criterion_5_proposed_ordering_on_path(capsys):
    spec = SweepSpec(
        strategies=(StrategyKind.RANDOM_PATH, StrategyKind.JOINT_PATH_ANTENNA),
        axis="theta_e_deg",
        axis_values=(THETA_R,),
        symbols_per_point=10_000,
        ensemble=200,
    )
    rows = {r.strategy: r for r in run_sweep(spec).rows}
    joint = rows[StrategyKind.JOINT_PATH_ANTENNA]
    rp = rows[StrategyKind.RANDOM_PATH]
    gap = joint.rate_bps_hz - rp.rate_bps_hz
    se = math.hypot(joint.stderr, rp.stderr)
    ok = rp.rate_bps_hz > 0 and gap > 3 * se
    report(
        capsys, 5, ok,
        f"joint {joint.rate_bps_hz:.3f} > random-path {rp.rate_bps_hz:.3f} > 0 "
        f"(gap {gap:.3f} = {gap / se:.1f} SE)",
    )


def test_criterion_6_antenna_count_monotonicity(capsys):
    spec = SweepSpec(
        strategies=(StrategyKind.JOINT_PATH_ANTENNA,),
        axis="n_antennas",
        axis_values=(16.0, 32.0, 64.0),
        symbols_per_point=5000,
        ensemble=800,
    )
    rows = run_sweep(spec).rows
    zs = []
    for a, b in zip(rows, rows[1:]):
        gap = b.rate_bps_hz - a.rate_bps_hz
        zs.append(gap / math.hypot(a.stderr, b.stderr))
    ok = all(z > 3 for z in zs)
    rates = ", ".join(f"N={int(r.axis_value)}:{r.rate_bps_hz:.3f}" for r in rows)
    report(
        capsys, 6, ok,
        f"joint rate increasing in antennas ({rates}; steps at "
        + ", ".join(f"{z:.1f}" for z in zs) + " SE)",
    )


def test_criterion_7_rho_e_degradation(capsys):
    spec = SweepSpec(
        strategies=ALL,
        axis="rho_e_db",
        axis_values=(0.0, 5.0, 10.0, 15.0, 20.0),
        theta_e_deg=THETA_R,
        symbols_per_point=5000,
        ensemble=150,
    )
    table = run_sweep(spec)
    ok = True
    notes = []
    for strat in ALL:
        rows = [r for r in table.rows if r.strategy is strat]
        for a, b in zip(rows, rows[1:]):
            slack = 2 * math.hypot(a.stderr, b.stderr)
            if b.rate_bps_hz > a.rate_bps_hz + slack:
                ok = False
                notes.append(f"{strat.value} increases at rho_e={b.axis_value}")
    final = {r.strategy: r.rate_bps_hz for r in table.rows if r.axis_value == 20.0}
    joint_final = final.pop(StrategyKind.JOINT_PATH_ANTENNA)
    if not all(joint_final > v for v in final.values()):
        ok = False
        notes.append("joint not highest at rho_e=20 dB")
    detail = (
        f"rates nonincreasing in rho_E; joint highest at 20 dB "
        f"({joint_final:.3f} vs max other {max(final.values()):.3f})"
    )
    if notes:
        detail += " — " + "; ".join(notes)
    report(capsys, 7, ok, detail)


def _static_rates_off_path(spec, theta_e):
    """First-principles conventional and switched rates, numpy only.

    Both rows are the same on every channel draw: the receiver noise is
    anchored to the strongest path, which both beams ride, and the
    eavesdropper has unit channel gain.  Returns (conventional rate,
    switched rate, O(1/K) bias of the switched row in bits, array factor)
    for half-wavelength spacing and m = N/2.
    """
    n, L, m = spec.n_antennas, spec.n_paths, spec.n_antennas // 2
    rho_r, rho_e = 10 ** (spec.rho_r_db / 10), 10 ** (spec.rho_e_db / 10)
    psi = np.pi * (np.cos(np.deg2rad(spec.theta_r_deg)) - np.cos(np.deg2rad(theta_e)))
    af = np.sin(n * psi / 2) / (n * np.sin(psi / 2))
    noise = 1.0 / rho_e
    conv = math.log2(1 + n * rho_r / L) - math.log2(1 + rho_e * (n / L) * af**2)
    # switched: the 1/sqrt(m) unit-power weights leave the receiver m rho_R / L;
    # the eavesdropper sees sqrt(N/L) / sqrt(N m) times a uniform m-subset sum
    # of N unit phasors, with mean m AF and finite-population variance
    # m (N-m) / (N (N-1)) * N (1 - AF^2)
    mu_sq = (m / L) * af**2
    var = (n - m) * (1 - af**2) / (L * (n - 1))
    snr_e = mu_sq / (var + noise)
    sw = math.log2(1 + m * rho_r / L) - math.log2(1 + snr_e)
    # the K-symbol |mean|^2 and variance estimates are each off by var / K,
    # through d rate / d SNR_E = 1 / ((1 + SNR_E) ln 2)
    bias = (var / spec.symbols_per_point) / ((var + noise) * math.log(2))
    return conv, sw, bias, af


def _random_path_rate(spec, theta_e, aods, mags, f):
    """Random-path rate of one channel under the alignment mixture, numpy only.

    Each row of f holds path-draw frequencies; f = 1/L is the limit of many
    symbols.  The receiver gets N rho_R / L, scaled by the drawn paths' mean
    |alpha| over the all-path mean (its noise anchor).  The eavesdropper
    intercepts the full beam (SNR rho_E N / L) on the symbols whose path
    lies at theta_e; on the others it sees B(theta_e, theta_l) / sqrt(L N),
    whose spread over the drawn paths acts as noise.
    """
    n, L = spec.n_antennas, spec.n_paths
    rho_r, rho_e = 10 ** (spec.rho_r_db / 10), 10 ** (spec.rho_e_db / 10)
    hit = aods == theta_e
    psi = np.pi * (np.cos(np.deg2rad(theta_e)) - np.cos(np.deg2rad(aods[~hit])))
    b = np.sin(n * psi / 2) / np.sin(psi / 2) / math.sqrt(L * n)
    snr_r = (n * rho_r / L) * (f @ mags / mags.mean()) ** 2
    w = f[:, ~hit]
    fu = w.sum(axis=1)
    m1, m2 = w @ b / fu, w @ b**2 / fu
    snr_e = f[:, hit].sum(axis=1) * rho_e * n / L + fu * m1**2 / (m2 - m1**2 + 1 / rho_e)
    return np.maximum(0.0, np.log2(1 + snr_r) - np.log2(1 + snr_e))


def _random_path_expected(spec, theta_e):
    """Ensemble-mean random-path rate and its K-symbol sampling SE, numpy only.

    Each channel's AoDs and gain magnitudes are rebuilt from the sweep's
    channel stream (seeded by base seed, 0xC0FFEE, L and ensemble index;
    AoDs drawn before the CN(0, 1) gains, the strongest gain moved to the
    receiver path).  The SE is the delta method over the multinomial path
    counts of K symbols: per channel, the variance over paths of
    d rate / d f_l, divided by K.
    """
    L, K = spec.n_paths, spec.symbols_per_point
    others = np.setdiff1d(np.arange(1, 181), [spec.theta_r_deg])
    eps = 1e-6
    f = np.full((L + 1, L), 1.0 / L)
    f[1:] += eps * np.eye(L)
    rates, var = [], 0.0
    for ens in range(spec.ensemble):
        rng = np.random.default_rng(np.random.SeedSequence([spec.base_seed, 0xC0FFEE, L, ens]))
        aods = np.concatenate(([spec.theta_r_deg], rng.choice(others, L - 1, replace=False)))
        mags = np.abs(rng.standard_normal(L) + 1j * rng.standard_normal(L))
        top = np.argmax(mags)
        mags[[0, top]] = mags[[top, 0]]
        r = _random_path_rate(spec, theta_e, aods, mags, f)
        rates.append(r[0])
        var += np.var((r[1:] - r[0]) / eps) / K
    return float(np.mean(rates)), math.sqrt(var) / spec.ensemble


def test_criterion_8_off_path_ordering(capsys):
    """Four-way ordering for an eavesdropper off the main path, at 55 deg.

    The conventional, switched and random-path rows are checked against
    values derived here with numpy (N=32, L=12, m=16, rho_R=10 dB,
    rho_E=15 dB).  The derivations restate the program's documented
    conventions: strongest-path receiver noise anchor for the static beams
    and all-path mean anchor for random-path, unit-power weights, a
    unit-gain eavesdropper with noise 1/rho_E, and the alignment mixture
    for random-path.  They check the program against those conventions,
    not against the paper, whose equations are not in the repository yet;
    this criterion should be checked again once they are.

    55 deg lies 0.35 deg past the third null of the beam steered at 40 deg
    (54.65 deg), so the conventional eavesdropper gets almost nothing,
    while the switched beam pays 10 log10(N/m) = 3 dB at the receiver for
    its unit-power weights.  The two rows therefore sit 0.886 bit apart on
    every seed, more than the 4 SE that "switched >= random-path" and
    "random-path >= conventional" (each within 2 SE) would allow together:
    that ordering is unreachable in this model and is not asserted.
    Random-path's place among the baselines depends on the eavesdropper
    model (the closed form of `snr_e_random_path`, which always carries the
    1/L mainlobe term, puts it below switched; the alignment mixture puts it
    above), so its row is checked against its derivation instead.

    Asserted: the three derived rows, within 4 sampling SEs (the switched
    row's SE is its own stderr, as its rate does not depend on the channel;
    random-path's is the delta-method SE of its 10,000-symbol path counts),
    plus the switched row's O(1/K) bias; and, with the 2-SE rule, joint
    above switched and above conventional: the paper's claim for the
    proposed technique.
    """
    spec = SweepSpec(
        strategies=ALL,
        axis="theta_e_deg",
        axis_values=(55.0,),
        symbols_per_point=10_000,
        ensemble=200,
    )
    rows = {r.strategy: r for r in run_sweep(spec).rows}
    conv_x, sw_x, sw_bias, af = _static_rates_off_path(spec, 55.0)
    rp_x, rp_se = _random_path_expected(spec, 55.0)
    # nulls of the N-element beam at 40 deg: cos(theta) = cos 40 - 2k/N
    null_deg = math.degrees(
        math.acos(math.cos(math.radians(THETA_R)) - 2 * 3 / spec.n_antennas)
    )
    conv = rows[StrategyKind.CONVENTIONAL]
    sw = rows[StrategyKind.SWITCHED_ARRAY]
    rp = rows[StrategyKind.RANDOM_PATH]
    joint = rows[StrategyKind.JOINT_PATH_ANTENNA]
    ok = True
    notes = []

    def matches(row, expected, tol):
        nonlocal ok
        good = abs(row.rate_bps_hz - expected) <= tol
        ok &= good
        notes.append(
            f"{row.strategy.value}={row.rate_bps_hz:.6f} vs derived {expected:.6f} "
            f"(tol {tol:.1e}): {'ok' if good else 'MISMATCH'}"
        )

    def above(a, b):
        nonlocal ok
        z = (a.rate_bps_hz - b.rate_bps_hz) / math.hypot(a.stderr, b.stderr)
        ok &= z > 2
        verdict = "ok" if z > 2 else "FAILED"
        notes.append(f"{a.strategy.value}>{b.strategy.value}: {verdict} ({z:.1f} SE)")

    matches(conv, conv_x, 1e-9)  # one static beam: rounding only
    matches(sw, sw_x, 4 * sw.stderr + sw_bias)
    matches(rp, rp_x, 4 * rp_se)
    above(joint, sw)
    above(joint, conv)
    notes.append(
        f"derived conventional-switched gap {conv_x - sw_x:.3f} bit; "
        f"AF^2={af**2:.2e}, 55 deg is {55.0 - null_deg:.2f} deg past the 3rd null "
        f"at {null_deg:.2f} deg"
    )
    rates = ", ".join(f"{s.value}={rows[s].rate_bps_hz:.3f}" for s in ALL)
    report(capsys, 8, ok, f"off-path ordering at theta_E=55: {rates} [{'; '.join(notes)}]")


def test_criterion_9_moment_oracle(capsys):
    cfg = ArrayConfig(32)
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        ch = sample_channel(12, THETA_R, rng)
        theta_e = float(rng.integers(1, 181))
        mean, var = b_moments(theta_e, ch.aods_deg, cfg)
        vals = np.array([dirichlet_B(theta_e, a, cfg) for a in ch.aods_deg])
        worst = max(worst, abs(mean - vals.mean()))
        worst = max(worst, abs(var - (np.mean(vals**2) - vals.mean() ** 2)))
    report(capsys, 9, worst < 1e-12, f"kernel moments vs enumeration, worst diff {worst:.2e}")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    args = [
        "sweep", "--axis", "rho-e", "--values", "10,15",
        "--strategies", "all", "--symbols", "200", "--ensemble", "2", "--seed", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main([*args, "-o", str(out1)])
    code2 = cli_main([*args, "-o", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    report(capsys, 10, ok, "identical config and seed give byte-identical CSV")
