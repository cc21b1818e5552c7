"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion prints one pass/fail line (run with `pytest -s` to see them
inline).  Tolerances are pinned here, not configurable.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import lcaframes as lf
from lcaframes.cli import main
from lcaframes.frame import system_to_json

SEED = 0x5EED

# (chain depth M, band bounds, base level) for proper-mode cyclic systems:
# the band must sit properly inside the dual cell at every wavelet level
PROPER_CYCLIC = {
    2: ([0, 0, 3], 1),
    3: ([0, 1, 2, 7], 2),
    4: ([0, 1, 2, 3, 15], 2),
    5: ([0, 1, 2, 3, 4, 31], 2),
    6: ([0, 1, 2, 3, 4, 5, 63], 2),
}


def report(num: int, ok: bool, text: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def certificate_systems():
    """The systems named by the matrix-identity criterion."""
    out = []
    for M in (3, 10):
        ch = lf.integer_chain(M)
        for order in (1, 2, 4):
            out.append((f"Z M={M} spline order {order}", lf.build_bspline_system(ch, order)))
    for M in (3, 6):
        bounds, k0 = PROPER_CYCLIC[M]
        band = lf.band_chain_cyclic(lf.cyclic_chain(M), bounds)
        out.append((f"Z_{2**M} proper", lf.build_charfun_system(band, "proper", k0=k0)))
        full = lf.full_band_chain(lf.cyclic_chain(M))
        out.append((f"Z_{2**M} shannon", lf.build_charfun_system(full, "shannon")))
    tch = lf.torus_chain([2, 3, 2])
    out.append(
        ("T proper", lf.build_charfun_system(lf.band_chain_torus(lf.torus_chain([2, 3, 2]), [0, 1, 3]), "proper"))
    )
    out.append(("T shannon", lf.build_charfun_system(lf.full_band_chain(tch), "shannon")))
    return out


def test_criterion_1_uep_matrix_certificates():
    t0 = time.monotonic()
    worst = 0.0
    for name, system in certificate_systems():
        for lfilters in system.level_filters:
            plan = lf.dual_sampling_plan(system.chain, lfilters.k, grid=4096, random=1024, seed=SEED)
            rep = lf.verify_uep(system.uep_matrix(lfilters.k), plan)
            assert rep.residual <= 1e-12, (name, lfilters.k, rep.residual)
            worst = max(worst, rep.residual)
    elapsed = time.monotonic() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"coset-matrix identity residual <= 1e-12 on all systems "
        f"(worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_refinement_identity():
    t0 = time.monotonic()
    worst = 0.0
    for name, system in certificate_systems():
        for lfilters in system.level_filters:
            plan = lf.dual_sampling_plan(system.chain, lfilters.k, grid=4096, random=1024, seed=SEED)
            if system.family["type"] == "bspline":
                res = lf.refinement_residual(
                    system.chain, lfilters.k, system.family["order"], plan
                )
            else:
                res = lf.indicator_refinement_residual(system.band, lfilters.k, plan)
            assert res <= 1e-12, (name, lfilters.k, res)
            worst = max(worst, res)
    elapsed = time.monotonic() - t0
    report(
        2,
        worst <= 1e-12 and elapsed < 2.0,
        f"refinement identity residual <= 1e-12 on all systems (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_fiber_oracle():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    worst = 0.0
    for M in (3, 4):  # Z_8 and Z_16
        chain = lf.cyclic_chain(M)
        n = chain.group.modulus
        for _ in range(50):
            k = rng.randrange(0, M + 1)
            F = lf.random_test_function(chain.dual, (0, n - 1), rng)
            Phi = lf.random_test_function(chain.dual, (0, n - 1), rng)
            lhs, rhs = lf.fiber_identity_sides(
                chain.level(k).lattice, chain.level(k).domain_v, F, Phi
            )
            diff = abs(lhs - rhs)
            assert diff <= 1e-12, (M, k, diff)
            worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    report(
        3,
        worst <= 1e-12 and elapsed < 1.0,
        f"fiber-sum identity exact on 100 seeded trials (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_4_telescoping():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    worst = 0.0
    spline = lf.build_bspline_system(lf.integer_chain(3), 2)
    for _ in range(20):
        f = lf.random_test_function(lf.integer_group(), (0, 20), rng)
        for k in range(3):
            worst = max(worst, lf.telescoping_residual(spline, k, f))
    shannon = lf.build_charfun_system(lf.full_band_chain(lf.cyclic_chain(3)), "shannon")
    for _ in range(20):
        f = lf.random_test_function(lf.cyclic_group(8), (0, 7), rng)
        for k in range(3):
            worst = max(worst, lf.telescoping_residual(shannon, k, f))
    elapsed = time.monotonic() - t0
    report(
        4,
        worst <= 1e-12 and elapsed < 2.0,
        f"level-telescoping residual <= 1e-12 over seeded trials (worst {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_5_parseval_bound_one():
    t0 = time.monotonic()
    worst_op = 0.0
    for M in range(2, 7):
        full = lf.full_band_chain(lf.cyclic_chain(M))
        shannon = lf.build_charfun_system(full, "shannon")
        n = 2**M
        dev = float(np.max(np.abs(lf.frame_operator(shannon) - np.eye(n))))
        assert dev <= 1e-12, ("shannon", M, dev)
        worst_op = max(worst_op, dev)
        bounds, k0 = PROPER_CYCLIC[M]
        proper = lf.build_charfun_system(lf.band_chain_cyclic(lf.cyclic_chain(M), bounds), "proper", k0=k0)
        dev = float(np.max(np.abs(lf.frame_operator(proper) - np.eye(n))))
        assert dev <= 1e-12, ("proper", M, dev)
        worst_op = max(worst_op, dev)
    worst_par = 0.0
    ch = lf.integer_chain(10)
    for order in (1, 2, 4):
        system = lf.build_bspline_system(ch, order)
        rng = random.Random(SEED)
        for _ in range(100):
            f = lf.random_test_function(lf.integer_group(), (0, 20), rng)
            res = lf.parseval_residual(system, f)
            assert res <= 1e-10, (order, res)
            worst_par = max(worst_par, res)
    elapsed = time.monotonic() - t0
    report(
        5,
        worst_op <= 1e-12 and worst_par <= 1e-10 and elapsed < 30.0,
        f"frame operator = identity (worst {worst_op:.2e}) and relative Parseval defect "
        f"<= 1e-10 over 300 seeded trials (worst {worst_par:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_6_orthonormal_families():
    worst = 0.0
    # first-order spline family on Z: unit norms and windowed Gram identity
    M = 6
    haar = lf.build_bspline_system(lf.integer_chain(M), 1)
    for k in range(M + 1):
        worst = max(worst, abs(lf.bspline_time(haar.chain, k, 1).norm2() - 1))
    for gen in haar.wavelets:
        worst = max(worst, abs(gen.time.norm2() - 1))
    n = 2**M
    vectors = []
    for gen in haar.system_generators():
        g = gen.time
        step = int(haar.chain.level(gen.level).lattice.step[0])
        lam = 0
        while lam + g.stop <= n:
            vec = np.zeros(n, dtype=complex)
            vec[lam + g.start : lam + g.stop] = g.array
            vectors.append(vec)
            lam += step
    basis = np.array(vectors)
    assert basis.shape == (n, n)
    worst = max(worst, float(np.max(np.abs(basis.conj() @ basis.T - np.eye(n)))))
    # orthonormal band family on Z_8
    shannon = lf.build_charfun_system(lf.full_band_chain(lf.cyclic_chain(3)), "shannon")
    vectors = []
    for gen in shannon.system_generators():
        worst = max(worst, abs(gen.freq.norm2() - 1))
        for lam in shannon.chain.level(gen.level).lattice.points():
            vectors.append(gen.time.translate(lam).array)
    basis = np.array(vectors)
    worst = max(worst, float(np.max(np.abs(basis.conj() @ basis.T - np.eye(8)))))
    report(
        6,
        worst <= 1e-12,
        f"unit norms and windowed Gram identity for both orthonormal families (worst {worst:.2e})",
    )


def test_criterion_7_wavelet_plot_data(tmp_path):
    desc = {
        "group": {"variant": "integers", "params": {}},
        "chain": {"M": 10},
        "family": {"bspline": {"order": 2}},
    }
    dpath = tmp_path / "desc.json"
    dpath.write_text(json.dumps(desc))
    spath = tmp_path / "system.json"
    assert main(["construct", "--descriptor", str(dpath), "--out", str(spath)]) == 0
    out = tmp_path / "fig"
    assert main(["emit", str(spath), "--what", "figure1", "--out", str(out)]) == 0

    ch = lf.integer_chain(10)
    phi = np.convolve(np.ones(16), np.ones(16)) * 16.0**-1.5  # independent oracle
    masks = {
        1: np.array([0.5, 0.0, -0.5]),
        2: np.array([1.0, -2.0, 1.0]) * 2**-1.5,
    }
    ok = True
    notes = []
    for m in (1, 2):
        data = np.loadtxt(out / f"psi_5_{m}.csv", delimiter=",", skiprows=2)
        idx, vals = data[:, 0].astype(int), data[:, 1]
        oracle = np.zeros(63)
        for j, c in enumerate(masks[m]):
            oracle[16 * j : 16 * j + 31] += c * phi
        ok &= len(vals) == 63 and idx[0] == 0 and idx[-1] == 62
        ok &= bool(np.max(np.abs(vals - oracle)) <= 1e-12)
        predicted_support = set(np.nonzero(np.abs(oracle) > 0)[0])
        emitted_support = set(np.nonzero(np.abs(vals) > 0)[0])
        ok &= predicted_support == emitted_support
        ok &= abs(vals.sum()) <= 1e-12
        norm_direct = float(np.sum(vals**2))
        # independent norm through the autocorrelation of the scaling values
        corr = np.correlate(phi, phi, "full")

        def autocorr(lag):
            i = len(phi) - 1 + lag
            return corr[i] if 0 <= i < len(corr) else 0.0

        norm_mask = sum(
            masks[m][j] * masks[m][jp] * autocorr(16 * (j - jp))
            for j in range(3)
            for jp in range(3)
        )
        ok &= abs(norm_direct - norm_mask) <= 1e-12
        notes.append(f"psi[5][{m}] support {min(emitted_support)}..{max(emitted_support)}")
    d2 = np.loadtxt(out / "psi_5_2.csv", delimiter=",", skiprows=2)
    ok &= abs(float((d2[:, 0] * d2[:, 1]).sum())) <= 1e-10  # first moment
    ok &= bool(np.allclose(masks[2], masks[2][::-1]))  # palindromic mask
    report(7, ok, "structural checks on the emitted order-2 wavelets (" + "; ".join(notes) + ")")


def test_criterion_8_tile_algorithm():
    t0 = time.monotonic()
    twin = lf.TileSpec(((1, -1), (1, 1)), (1, 0))
    rot = lf.TileSpec(((0, 2), (-1, 0)), (1, 0))
    ok = True
    for spec in (twin, rot):
        for r in range(1, 17):
            ok &= lf.selfsimilarity_holds(spec, r)
    from lcaframes.tiles import scaled_points

    ok &= len(scaled_points(twin, 16)) == 2**16
    est_t, _ = lf.measure_estimate(twin, 16, Fraction(1, 64))
    est_r, _ = lf.measure_estimate(rot, 16, Fraction(1, 64))
    ok &= abs(est_t - 1) <= 0.15 and abs(est_r - 1) <= 0.15
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(
        8,
        ok,
        f"self-similarity exact to r=16, 2^16 distinct points, box-count estimates "
        f"{est_t:.3f} / {est_r:.3f} ({elapsed:.2f}s)",
    )


def test_criterion_9_negative_controls(tmp_path):
    shannon = lf.build_charfun_system(lf.full_band_chain(lf.cyclic_chain(3)), "shannon")
    data = system_to_json(shannon)
    for piece in data["filters"][1]["g"][0]["pieces"]:
        piece["value"] = {"re": 0.0, "im": 0.0}
    corrupted_path = tmp_path / "corrupted.json"
    corrupted_path.write_text(json.dumps(data))
    from lcaframes.frame import system_from_json

    bad = system_from_json(data)
    # matrix identity breaks by a full unit at the origin
    P = bad.uep_matrix(1)
    m = P.eval_many(0)[0]
    residual0 = float(np.max(np.abs(m.conj().T @ m - 2 * np.eye(2))))
    ok = residual0 >= 1.0
    # frame operator drifts visibly from the identity
    dev = float(np.max(np.abs(lf.frame_operator(bad) - np.eye(8))))
    ok &= dev >= 0.1
    # and the CLI reports failure
    exit_code = main(["verify", str(corrupted_path), "--suite", "all"])
    ok &= exit_code == 1
    report(
        9,
        ok,
        f"zeroed wavelet filter: matrix residual {residual0:.1f} >= 1, operator deviation "
        f"{dev:.2f} >= 0.1, verify exit code {exit_code}",
    )
