"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the library's verification
defaults; random draws use fixed seeds.
"""

import math
from fractions import Fraction

import numpy as np

from ads3s3 import algebra as al
from ads3s3.bridge import _sector_invariants, bridge, f_max, family_relations
from ads3s3.charges import charge_coefficients, charges_analytic, charges_numeric
from ads3s3.cli import main as cli_main
from ads3s3.geometry import (
    eom_residual,
    gauge_residual,
    induced_metric_analytic,
    induced_metric_numeric,
)
from ads3s3.solutions import embedding_surface, evaluate_matrices, family_solution, winding_numbers
from ads3s3.symplectic import (
    ParticleChart,
    StringChart,
    gradient,
)

from test_symplectic import (
    bracket_table_residual,
    jacobi_residual,
    random_particle_point,
    random_string_point,
)

F0, B0 = 5.0 / 3.0, 5.0 / 4.0
T0, T1, T2 = al.ads_basis()
S1, S2, S3 = al.sphere_basis()


def report(criterion, name, value, tol, note=""):
    status = "PASS" if value <= tol else "FAIL"
    print(f"ACCEPTANCE {criterion} {name}: {status} "
          f"(max residual {value:.3e}, tolerance {tol:.0e}){note}")
    assert value <= tol, f"criterion {criterion} {name}: {value} > {tol}"


def sample_admissible(rng, n):
    """Random admissible (f, b) with a frequency budget.

    The finite-difference tolerances of criterion 2 presume moderate
    worldsheet frequencies; the draw keeps lam = n (e + f) / 2 below ~2 by
    bounding e + f, staying strictly inside the admissible band.
    """
    s_max = 4.0 / n
    f_hi = 0.5 * (s_max + 1.0 / s_max)
    f = rng.uniform(1.0 + 1e-3, max(1.0 + 2e-3, f_hi))
    b_lo = max(1.0, (f * f - 2.0) / f)
    b = rng.uniform(b_lo + 1e-4, f)
    return f, b


def test_criterion_1_algebra_identities():
    worst = 0.0
    # basis products, both sectors, all 9 pairs entrywise
    for i, u in enumerate((T0, T1, T2)):
        for j, v in enumerate((T0, T1, T2)):
            rhs = al.ETA[i, j] * np.eye(2) + np.einsum(
                "r,rab->ab", al.EPS_MIXED[i, j], al.T_BASIS)
            worst = max(worst, float(np.max(np.abs(u.matrix @ v.matrix - rhs))))
    for i, u in enumerate((S1, S2, S3)):
        for j, v in enumerate((S1, S2, S3)):
            rhs = -(i == j) * np.eye(2) - np.einsum("l,lab->ab", al.EPS[i, j], al.S_BASIS)
            worst = max(worst, float(np.max(np.abs(u.matrix @ v.matrix - rhs))))
    # epsilon summation rule over all index tuples
    lhs = np.einsum("mnr,abr->mnab", al.EPS, al.EPS_MIXED)
    rhs = (np.einsum("mb,na->mnab", al.ETA, al.ETA)
           - np.einsum("ma,nb->mnab", al.ETA, al.ETA))
    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    # r l' r identity on 1000 random vectors
    rng = np.random.default_rng(101)
    for _ in range(1000):
        r = al.UnitTimelikeVector(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)).element
        lp = al.AdsAlgebraElement(rng.uniform(-2, 2, 3))
        res = r.matrix @ lp.matrix @ r.matrix - lp.matrix \
            - 2.0 * al.inner(r, lp) * r.matrix
        worst = max(worst, float(np.max(np.abs(res))))
    report(1, "algebra-identities", worst, 1e-12)


def test_criterion_2_exact_solution_verification():
    rng = np.random.default_rng(102)
    worst = {"eom": 0.0, "gauge": 0.0, "periodicity": 0.0, "embedding": 0.0,
             "metric_spread": 0.0, "metric_gap": 0.0}
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f, b = sample_admissible(rng, n)
        sol = family_solution(f, b, n)
        probes = [(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)) for _ in range(2)]

        for t, s in probes:
            ra, rs = eom_residual(sol, t, s)
            worst["eom"] = max(worst["eom"], ra, rs)
            gr = gauge_residual(sol, t, s)
            worst["gauge"] = max(worst["gauge"], abs(gr.chiral), abs(gr.antichiral))

        taus = np.linspace(0.0, 1.2, 3)
        sigmas = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
        ga, ha = evaluate_matrices(sol, taus[:, None], sigmas[None, :])
        gb, hb = evaluate_matrices(sol, taus[:, None], sigmas[None, :] + 2 * math.pi)
        worst["periodicity"] = max(worst["periodicity"],
                                   float(np.max(np.abs(ga - gb))),
                                   float(np.max(np.abs(ha - hb))))
        y, x = embedding_surface(sol, taus, sigmas)
        worst["embedding"] = max(
            worst["embedding"],
            float(np.max(np.abs(al.ads_dot(y, y) + 1.0))),
            float(np.max(np.abs(np.einsum("...i,...i->...", x, x) - 1.0))))

        expected = induced_metric_analytic(bridge(f, b, n))
        mats = []
        for t, s in probes + [(0.3, 5.1)]:
            im = induced_metric_numeric(sol, t, s)
            mats.append(np.concatenate([im.ads.ravel(), im.sphere.ravel()]))
            worst["metric_gap"] = max(worst["metric_gap"],
                                      float(np.max(np.abs(im.ads - expected.ads))),
                                      float(np.max(np.abs(im.sphere - expected.sphere))))
        worst["metric_spread"] = max(worst["metric_spread"],
                                     float(np.ptp(np.stack(mats), axis=0).max()))

    report(2, "eom-residual", worst["eom"], 1e-6)
    report(2, "gauge-residual", worst["gauge"], 1e-6)
    report(2, "periodicity", worst["periodicity"], 1e-10)
    report(2, "embedding-constraints", worst["embedding"], 1e-12)
    report(2, "metric-constancy", worst["metric_spread"], 1e-8)
    report(2, "metric-numeric-vs-analytic", worst["metric_gap"], 1e-6)


def test_criterion_3_bridge_reproduction():
    # exact-arithmetic oracle at (5/3, 5/4, 1); cosh(alpha) = 64/sqrt(1071)
    # and cos(beta) = 27/(4 sqrt(119)) follow from the dual-side evaluation
    # and are pinned by the cross identities below
    f, b = Fraction(5, 3), Fraction(5, 4)
    c2t = b * f - b * b + 1
    c2ts = f * f - b * f - 1
    mu2 = Fraction(1, 4) * (f - 1) * (f + c2t)
    mubar2 = Fraction(1, 4) * (f + 1) * (f - c2t)
    e2, a2 = f * f - 1, b * b - 1
    coshalpha = math.sqrt(e2 / (e2 - (c2t * c2t - 1)))
    cosbeta = math.sqrt(a2 / (a2 + (1 - c2ts * c2ts)))

    blk = bridge(F0, B0, 1)
    gap = max(abs(blk.mu2 - float(mu2)), abs(blk.mubar2 - float(mubar2)),
              abs(blk.cosh2theta - float(c2t)), abs(blk.cos2theta_s - float(c2ts)),
              abs(blk.coshalpha - coshalpha), abs(blk.cosbeta - cosbeta))
    report(3, "reference-values", gap, 1e-6,
           note=" [mu2=0.53125, mubar2=0.0972222, cosh2th=1.5208333,"
                " cos2th_s=-0.3055556, coshalpha=1.9556235, cosbeta=0.6187715]")

    (mu2_a, mubar2_a, _), (mu2_s, mubar2_s, _) = _sector_invariants(family_relations(F0, B0, 1))
    side_gap = max(abs(mu2_a - mu2_s), abs(mubar2_a - mubar2_s))
    report(3, "dual-side-agreement", side_gap, 1e-12)

    prod = 4.0 * blk.mu * blk.mubar
    cross = max(abs(prod * blk.coshalpha - blk.E ** 2),
                abs(prod * blk.cosbeta - blk.A ** 2))
    report(3, "cross-identities", cross, 1e-10)


def test_criterion_4_charges():
    sol = family_solution(F0, B0, 1)
    ana = charges_analytic(sol)
    num0 = charges_numeric(sol, tau=0.0)
    num1 = charges_numeric(sol, tau=1.7)

    quad_gap = max(float(np.max(np.abs(a.coeffs - b.coeffs))) for a, b in (
        (num0.L, ana.L), (num0.R, ana.R), (num0.L_s, ana.L_s), (num0.R_s, ana.R_s)))
    report(4, "quadrature-vs-closed-form", quad_gap, 1e-10)

    tau_gap = max(float(np.max(np.abs(a.coeffs - b.coeffs))) for a, b in (
        (num0.L, num1.L), (num0.R, num1.R), (num0.L_s, num1.L_s), (num0.R_s, num1.R_s)))
    report(4, "tau-independence", tau_gap, 1e-10)

    value_gap = max(abs(ana.m_L - 1.2465278), abs(ana.m_R - 2.1145833))
    report(4, "casimir-asymmetry-values", value_gap, 1e-6,
           note=f" [m_L={ana.m_L:.7f}, m_R={ana.m_R:.7f}]")


def test_criterion_5_particle_poisson_algebra():
    rng = np.random.default_rng(105)
    worst_algebra = 0.0
    worst_casimir = 0.0
    charts = []
    for _ in range(20):
        point = random_particle_point(rng)
        chart = ParticleChart(point)
        x = chart.coords(point)
        charts.append((chart, x))
        form = chart.form(x)
        worst_algebra = max(worst_algebra, bracket_table_residual(chart, form, x))
        grads = gradient(chart.charges, x, 1e-6)
        grads_cas = gradient(chart.orbit_coefficients, x, 1e-6)
        vals = np.abs(-grads_cas @ form.inverse() @ grads.T)
        worst_casimir = max(worst_casimir, float(np.max(vals)))
    report(5, "bracket-algebra", worst_algebra, 1e-6)
    report(5, "casimir-brackets", worst_casimir, 1e-6)

    worst_jacobi = max(jacobi_residual(chart, x) for chart, x in charts[:3])
    report(5, "jacobi-identity", worst_jacobi, 1e-4)


def test_criterion_6_string_poisson_algebra():
    rng = np.random.default_rng(106)
    worst_algebra = 0.0
    worst_block = 0.0
    worst_invariant = 0.0
    for k in range(20):
        point = random_string_point(rng, n=1 + k % 2)
        chart = StringChart(point)
        x = chart.coords(point)
        form = chart.form(x)
        worst_algebra = max(worst_algebra, bracket_table_residual(chart, form, x))

        sol = chart.solution(x)
        expect = charge_coefficients(charges_analytic(sol), sol)
        got = chart.orbit_block_coefficients(form)
        worst_block = max(worst_block, max(abs(g - e) for g, e in zip(got, expect)))

        inv_form = form.inverse()
        grads_cas = gradient(chart.orbit_coefficients, x, 1e-6)
        grads_all = np.concatenate([gradient(chart.charges, x, 1e-6), grads_cas])
        table = np.abs(-grads_cas @ inv_form @ grads_all.T)
        worst_invariant = max(worst_invariant, float(np.max(table)))
    report(6, "charge-brackets-close", worst_algebra, 1e-5)
    report(6, "orbit-block-coefficients", worst_block, 1e-5)
    report(6, "invariant-functions-central", worst_invariant, 1e-5)


def test_criterion_7_mesh_export(tmp_path, capsys):
    paths = [tmp_path / "mesh_a.csv", tmp_path / "mesh_b.csv"]
    for path in paths:
        code = cli_main(["sample", "--f", repr(F0), "--b", repr(B0), "--n", "1",
                         "--tau-steps", "64", "--sigma-steps", "64",
                         "--out", str(path)])
        assert code == 0
    capsys.readouterr()

    rows = paths[0].read_text().strip().split("\n")[1:]
    assert len(rows) == 64 * 64
    worst = 0.0
    for line in rows:
        r = np.array(list(map(float, line.split(","))))
        y, x = r[2:6], r[6:10]
        worst = max(worst, abs(-y[0] ** 2 - y[1] ** 2 + y[2] ** 2 + y[3] ** 2 + 1.0),
                    abs(x @ x - 1.0))
    report(7, "mesh-row-constraints", worst, 1e-12)

    n_ads, n_sph = winding_numbers(family_solution(F0, B0, 1))
    winding_gap = float(max(abs(n_ads - 1), abs(n_sph - 1)))
    report(7, "winding-extraction", winding_gap, 0.0,
           note=f" [windings=({n_ads}, {n_sph})]")

    byte_equal = paths[0].read_bytes() == paths[1].read_bytes()
    report(7, "golden-file-byte-equality", 0.0 if byte_equal else 1.0, 0.0)
