"""Build a closed-string solution and verify its geometry numerically.

The one-winding family is labelled by (f, b, n); the worldsheet fields are
products of rotations around the left/right directions.  Every claimed
property (equations of motion, conformal gauge, closure, flat induced
metric) is checked from exact field derivatives against tight tolerances.
"""

import numpy as np

from ads3s3 import (
    canonical_form,
    eom_residual,
    evaluate,
    family_solution,
    gauge_residual,
    induced_metric_numeric,
    verify_solution,
    winding_numbers,
)
from ads3s3.solutions import apply_isometry
from ads3s3.algebra import AdsAlgebraElement, SphereAlgebraElement, exp_algebra

sol = family_solution(f=5 / 3, b=5 / 4, n=1)
print("frequencies: lam =", sol.lam, " rho =", sol.rho, " windings (m, n) =", (sol.m, sol.n))

g, h = evaluate(sol, tau=0.4, sigma=1.0)
print("det g(0.4, 1.0) =", np.linalg.det(g.matrix))
print("|h^dag h - I|   =", np.max(np.abs(h.matrix.conj().T @ h.matrix - np.eye(2))))

print("\n== residuals at a random worldsheet point ==")
print("equations of motion:", eom_residual(sol, 0.7, 2.1))
gr = gauge_residual(sol, 0.7, 2.1)
print("conformal gauge (chiral, antichiral):", (gr.chiral, gr.antichiral))
print("per-sector invariants mu^2:", (gr.mu2_ads, gr.mu2_sphere))

print("\n== induced metric is constant (flat worldsheet) ==")
for point in ((0.0, 0.0), (1.3, 2.0), (0.5, 5.5)):
    im = induced_metric_numeric(sol, *point)
    print(f"  f_ab at {point}: [{im.ads[0, 0]:+.9f}, {im.ads[0, 1]:+.9f}; "
          f"..., {im.ads[1, 1]:+.9f}]")

print("\n== winding numbers from the embedding ==")
print("(AdS, sphere):", winding_numbers(sol))

print("\n== isometries move the solution, canonical form undoes them ==")
moved = apply_isometry(
    sol,
    g_left=exp_algebra(AdsAlgebraElement(np.array([0.3, 0.8, -0.2])), 1.0),
    h_left=exp_algebra(SphereAlgebraElement(np.array([0.5, -0.1, 0.9])), 1.0),
)
_, angles = canonical_form(moved)
print("recovered (theta, theta_s):", (angles.theta, angles.theta_s))

print("\n== full verification battery ==")
report = verify_solution(sol)
for key, value in report.values.items():
    print(f"  {key:16s} {value:.3e}")
print("all checks passed:", report.ok)
