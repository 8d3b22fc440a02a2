"""Conserved isometry charges: quadrature against closed form.

The left/right currents average over sigma to Lie-algebra-valued charges
whose Casimir magnitudes label coadjoint orbits.  The string's left and
right Casimirs differ (unlike a point particle) - that asymmetry is the
fingerprint of the winding.
"""

import numpy as np

from ads3s3 import charges_analytic, charges_numeric, currents, family_solution
from ads3s3.charges import charge_coefficients, charge_gap

sol = family_solution(5 / 3, 5 / 4, 1)

print("== currents at (tau, sigma) = (0, 0) ==")
ads, sph = currents(sol, 0.0, 0.0)
print("  L_tau coefficients:", ads.L_tau.coeffs)
print("  R_tau coefficients:", ads.R_tau.coeffs)

print("\n== charges: quadrature (N = 256) vs closed form ==")
num = charges_numeric(sol)
ana = charges_analytic(sol)
for name, a, b in (("L  ", num.L, ana.L), ("R  ", num.R, ana.R),
                   ("L_s", num.L_s, ana.L_s), ("R_s", num.R_s, ana.R_s)):
    gap = np.max(np.abs(a.coeffs - b.coeffs))
    print(f"  {name}: quadrature {a.coeffs}  gap {gap:.2e}")

print("\n== Casimir magnitudes and the left-right asymmetry ==")
print(f"  m_L   = {ana.m_L:.7f}   m_R   = {ana.m_R:.7f}   ratio {ana.m_R / ana.m_L:.5f}")
print(f"  m_L^s = {ana.m_L_s:.7f}   m_R^s = {ana.m_R_s:.7f}")
coefs = charge_coefficients(ana, sol)
print("  signed coefficients (L, R, L_s, R_s):", tuple(f"{c:+.6f}" for c in coefs))

print("\n== conservation: the same charges at a later time ==")
later = charges_numeric(sol, tau=1.7)
print("  max drift:", max(np.max(np.abs(a.coeffs - b.coeffs)) for a, b in
                          ((later.L, num.L), (later.R, num.R),
                           (later.L_s, num.L_s), (later.R_s, num.R_s))))

print("\n== quadrature at any winding (256 nodes, or the next count dividing no winding) ==")
for n in (1, 64, 10 ** 6):
    wound = family_solution(5 / 3, 5 / 4, n)
    exact = charges_analytic(wound)
    gap = charge_gap(charges_numeric(wound), exact)
    print(f"  n = {n:7d}: charge gap {gap:.2e} = {gap / exact.m_L:.1e} m_L")
