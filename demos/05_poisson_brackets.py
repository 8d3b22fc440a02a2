"""Realize the particle and string symplectic structures numerically.

The particle phase space carries a block form built from coadjoint-orbit
pieces; the string form is computed with no closed form at all, by
differentiating the presymplectic 1-form on the twelve-parameter solution
chart.  Both reproduce the same left/right bracket algebra.
"""

import numpy as np

from ads3s3 import (
    ParticleChart,
    ParticleChartPoint,
    StringChart,
    StringChartPoint,
    UnitSphereVector,
    UnitTimelikeVector,
)
from ads3s3.charges import charge_coefficients, charges_analytic
from ads3s3.symplectic import BRACKET_STRUCTURE, CHARGE_NAMES, bracket_table

point = ParticleChartPoint(
    lhat=UnitTimelikeVector(0.4, 0.7), rhat=UnitTimelikeVector(0.8, 2.1),
    lhat_s=UnitSphereVector(0.9, 0.3), rhat_s=UnitSphereVector(1.7, 1.2),
    m_s=0.8, M=1.1)
chart = ParticleChart(point)
x = chart.coords(point)
form = chart.form(x)
print("== particle phase space ==")
print("chart:", chart.labels)
print("mass shell: m = sqrt(M^2 + m_s^2) =", point.m)
print("form condition number:", f"{form.condition_number:.1f}")

print("\nbrackets vs the left/right algebra:")
table = bracket_table(chart.charges_jacobian(x), form)  # {Q_a, Q_b} over CHARGE_NAMES
expected = BRACKET_STRUCTURE @ chart.charges(x)
for a, b in (("L1", "L2"), ("R1", "R2"), ("L0", "R1"), ("Ls1", "Ls2"), ("Rs1", "Rs2")):
    i, j = CHARGE_NAMES.index(a), CHARGE_NAMES.index(b)
    print(f"  {{{a}, {b}}} = {table[i, j]:+.8f}   expected {expected[i, j]:+.8f}")

print("\n== string phase space (d-theta on the 12-chart from exact chart tangents) ==")
spoint = StringChartPoint(
    lhat=UnitTimelikeVector(0.3, 0.5), rhat=UnitTimelikeVector(0.7, 2.6),
    lhat_s=UnitSphereVector(0.8, 0.4), rhat_s=UnitSphereVector(2.0, 2.9),
    f=5 / 3, b=5 / 4, phi1=0.4, phi2=0.9, n=1)
schart = StringChart(spoint)
sx = schart.coords(spoint)
sform = schart.form(sx)
print("chart:", schart.labels)

sol = schart.solution(sx)
expect = charge_coefficients(charges_analytic(sol), sol)
got = schart.orbit_block_coefficients(sform)
print("orbit-block coefficients vs charge coefficients:")
for name, g, e in zip(("m_L", "m_R", "m_L^s", "m_R^s"), got, expect):
    print(f"  {name:6s} block {g:+.8f}   charges {e:+.8f}")

print("\nstring charge brackets close on the same algebra:")
grads = schart.charges_jacobian(sx)  # the exact 12 x 12 Jacobian of the charge vector
table = bracket_table(grads, sform)
worst = np.max(np.abs(table - BRACKET_STRUCTURE @ schart.charges(sx)))
print("  max deviation over all pairs:", f"{worst:.2e}")

print("\ninvariant functions are central:")
# rows: the four orbit coefficients; columns: the twelve charges
central = bracket_table(np.concatenate([schart.orbit_coefficients_jacobian(sx), grads]),
                        sform)[:4, 4:]
for cas, row in zip(("m_L", "m_R", "m_L_s", "m_R_s"), central):
    print(f"  max |{{{cas}, charges}}| = {np.max(np.abs(row)):.2e}")
