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
    poisson_bracket,
)
from ads3s3.charges import charge_coefficients, charges_analytic
from ads3s3.symplectic import (
    BRACKET_STRUCTURE,
    CHARGE_NAMES,
    bracket_table,
    expected_bracket,
    gradient,
)

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
values = dict(zip(CHARGE_NAMES, chart.charges(x)))
for a, b in (("L1", "L2"), ("R1", "R2"), ("L0", "R1"), ("Ls1", "Ls2"), ("Rs1", "Rs2")):
    got = poisson_bracket(chart.charge_function(a), chart.charge_function(b), form, x)
    print(f"  {{{a}, {b}}} = {got:+.8f}   expected {expected_bracket(a, b, values):+.8f}")

print("\n== string phase space (numeric d-theta on the 12-chart) ==")
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
grads = gradient(schart.charges, sx)  # the 12 x 12 Jacobian of the charge vector
table = -grads @ sform.inverse() @ grads.T
worst = np.max(np.abs(table - BRACKET_STRUCTURE @ schart.charges(sx)))
print("  max deviation over all pairs:", f"{worst:.2e}")

print("\ninvariant functions are central:")
for cas in ("m_L", "m_R", "m_L_s", "m_R_s"):
    row = bracket_table([schart.charge_function(cas), schart.charges], sform, sx)[0, 1:]
    print(f"  max |{{{cas}, charges}}| = {np.max(np.abs(row)):.2e}")
