"""Solve the AdS-sphere invariant bridge and scan the admissible region.

Matching the worldsheet invariants computed on the AdS side against the
sphere side leaves two free parameters (f, b); the admissible band is
b <= f <= (b + sqrt(b^2 + 8)) / 2.  The scan below writes a CSV ready for
contour plotting.
"""

import csv

from ads3s3 import admissible, bridge, scan_region
from ads3s3.bridge import f_max, feasibility_general

blk = bridge(5 / 3, 5 / 4, 1)
print("== invariants at (f, b) = (5/3, 5/4), winding 1 ==")
for key in ("cosh2theta", "cos2theta_s", "mu2", "mubar2", "coshalpha", "cosbeta"):
    print(f"  {key:12s} = {getattr(blk, key):.7f}")

print("\ncross-checks (both should vanish):")
print("  4 mu mubar cosh(alpha) - E^2 =", 4 * blk.mu * blk.mubar * blk.coshalpha - blk.E ** 2)
print("  4 mu mubar cos(beta)  - A^2 =", 4 * blk.mu * blk.mubar * blk.cosbeta - blk.A ** 2)

print("\n== admissibility diagnostics ==")
for f, b in ((1.5, 1.2), (3.0, 1.2), (1.1, 1.4)):
    verdict = admissible(f, b)
    print(f"  (f, b) = ({f}, {b}): {bool(verdict)}"
          + (f"  [{verdict.reason}]" if not verdict else ""))

print("\n== band boundaries at b = 1.25 ==")
print("  lower edge f = b:", bridge(1.25, 1.25).degenerate)
print("  upper edge f_max:", bridge(f_max(1.25), 1.25).degenerate)

columns = scan_region((1.0, 3.0, 41), (1.0, 2.0, 21), n=1)
admissible_col = columns["admissible"]
print(f"\n== region scan: {admissible_col.size} grid points, {admissible_col.mean():.1%} admissible ==")
with open("bridge_scan.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(zip(*(column.tolist() for column in columns.values())))
print("wrote bridge_scan.csv (plot admissible vs (f, b) for the band shape)")

print("\n== feasibility probe for other winding sectors ==")
res = feasibility_general(-1, 1, 1, 1, blk.lam, blk.rho, blk.lam_s, blk.rho_s,
                          blk.cosh2theta, blk.cos2theta_s)
print("  one-winding sector:", res.feasible, " residual", res.residual)
edge = bridge(1.3, 1.0, 1)
res = feasibility_general(-1, 1, 1, 1, edge.lam, edge.rho, edge.lam_s, edge.rho_s,
                          edge.cosh2theta, edge.cos2theta_s)
print("  b = 1 edge (1.3, 1), mu mubar = 0:", res.feasible, " cosh alpha", res.coshalpha)
res = feasibility_general(0, 0, 2, 2, 1.3, 0.0, 1.1, 1 / 1.1, 1.4, -0.2)
print("  (0,0,2,2) generic frequencies:", res.feasible, " residual", f"{res.residual:.3f}")
