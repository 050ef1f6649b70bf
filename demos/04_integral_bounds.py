"""
The two integral bounds and their quadrature
============================================

Shows the adaptive Gauss-Legendre evaluation of the li_zang and chishti
forms, their r=2 collapse onto the closed graph formula, and the
whole-instance chishti bound.
"""

import hyperind as hi

# Both integral forms stop once their estimated absolute error drops
# below tol (default 1e-9, adjustable); an estimate, not a proven bound.
print("li_zang(3, 1, x) and chishti(3, x):")
for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
    lz = hi.li_zang(3, 1, x)
    cz = hi.chishti(3, x)
    print(f"  x={x:>4}:  f_LZ = {lz:.10f}   f_CZPI = {cz:.10f}")
print()

# At r=2, m=1 both reduce to (d ln d - d + 1)/(d - 1)^2.
print("r=2 reduction, |integral - closed form|:")
for x in (0.5, 1.0, 2.0, 10.0):
    s1 = hi.shearer_s1(x)
    print(f"  x={x:>4}:  li_zang {abs(hi.li_zang(2, 1, x) - s1):.2e}"
          f"   chishti {abs(hi.chishti(2, x) - s1):.2e}")
print()

# Whole-instance version: n * chishti(r, average degree).
h = hi.loose_path(2, 3)
print("chishti bound on the loose path:", hi.chishti_bound(h, 3))
print("greedy potential on the same instance:", float(hi.potential(h, 3)))
