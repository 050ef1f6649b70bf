"""
The two integral bounds: quadrature and closed form
===================================================

Shows li_zang, evaluated by adaptive Gauss-Legendre quadrature, and
chishti, summed in closed form as a Gauss hypergeometric function;
their r=2 collapse onto the closed graph formula; and the whole-instance
chishti bound.
"""

import math

import hyperind as hi

# li_zang's quadrature stops once its estimated absolute error drops
# below a fixed 1e-9, an estimate, not a proven bound; chishti's series
# stop on a proven tail bound, a few ulps from the true value.
print("li_zang(3, 1, x) and chishti(3, x):")
for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
    lz = hi.li_zang(3, 1, x)
    cz = hi.chishti(3, x)
    print(f"  x={x:>4}:  f_LZ = {lz:.10f}   f_CZPI = {cz:.10f}")
print()

# At r=2, m=1 both reduce to (d ln d - d + 1)/(d - 1)^2, written out
# here; between 1/2 and 2 chishti sums a series instead.
print("r=2 reduction, |integral - closed form|:")
for x in (0.25, 0.75, 1.5, 10.0):
    s1 = (x * math.log(x) - x + 1) / (x - 1) ** 2
    print(f"  x={x:>4}:  li_zang {abs(hi.li_zang(2, 1, x) - s1):.2e}"
          f"   chishti {abs(hi.chishti(2, x) - s1):.2e}")
print()

# Whole-instance version: n * chishti(r, average degree).
h = hi.loose_path(2, 3)
print("chishti bound on the loose path:", hi.chishti_bound(h, 3))
print("greedy potential on the same instance:", float(hi.potential(h, 3)))
