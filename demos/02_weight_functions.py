"""
The degree weights behind the independence guarantee
====================================================

Evaluates the exact rational recurrence f_r, the product weight it
improves on, and the rational minorant, then prints a small bound
table with all four columns.
"""

from fractions import Fraction

import hyperind as hi

# f_r(d) is defined by f(0) = 1 and
#   f(d) = (1 + ((r-1) d^2 - d) f(d-1)) / (1 + (r-1) d^2),
# evaluated exactly over the rationals.
print("f_3(d) for d = 0..6:")
for d in range(7):
    w = hi.potential_weight(3, d)
    print(f"  d={d}:  {w}  ~ {float(w):.6f}")
print()

# The product weight prod (r-1)i / ((r-1)i + 1) is the classical
# comparison point; the recurrence beats it strictly from d = 2 on.
print("recurrence vs product weight at r=3:")
for d in range(6):
    fr = hi.potential_weight(3, d)
    ct = hi.caro_tuza(3, d)
    mark = ">" if fr > ct else "="
    print(f"  d={d}:  f_r = {str(fr):>7}  {mark}  f_CT = {ct}")
print()

# Convexity: differences f(d) - f(d+1) are non-increasing, and the
# closed rational minorant never exceeds f.  Checked here at toy scale;
# the test suite verifies d up to 1000 for every r in [2,10].
r = 4
ws = [hi.potential_weight(r, d) for d in range(30)]
assert all(ws[d] - ws[d + 1] >= ws[d + 1] - ws[d + 2] for d in range(28))
assert all(hi.convexity_minorant(r, d) <= ws[d] for d in range(30))
print("decreasing differences and minorant hold for r=4, d < 30")
print()

# At r=2 everything collapses to the graph case: the recurrence is the
# classical graph recurrence, and it never drops below the closed graph
# form (d ln d - d + 1) / (d - 1)^2.
assert all(
    hi.shearer_s1(d) <= float(hi.potential_weight(2, d)) + 1e-12
    for d in range(50)
)
print("r=2 recurrence stays above the closed graph form (d < 50)")
print("closed graph form at d=2:", hi.shearer_s1(2))
print()

# The whole-instance potential is the certified guarantee: a sum of
# weights over vertex degrees.
h = hi.loose_path(2, 3)
print("loose path potential:", hi.potential(h, 3), "=",
      float(hi.potential(h, 3)))
print("product-weight total:", hi.caro_tuza_total(h, 3))
print()

# bound_table evaluates the two integral bounds next to the exact ones.
rows = hi.bound_table(3, 8)
print(hi.table_to_csv(rows))
