"""
Extracting an independent set with a certificate
================================================

Runs the greedy extraction step by step on a loose path, checks the
certificate by hand, and compares against the exact optimum from the
branch-and-bound solver.
"""

import math
from fractions import Fraction

import hyperind as hi

h = hi.loose_path(2, 3)
print(hi.format_hg(h))

# Each step removes a vertex x plus one slot of its neighborhood; the
# recorded delta is the exact potential the step gave up.  Guaranteed
# runs never take a negative step.
cert = hi.greedy_extract(h, 3)
print("guarantee (potential):", cert.guarantee, "=", float(cert.guarantee))
for s in cert.steps:
    print(f"  keep {s.x}, drop slot {list(s.slot)}, delta = {s.delta}")
print("independent set:", cert.independent_set)
print("guaranteed:", cert.guaranteed)
print()

# The certificate telescopes: each step trades at most one unit of
# potential for one kept vertex, and delta records the surplus, so
# |I| = potential + sum(deltas) and deltas >= 0 give the guarantee.
surplus = sum((s.delta for s in cert.steps), Fraction(0))
assert hi.potential(h, 3) + surplus == len(cert.independent_set)
need = math.ceil(cert.guarantee)
assert len(cert.independent_set) >= need
print(f"|I| = {len(cert.independent_set)} >= ceil(guarantee) = {need}")

ok, why = hi.verify_independent(h, cert.independent_set)
print("verifies independent:", ok, why)
print()

# Exact optimum for comparison -- branch and bound, fine at this size.
res = hi.exact_alpha(h)
print(f"exact alpha = {res.alpha} (exact={res.exact}, "
      f"nodes explored = {res.nodes})")
print("witness:", res.independent_set)
print()

# The preconditions are enforced: the Fano plane has triangles, so a
# guaranteed extraction refuses it...
try:
    hi.greedy_extract(hi.fano(), 3)
except hi.errors.HypothesisViolated as e:
    print("Fano refused:", e)

# ...but unsafe mode still produces a valid (just unguaranteed) set.
loose_cert = hi.greedy_extract(hi.fano(), 3, unsafe=True)
ok, _ = hi.verify_independent(hi.fano(), loose_cert.independent_set)
print("unsafe run on Fano:", loose_cert.independent_set,
      "independent =", ok, "guaranteed =", loose_cert.guaranteed)
