"""
Building hypergraphs and checking their structure
=================================================

Constructs a few instances by hand and from the built-in families,
then walks through the structural predicates the rest of the library
relies on: uniformity, linearity, triangle-freeness, double linearity.
"""

import hyperind as hi

# A loose path with two 3-edges sharing exactly one vertex.
h = hi.loose_path(2, 3)
print("loose path, k=2, r=3:")
print(hi.format_hg(h))

print("degrees:", [h.degree(u) for u in range(h.n)])
print("neighborhood of the shared vertex 2:", sorted(h.neighborhood(2)))

# The full report bundles every predicate with a machine-checkable witness.
rep = hi.property_report(h)
print("report:", rep.to_json())
print("hypotheses hold:", rep.hypotheses_hold())
print()

# The Fano plane is linear but contains triangles everywhere.
f = hi.fano()
rep = hi.property_report(f)
print("Fano plane: uniform_r =", rep.uniform_r, " linear =", rep.linear,
      " triangle_free =", rep.triangle_free)
ok, wit = hi.is_triangle_free(f)
print("triangle witness:", wit)
print()

# Each greedy step keeps a vertex x and removes one slot R of N(x), which
# holds one vertex of every edge through x; an isolated x has R empty.
for step in hi.greedy_extract(h, 3).steps:
    print(f"greedy keeps {step.x}, removes slot R = {list(step.slot)}")

# Non-linear input is rejected where linearity is a precondition.
bad = hi.Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
print("two edges share two vertices -> linear?", hi.is_linear(bad)[0])
try:
    hi.is_double_linear(bad)
except hi.errors.NotLinear as e:
    print("is_double_linear refuses:", e)

# Plain-text round trip: parse(format(h)) is the identity.
text = hi.format_hg(h)
assert hi.parse_hg(text) == h
print()
print("round trip through the text format: OK")
