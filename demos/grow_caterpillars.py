"""
Labeling caterpillars by induction
==================================

Two pipelines cover odd-degree caterpillars whose vertex count is a
power of two.  The small-diameter one (diameter up to 18) sheds leaves
down to a bundled base labeling and grows back up, doubling the vertex
count per level.  The other pipeline handles any diameter once the tree
is large enough, at least 2^(diameter-1) vertices.
"""

from setseq import (
    CaterpillarSpec,
    diameter,
    echelon_basis,
    label_large_caterpillar,
    label_small_diameter,
    verify_set_sequential,
)

spec = CaterpillarSpec.parse("T[23,21,23,21,21,23]")
print(f"{spec}: {spec.vertex_count} vertices, diameter {spec.diameter}")

tree, lab = label_small_diameter(spec)
deg = tree.degrees()
center = [lab.labels[v] for v in range(tree.vertex_count) if deg[v] > 1]
print("labels in F_2^n for n =", lab.n)
# echelon_basis returns the span's reduced row-echelon rows; their count is its dimension.
print("span dim of the center-path labels:", len(echelon_basis(center, lab.n)))
print("valid:", verify_set_sequential(tree, lab).valid)
print()

# A squat one: diameter 5 but 256 vertices.  Way over 2^(5-1) = 16, so
# the large-caterpillar pipeline applies at any diameter.
squat = CaterpillarSpec((129, 43, 43, 43))
print(f"{squat}: {squat.vertex_count} vertices, diameter {squat.diameter}")
tree, lab = label_large_caterpillar(squat)
print("valid:", verify_set_sequential(tree, lab).valid)
print("diameter of the built tree:", diameter(tree))
