"""
Verifying a labeled tree
========================

Loads the bundled 8-vertex labeling, checks it, then breaks it on
purpose to show what the verifier reports.
"""

from setseq import Labeling, load_fixture, verify_set_sequential

tree, lab = load_fixture("figure1.json")

print(f"tree: {tree.vertex_count} vertices, {len(tree.edges)} edges, n={lab.n}")
labels, n = lab.labels, lab.n
for v in range(tree.vertex_count):
    print(f"  vertex {v}: {labels[v]:0{n}b}")
for a, b in tree.edges:
    print(f"  edge {a}-{b}: {labels[a] ^ labels[b]:0{n}b}")

report = verify_set_sequential(tree, lab)
print("verdict:", "valid" if report.valid else "invalid")

# Now copy vertex 0's label onto vertex 1.  The verifier is expected to
# complain about the duplicate and about the coverage gap it opens.
broken = Labeling(n, {**labels, 1: labels[0]})
report = verify_set_sequential(tree, broken)
print("after tampering:")
for violation in report.violations:
    print("  ", violation)
