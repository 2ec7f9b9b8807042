"""
Doubling a labeled tree with pendants
=====================================

Attaching 2^(n-1) new leaves to a labeled tree on 2^(n-1) vertices
yields a tree on 2^n vertices.  Old labels get a 0 prefix; the pendant
labels, prefixed 1, come from a pairing instance whose targets are the
anchors' extended labels.  The anchor labels, counted with
multiplicity, have to XOR to zero, and the pairing solver has to cover
the resulting instance; beyond that the plan is free.
"""

from setseq import PendantPlan, add_pendants, load_fixture, verify_set_sequential

base, lab = load_fixture("figure1.json")
print(f"base: {base.vertex_count} vertices over n={lab.n}")

plan = PendantPlan.parse("2:1,7:1,3:3,4:1,1:2")
print(f"plan hangs {plan.total()} pendants on {len(plan.anchors)} anchors")

tree, big = add_pendants(base, lab, plan)
print(f"result: {tree.vertex_count} vertices over n={big.n}")
print("valid:", verify_set_sequential(tree, big).valid)

# Old vertices keep their ids; their labels just gained a 0 in front.
for v in (0, 3):
    print(f"  vertex {v}: {lab.labels[v]:0{lab.n}b} -> {big.labels[v]:0{big.n}b}")
new = range(base.vertex_count, tree.vertex_count)
print("pendant labels:", " ".join(f"{big.labels[p]:0{big.n}b}" for p in new))
