"""Expand a blocked mixture design into its order-of-addition runs.

Starting from the 8-run D-optimal design, every run is replaced by one copy
per distinct addition order of its support. Two-component edge runs double,
the three-component centroid becomes six runs, and single-component runs
would stay single (this design has none).
"""

from oamix.catalog import czitrom_d_optimal, oofa_expand
from oamix.pwo import enumerate_orderings, permutation_from_pwo

base = czitrom_d_optimal()
expanded = oofa_expand(base)

print(f"base runs: {base.n}, expanded runs: {expanded.n}")
print()

# all addition orders of the centroid, with the ordering each row encodes
print("centroid orderings (z12, z13, z23) and the order they encode:")
for z in enumerate_orderings((1 / 3, 1 / 3, 1 / 3)):
    order = tuple(permutation_from_pwo(z, {1, 2, 3}))
    print(f"  z={z}  add order {order}")
print()

# an edge run has only two orders; the absent pair entries stay 0
print("edge run (0.168, 0.832, 0) orderings:")
for z in enumerate_orderings((0.168, 0.832, 0.0)):
    print(f"  z={z}")
print()

print("expanded block sizes:",
      [sum(r.block == b for r in expanded.runs) for b in (1, 2)])
