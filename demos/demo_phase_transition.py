"""
When does each computation scheme win?
======================================

The implicit scheme's cost follows the size of the weighted direct
product graph; the explicit scheme's cost follows the number of
distinct walk label sequences.  Both depend on the label distribution:

* with a **uniform label** (diversity 0), every vertex pair is
  compatible — the product graph is as big as it gets, while the
  explicit side enjoys maximal sequence collisions: explicit wins;
* as labels **diversify**, the product graph thins out and the
  sequence space explodes: the advantage flips to implicit.

This demo runs a small sweep over that diversity axis (vertices carry
label 0 with probability 1-p and one of two rare labels otherwise),
timing both schemes on identical inputs and printing the winner per
cell.  The flip along each row is the point of the exercise; exact
timings vary by machine.
"""

from gkern.bench import sweep

rows = sweep(
    "pv",
    sizes=(20, 40),
    grid=(0.0, 0.3, 0.6, 0.9),
    length=5,
    mean_vertices=15.0,
    edge_prob=0.15,
    reps=1,
    seed=11,
    progress=None,
)

print(f"{'graphs':>6s} {'diversity':>9s} {'implicit (s)':>12s} "
      f"{'explicit (s)':>12s} {'winner':>8s} {'agreement':>10s}")
for row in rows:
    print(f"{row['size']:6d} {row['value']:9.1f} "
          f"{row['implicit_seconds']:12.4f} {row['explicit_seconds']:12.4f} "
          f"{row['winner']:>8s} {row['max_rel_discrepancy']:10.1e}")

# The discrepancy column is the point of trust: whoever wins the race,
# both schemes computed the same Gram matrix.
assert all(row["max_rel_discrepancy"] <= 1e-10 for row in rows)
print("\nschemes agreed on every Gram matrix; timings decide the winner")
