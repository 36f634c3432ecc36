"""Desk-scale laboratory for multi-scale Lipschitz embeddings on the lattice.

Subpackages: fields (seeded random fields and level-0 classification),
lattice (animals and cell geometry), hierarchy (recursive block structure),
embed (embedding search and verification), stats (exact formulas,
Monte Carlo estimates, reports), oracle (exact brute-force ground truth),
params (profiles and the constraint auditor), cli (command-line front end).
"""

__version__ = "0.1.0"
