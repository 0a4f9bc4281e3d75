"""Instance-wise reductions between compactness principles over [0, 1].

The package turns accumulation-point search, infinite-branch search in
stagewise binary trees, limit-set separation, and strongly cohesive sets
into each other by explicit, exact-arithmetic transformations; budgeted
solvers produce certificates and independent verifiers re-check them.
"""

__version__ = "0.1.0"
