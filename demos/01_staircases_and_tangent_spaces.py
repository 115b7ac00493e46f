"""
Staircases, clefts and tangent spaces
=====================================

A staircase is the diagram of standard monomials of a monomial ideal in
k[x,y].  This walkthrough builds one, reads off the minimal generators of
its complement (the clefts), and computes the tangent space to the Hilbert
scheme at the monomial subscheme from significant cleft couples, checking
the answer against the exact linear-algebra oracle.
"""

from hilbcells import (
    Weight,
    cell_dimension,
    clefts,
    construct_staircase,
    hilbert_function,
    hom_tangent_oracle,
    significance_graph,
    tangent_basis,
)

# The staircase with column heights [3,1,1,1]: six standard monomials
# 1, y, y^2, x, x^2, x^3, complement ideal (y^3, x*y, x^4).
E = construct_staircase([3, 1, 1, 1])
print("cells:", ", ".join(str(m) for m in E.cells()))
print("clefts:", ", ".join(str(c) for c in clefts(E)))

# Grading by the primitive weight (a, b) = (1, -1): the total degree.
w = Weight(1, -1)
print("Hilbert function:", hilbert_function(E, w).as_dict())

# The full tangent space has one basis vector per significant cleft couple;
# for a length-6 subscheme of the smooth Hilbert scheme that is 12 vectors.
basis = tangent_basis(E)
print("tangent dimension:", basis.dimension)

# Filtering by the direction (1, -1) keeps couples whose character is a
# multiple of (1, -1); this is the tangent space of the equivariant
# Hilbert scheme, split into positive and negative halves.
invariant = tangent_basis(E, w)
for couple in invariant.significant:
    sign = "positive" if couple in invariant.positive else "negative"
    print(f"  ({couple.c}, {couple.m})  character {couple.char}  {sign}")
print("invariant split:", len(invariant.positive), "positive,",
      len(invariant.negative), "negative")

# The significance graph encodes the linear relations among the direction
# couples; its dimension always matches the invariant tangent space.
graph = significance_graph(E, w)
print("graph dimension:", graph.dimension)

# Independent check: set up the module-homomorphism equations between
# consecutive clefts and solve them exactly over the rationals.
oracle = hom_tangent_oracle(E)
assert len(oracle) == basis.dimension
assert oracle == tuple(sorted(c.char for c in basis.significant))
print("oracle agrees: dimension", len(oracle))

# Counting significant couples that pair positively with a generic torus
# weight vector gives the dimension of the attracting cell.
print("cell dimension for weights (-2, -9):", cell_dimension(E, (-2, -9)))
