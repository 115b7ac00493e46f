"""
Degenerations, minimal staircases and component reports
=======================================================

Staircases with the same Hilbert function form one component of the
equivariant Hilbert scheme.  Whenever the positive tangent space of a
stratum is nonzero, a one-parameter torus orbit degenerates it to a
strictly smaller stratum; iterating always lands on the unique minimal
staircase, which a bottom-row recursion constructs directly.
"""

from hilbcells import (
    HilbertFunction,
    Weight,
    component_report,
    degenerate_once,
    descend_to_minimal,
    enumerate_staircases,
    hilbert_function,
    minimal_staircase,
    minimal_staircase_oracle,
    poincare_polynomial,
    construct_staircase,
)

w = Weight(1, -1)

# One degeneration step, with all the evidence: the specialized generators,
# the flat limit under scaling x alone, and the S-profiles that witness the
# strict descent.
step = degenerate_once(construct_staircase([1, 1]), w)
print("specialized:", [p.to_text() for p in step.specialized])
print("limit ideal:", [p.to_text() for p in step.limit])
print("target:", step.target.columns)
print("profiles:", step.source_profile, ">", step.target_profile)

# Descent chains reach the same endpoint regardless of which couple is
# specialized at each step.
E = construct_staircase([3, 1, 1, 1])
for policy in ("first", "last", "random"):
    chain = descend_to_minimal(E, w, policy=policy, seed=5)
    print(policy, "chain:", [list(s.target.columns) for s in chain])

# The endpoint is computable without any degeneration: the bottom row keeps
# the x-powers whose degree sees the Hilbert function rise, and the rest is
# the shifted solution of a residual problem.
H = HilbertFunction.from_counts(w, {0: 1, 1: 2, 2: 2, 3: 1})
print("minimal staircase:", minimal_staircase(H).columns)
print("enumeration oracle agrees:", minimal_staircase_oracle(H).columns)

# A component report assembles everything for one length: the strata of
# each Hilbert-function class, their constant tangent dimension, the
# minimal stratum and a descent chain from every stratum.
for report in component_report(4, w):
    print(report.to_json())

# The cell-dimension census across one length, for two generic covering
# torus actions, is the same; its total is the number of partitions.
print("length 6 census:", poincare_polynomial(6, (-2, -9)))
print("          again:", poincare_polynomial(6, (-3, -10)))
print("partitions of 6:", len(enumerate_staircases(6)))
