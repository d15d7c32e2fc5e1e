"""Frames built by iterating a commuting operator pair on a seed vector.

For a quotient of an inner-generated submodule, iterating the
compressed shifts on the projected constant reproduces every monomial
coordinate exactly once: the system is a Parseval frame.  Scaling the
seed scales the bounds; degenerate seeds lose frameness.
"""

import numpy as np

from bidiscframes import (
    OperatorTriple,
    build_chain,
    frame_bounds,
    get_fixture,
    iterate,
    kernel_shift_invariance,
    list_fixtures,
    synthesis_kernel,
)

print("fixture catalog:")
for fx in list_fixtures():
    print(f"  {fx.name:16s} {fx.summary}")

# A chain builds each stage (space, submodule, quotient, triple, system)
# when it is first read.  It stops at the quotient when the compressed
# shifts give no operator pair: chain.note says why, and reading the
# triple or the system raises PreconditionError.
chain = build_chain(get_fixture("inner-zw"))
sys = chain.system
rep = frame_bounds(sys)
print(f"\ninner-zw chain: quotient dim {chain.quotient.dim}, "
      f"{sys.ncols} iterates")
print(f"frame bounds [{rep.lower:.6f}, {rep.upper:.6f}] -> {rep.classification}")

# The synthesis matrix has more columns than rows, so it has a kernel;
# the kernel is invariant under the horizon-box shifts.
kernel = synthesis_kernel(sys)
inv = kernel_shift_invariance(sys)
print(f"synthesis kernel dimension {kernel.shape[1]}, "
      f"shift invariance residual {inv.residual:.1e}")

# Doubling the seed doubles every column: bounds scale by 4, the
# classification drops from parseval to plain frame.
tr = sys.triple
scaled = OperatorTriple(T1=tr.T1, T2=tr.T2, phi=2.0 * tr.phi)
srep = frame_bounds(iterate(scaled, sys.horizon))
print(f"\nseed doubled: bounds [{srep.lower:.1f}, {srep.upper:.1f}] "
      f"-> {srep.classification}")

# A disc-factor fixture is honest about truncation: the polynomial
# submodule is exactly invariant, but its quotient is bigger than the
# span of the iterates, so the lower bound collapses.
bl = build_chain(get_fixture("blaschke-half"))
brep = frame_bounds(bl.system)
print(f"\nblaschke-half: bounds [{brep.lower:.3f}, {brep.upper:.3f}] "
      f"-> {brep.classification}")
print("(iterates of one seed cannot fill the truncation surplus)")

# Cross-variable products stop earlier: their compressed shifts do not
# commute at this truncation, so no operator pair is formed.
prod = build_chain(get_fixture("blaschke-product"))
print(f"\nblaschke-product: quotient dim {prod.quotient.dim}, no system; "
      f"note: {prod.note}")
