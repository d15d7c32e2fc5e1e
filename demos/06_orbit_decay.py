"""Orbit dynamics of the compressed pair: adjoint decay and energy tails.

Adjoint orbits of a truncated pair die out exactly once the exponents
pass the truncation order.  For a frame system the tail energy of the
iterate coefficients controls the norm of the shifted-back state, which
is the quantitative content behind the decay.
"""

import numpy as np

from bidiscframes import (
    adjoint_decay,
    build_chain,
    conjecture_probe,
    equivalent_frame_vector,
    frame_bounds,
    get_fixture,
    iterate,
    kernel_doubly_commutes,
    partial_energy,
)

chain = build_chain(get_fixture("inner-zw"))
triple = chain.triple
rng = np.random.default_rng(7)
f = rng.standard_normal(triple.dim) + 1j * rng.standard_normal(triple.dim)

trace = adjoint_decay(triple, f, (7, 7))
print("adjoint orbit norms, rows are powers of the first operator:")
with np.printoptions(precision=3, suppress=True, linewidth=100):
    print(trace.norms)
print(f"outer rim maximum {trace.tail_max}, far corner {trace.corner}, "
      f"decayed: {trace.decayed}")

# Energy bookkeeping: the full coefficient energy sits between the
# frame bounds times the state norm, and dropping the first exponents
# still dominates the shifted-back state.
sys = iterate(triple, (7, 7))
rep = frame_bounds(sys)
total = partial_energy(sys, f)
nf = float(np.linalg.norm(f)) ** 2
print(f"\ntotal coefficient energy {total:.4f} vs bounds "
      f"[{rep.lower * nf:.4f}, {rep.upper * nf:.4f}]")

g = np.linalg.matrix_power(triple.T1.conj().T, 2) @ f
tail = partial_energy(sys, f, start=(2, 0))
print(f"tail energy from (2,0): {tail:.4f} >= "
      f"lower bound x shifted norm = {rep.lower * np.linalg.norm(g)**2:.4f}")

# Forward orbits are recorded as evidence only; whether they must die
# out for every doubly-commuting kernel is an open question, so the
# probe takes the verified verdict as input and never claims a limit.
verdict = kernel_doubly_commutes(chain.system).verdict
probe = conjecture_probe(triple, f, (7, 7), kernel_verdict=verdict)
print(f"\nforward probe under verdict {verdict}: rim max {probe.tail_max:.1e}; "
      f"{probe.note}")

# Replacing the seed by V phi for an invertible V commuting with the
# pair keeps frameness and the synthesis kernel.  On this quotient the
# product T1 T2 vanishes, so I + T1 T2 / 2 is the identity; I + T1 / 2
# actually moves the seed and stretches the bounds.
for label, v in (
    ("I + T1 T2 / 2", np.eye(triple.dim) + 0.5 * (triple.T1 @ triple.T2)),
    ("I + T1 / 2   ", np.eye(triple.dim) + 0.5 * triple.T1),
):
    moved = equivalent_frame_vector(triple, v.astype(np.complex128), sys.horizon)
    print(f"seed moved by {label}: bounds [{moved.lower:.4f}, "
          f"{moved.upper:.4f}] ({moved.classification})")
