"""
Physical recovery in four parity blocks
=======================================

A recovery restricted to the form p . r . q, with p and q the parity
dephasing of four fermionic modes (d = 16).  Every output of either
dephasing commutes with both parity projectors P_+ and P_-, so the
fidelity does not change when r is conjugated by independent phases on
the two sectors of its output and on the two of its input, and some
optimal r maps each input sector into one output sector.  The recovery
SDP is therefore solved in four blocks of dimension d^2 / 4 = 64, even
to even, odd to odd, even to odd and odd to even, instead of one of
d^2 = 256.  That takes about half the memory and time of an even and an
odd block of 128, the split by the parity of r's Kraus operators alone.
CI also runs this script under a 384 MiB address-space cap.
"""

import time

import numpy as np

from constrained_recovery import channels as ch
from constrained_recovery import fermion
from constrained_recovery import recovery as rc
from constrained_recovery import sdp

rng = np.random.default_rng(16)
system = fermion.FermionSystem(4)
parity = np.asarray(fermion.parity_operator(system, tuple(range(1, 9))).c)
d = parity.shape[0]


def definite_parity_channel(rng, k=2):
    """k random Kraus operators, each even or odd under the parity, made
    trace preserving by a normalizer that commutes with the parity."""
    ops = []
    for i in range(k):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sign = 1.0 if i % 2 == 0 else -1.0
        ops.append((a + sign * parity @ a @ parity) / 2.0)
    w, u = np.linalg.eigh(sum(e.conj().T @ e for e in ops))
    root = (u * w**-0.5) @ u.conj().T
    return ch.Channel([e @ root for e in ops])


noise = definite_parity_channel(rng)
target = definite_parity_channel(rng)
dephase = ch.Channel([np.eye(d) / np.sqrt(2), parity / np.sqrt(2)])
rho = np.eye(d) / d

start = time.perf_counter()
problem = rc.build_recovery_fidelity_sdp(noise, target, rho, rc.Physical(dephase, dephase))
solution = sdp.solve(problem)
elapsed = time.perf_counter() - start
print("block dims:", solution.diagnostics["block_dims"])
print("rows kept: ", solution.diagnostics["rows_kept"], "of", solution.diagnostics["rows"])
print("iterations:", solution.iterations, " status:", solution.status)
print("fidelity:  ", solution.value)
print(f"build + solve: {elapsed:.2f} s")
