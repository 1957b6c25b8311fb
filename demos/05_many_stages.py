"""How far can stacking stages go?

In the vanishing-success-rate limit an N-stage amplifier prepares the pure
state (1 + (kappa/N) a'b')^N |0>, whose best entanglement improves with N
but exponentially slowly; as N grows the state converges on an ideal
two-mode squeezed pair. This demo traces that floor and the convergence,
and checks the N-stage closed form against the simulated scissor network.
"""

import math

import numpy as np

from nla_distill import (best_entanglement_vs_stages, closed_form_state,
                         epr_state, fidelity, norm_sq, project_fock,
                         scissor_circuit, truncated_pair_state)

print("=== best distillable entanglement per stage count ===")
print(f"{'N':>3} {'eps floor':>10} {'best kappa':>10}")
floors = best_entanglement_vs_stages(12)
for n, eps, kappa in floors:
    bar = "#" * int(round(40 * eps))
    print(f"{n:3d} {eps:10.5f} {kappa:10.4f}  {bar}")
ratios = [b / a for (_, a, _), (_, b, _) in zip(floors, floors[1:])]
print("successive ratios eps(N+1)/eps(N):",
      " ".join(f"{x:.3f}" for x in ratios))
print("the ratios creep toward 1: gains shrink although the floor heads to 0")

print()
print("=== many stages converge on an ideal pair source ===")
kappa = 0.3
target = epr_state(kappa, ("A", "B"), 30)
for n in (1, 4, 16, 64):
    st = truncated_pair_state(n, kappa)
    # embed (or crop) into the comparison cutoff
    m = min(n + 1, 31)
    amps = np.zeros((31, 31), dtype=complex)
    amps[:m, :m] = st.amps[:m, :m]
    from nla_distill import PureState
    emb = PureState(("A", "B"), amps)
    print(f"N = {n:3d}: fidelity with the ideal kappa = {kappa} pair "
          f"{fidelity(emb, target):.6f}")

print()
print("the same convergence holds for the full heralded state at zero loss:")
ch_r = math.atanh(kappa)  # unit gain: kappa = tanh(r)
hs = closed_form_state(64, ch_r, 0.0, 0.5, 30)
branch = project_fock(hs.state, "L", 0)
amps = np.zeros((31, 31), dtype=complex)
amps[:31, :31] = branch.amps[:, :31]
emb = PureState(("A", "B"), amps)
print(f"64-stage heralded state vs ideal pair: fidelity "
      f"{fidelity(emb, target):.6f}")

print()
print("=== three scissors, simulated photon by photon ===")
# the lossy arm split evenly over three scissors and recombined, against
# the closed form (1 + (kappa/3) a'b')^3 sigma_AL^rho |0>
circ = scissor_circuit(3, 0.3, 0.3, 0.7, cutoff=10)
cf = closed_form_state(3, 0.3, 0.3, 0.7, cutoff=10)
print(f"N = 3 circuit vs closed form: fidelity "
      f"{fidelity(circ.state, cf.state):.15f}, norm ratio "
      f"{norm_sq(circ.state) / norm_sq(cf.state):.15f}")
print(f"success probability over the 8 detection patterns: "
      f"{circ.success_prob:.6e}")
