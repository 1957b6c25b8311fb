"""One quantum scissor as an entanglement distiller, in full detail.

Builds the five-mode heralded circuit photon by photon (source, loss
splitter, ancilla photon, gain splitter, 50:50 mixer, detection pattern) and
compares the heralded branch against its compact closed form
(1 + kappa a'b') applied to the residual source-loss pair state.
"""

import math

from nla_distill import (closed_form_state, debug_serialize,
                         distill_and_measure, epr_criterion, fidelity,
                         kappa_rho, lossy_channel_state, norm_sq,
                         single_stage_circuit, success_prob)

r, lam, eta = 0.5, 0.3, 0.8
kappa, rho = kappa_rho(r, lam, eta)
print(f"operating point: r={r}, loss={lam}, gain splitter eta={eta}")
print(f"amplitude gain g = {math.sqrt(eta / (1.0 - eta)):.4f}, "
      f"pair amplitude kappa = {kappa:.4f}, "
      f"residual decoherence tanh(rho) = {math.tanh(rho):.4f}")

print()
print("=== heralded branch from the brute-force circuit ===")
hs = single_stage_circuit(r, lam, eta, cutoff=12)
print(f"success probability (both detection patterns): {hs.success_prob:.6f}")
print(f"closed-form success probability:               "
      f"{success_prob(1, r, lam, eta):.6f}")

print()
print("largest amplitudes of the (A, B, L) branch:")
lines = debug_serialize(hs.state).splitlines()
ranked = sorted(lines, key=lambda ln: -abs(float(ln.split()[1].split(",")[0])))
for ln in ranked[:6]:
    print("  ", ln)

print()
print("=== against the closed form ===")
cf = closed_form_state(1, r, lam, eta, cutoff=12)
print(f"fidelity with (1 + kappa a'b') sigma^rho |0>: "
      f"{fidelity(hs.state, cf.state):.15f}")
print(f"branch norms: circuit {norm_sq(hs.state):.12f}, "
      f"closed form {norm_sq(cf.state):.12f}")

print()
print("=== what one scissor buys ===")
res = distill_and_measure(single_stage_circuit(r, lam, eta, cutoff=30))
before = epr_criterion(lossy_channel_state(r, lam, 30), "A", "B").eps_b_given_a
print(f"eps_B|A before distillation: {before:.6f}")
print(f"eps_B|A after the scissor:   {res.eps_b_given_a:.6f} "
      f"(purity {res.purity:.6f}, success {res.success_prob:.4f})")
print("note: at this high success rate the scissor output is LESS entangled;")
print("the wins come at low success probability and high loss (see demo 03)")
