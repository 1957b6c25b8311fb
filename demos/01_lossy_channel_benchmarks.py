"""Benchmarks of EPR entanglement sent through a lossy channel.

Walks through the no-amplifier baseline: how the EPR-criterion product and
the state purity degrade with channel loss, why infinite squeezing pins the
entanglement floor at lambda^2, and how purity trades against entanglement.
Every closed form is cross-checked against the truncated-Fock simulation.
"""

from nla_distill import (epr_criterion, eps_infinity, eps_no_nla,
                         lossy_channel_state, purity, purity_no_nla,
                         purity_tradeoff)

CUTOFF = 25


print("=== entanglement and purity after loss ===")
print(f"{'r':>5} {'loss':>5} | {'eps sim':>10} {'eps form':>10} "
      f"| {'purity sim':>10} {'purity form':>11}")
for r in (0.3, 0.6, 1.0):
    for lam in (0.1, 0.3, 0.6):
        st = lossy_channel_state(r, lam, CUTOFF)
        eps_sim = epr_criterion(st, "A", "B").eps_b_given_a
        pur_sim = purity(st, ["A", "B"])
        print(f"{r:5.2f} {lam:5.2f} | {eps_sim:10.6f} {eps_no_nla(r, lam)[0]:10.6f} "
              f"| {pur_sim:10.6f} {purity_no_nla(r, lam):11.6f}")

print()
print("=== the conditioning direction matters ===")
st = lossy_channel_state(0.6, 0.3, CUTOFF)
res = epr_criterion(st, "A", "B")
print(f"eps_B|A = {res.eps_b_given_a:.6f}  (infer the lossy mode from the kept one)")
print(f"eps_A|B = {res.eps_a_given_b:.6f}  (the other way round is always worse)")

print()
print("=== infinite squeezing floors the entanglement at lambda^2 ===")
for lam in (0.2, 0.5, 0.8):
    big_r = eps_no_nla(8.0, lam)[0]
    print(f"loss {lam:.1f}: eps(r=8) = {big_r:.6f}  vs  lambda^2 = {eps_infinity(lam):.6f}")

print()
print("=== purity versus entanglement trade-off ===")
print("stronger targets cost purity; the relation is the exact eliminant of")
print("the loss curves above:")
for eps in (0.9, 0.6, 0.3):
    row = ", ".join(f"loss {lam:.1f}: {purity_tradeoff(eps, lam):.4f}"
                    for lam in (0.1, 0.3, 0.5) if lam * lam <= eps)
    print(f"  eps = {eps:.1f} -> purity {row}")
