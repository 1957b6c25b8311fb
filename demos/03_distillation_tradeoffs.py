"""Operating the distiller: best entanglement at a fixed success budget.

Sweeps channel loss at several success probabilities, shows where the
amplifier beats the infinite-squeezing benchmark, and demonstrates the
striking trade rule: every extra 10 dB of loss costs one stage an extra
10 dB of success rate (20 dB for two stages).
"""

from nla_distill import lambda_from_db, optimize_entanglement

print("=== single stage: optimized entanglement vs loss ===")
print(f"{'loss dB':>8} | " + " | ".join(f"pi = {pi:g}".rjust(14)
                                        for pi in (1e-1, 1e-2, 1e-3)))
for db in (4.0, 8.0, 12.0, 16.0, 20.0):
    lam = lambda_from_db(db)
    cells = []
    for pi in (1e-1, 1e-2, 1e-3):
        res = optimize_entanglement(lam, pi, 1)
        mark = "*" if res.eps_b_given_a < lam * lam else " "
        cells.append(f"{res.eps_b_given_a:13.6f}{mark}")
    print(f"{db:8.1f} | " + " | ".join(cells))
print("(* beats the infinite-squeezing benchmark lambda^2; that happens only")
print(" above roughly 10 dB of loss for one stage)")

print()
print("=== the 10 dB / 10 dB trade (one stage) ===")
for db in (15.0, 20.0, 25.0):
    a = optimize_entanglement(lambda_from_db(db), 1e-2, 1).eps_b_given_a
    b = optimize_entanglement(lambda_from_db(db + 10.0), 1e-3, 1).eps_b_given_a
    print(f"eps({db:.0f} dB, pi=1e-2) = {a:.6f}   "
          f"eps({db + 10:.0f} dB, pi=1e-3) = {b:.6f}   "
          f"relative gap {abs(a - b) / a:.3%}")

print()
print("=== two stages pay twice: 10 dB of loss per 20 dB of success ===")
for db in (15.0, 20.0):
    a = optimize_entanglement(lambda_from_db(db), 1e-2, 2).eps_b_given_a
    b = optimize_entanglement(lambda_from_db(db + 10.0), 1e-4, 2).eps_b_given_a
    print(f"eps({db:.0f} dB, pi=1e-2) = {a:.6f}   "
          f"eps({db + 10:.0f} dB, pi=1e-4) = {b:.6f}   "
          f"relative gap {abs(a - b) / a:.3%}")

print()
print("=== where a second stage helps ===")
for db in (8.0, 16.0, 24.0, 30.0):
    lam = lambda_from_db(db)
    e1 = optimize_entanglement(lam, 1e-4, 1).eps_b_given_a
    e2 = optimize_entanglement(lam, 1e-4, 2).eps_b_given_a
    verdict = "two stages win" if e2 < e1 else "one stage wins"
    print(f"{db:5.1f} dB: N=1 {e1:.6f}  N=2 {e2:.6f}  -> {verdict}")
print("(the second stage stops paying off near 25 dB at this success rate)")
