"""The four nonlocality quantifiers and how they behave under wirings.

s_u fixes uniform inputs, s_uc optimizes over product inputs, s_c over
all input distributions, and s_nl is the worst-setting divergence from
the local set. s_nl and s_c coincide (a minimax identity); s_nl and
s_uc never increase under nonlocality-free wirings; s_u can increase
under a plain local wiring, which disqualifies it as a monotone.

Run:  python demos/04_nonlocality_monotones.py
"""

import numpy as np

import bellwire as bw

sc = bw.Scenario(2, 2, 2, 2)
pr = bw.pr_box()

# --- the quantifier family on the PR box ------------------------------------
su = bw.s_u(pr, 1e-6)
suc = bw.s_uc(pr, 1e-6, restarts=8, seed=0)
scv = bw.s_c(pr, 1e-6)
snl = bw.s_nl(pr, 1e-6)
print("PR box:")
print(f"  s_u  = {su.value:.8f}  (gap {su.gap_estimate:.1e})")
print(f"  s_uc = {suc.value:.8f}  (lower bound: {suc.lower_bound})")
# s_c's input distribution is a max-min certificate: the closest local
# box under these inputs is at least s_c minus the gap away
print(f"  s_c  = {scv.value:.8f}  "
      f"(maximin inputs {np.round(scv.optimizer_inputs.d.reshape(-1), 4)})")
print(f"  s_nl = {snl.value:.8f}")
print("  all four coincide here by the box's setting symmetry")

# every solve returns a constructive certificate: the minimizing local
# behavior as a convex mixture of deterministic strategies
recon = snl.optimizer_local.reconstruct()
print(f"  optimizer reconstructs to a local box at divergence "
      f"{bw.behavior_re(pr, recon).bits:.8f}")

# --- the minimax identity, cross-validated ----------------------------------
p = bw.random_ns_behavior(sc, seed=92)
a = bw.s_nl(p, 1e-6)
b = bw.s_c_alternating(p, 1e-6)
print(f"\nminimax identity on a random NS behavior: "
      f"|{a.value:.8f} - {b.value:.8f}| = {abs(a.value-b.value):.1e}")

# --- monotonicity audits ------------------------------------------------------
wirings = [bw.random_wpicc_wiring(sc, sc, s) for s in range(10)]
rep = bw.monotonicity_audit("snl", bw.Behavior(
    sc, 0.8 * pr.p + 0.2 * bw.white_noise(sc).p), wirings, 1e-6)
print(f"\ns_nl under 10 random communication wirings: "
      f"violations = {rep.any_violation}")

# s_u is NOT a monotone: folding the four-setting box onto its quantum
# block quadruples it under a deterministic product wiring
p0 = bw.tsirelson_four_setting()
audit = bw.monotonicity_audit("su", p0, [bw.setting_fold_wiring()], 1e-6)
row = audit.rows[0]
print(f"s_u under the fold wiring: {row.value_before:.7f} -> "
      f"{row.value_after:.7f} (x{row.value_after/row.value_before:.3f}, "
      f"violation flagged: {row.violated})")

# --- convexity ----------------------------------------------------------------
rep = bw.convexity_audit("snl", pr, bw.white_noise(sc),
                         [0.25, 0.5, 0.75], 1e-6)
print(f"\ns_nl convexity on PR/noise mixtures: violations = {rep.any_violation}")
for row in rep.rows:
    print(f"  {row.label}: mixture {row.value_after:.6f} <= "
          f"average {row.value_before:.6f} + slack")
