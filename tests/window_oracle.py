"""The four-loop window enumerator, the reference that
``hammerline.cone.find_solution_windows`` is tested against.

Each pattern S1-S4 is written out as its own nested loop over the radii
where its conditions hold, each condition checked one radius at a time with
``check_index_one`` / ``check_index_zero``, as hammerline enumerated windows
before its pattern table. No part of the table, of its derived margin names
or of the batched radius evaluation is shared.
"""

import numpy as np

import hammerline as hl


def oracle_windows(report, envelopes=(None, None), rho_values=None):
    """All certified windows over the radii, best margins first."""
    up_env, low_env = envelopes
    if rho_values is None:
        rho_values = np.geomspace(0.05, 5.0, 25)
    rho_values = sorted(float(r) for r in rho_values)
    ones = {r: hl.check_index_one(report, r, up_env) for r in rho_values}
    zeros = {r: hl.check_index_zero(report, r, low_env) for r in rho_values}
    has_b = "b" in report.bridges
    has_c = "c" in report.bridges
    ones_hold = [r for r in rho_values if ones[r].holds]
    zeros_hold = [r for r in rho_values if zeros[r].holds]
    windows = []

    def margins_ok(ms):
        return all(v > 0.0 for v in ms.values())

    if has_b:
        for r1 in zeros_hold:
            b1 = hl.bridge_b(report, r1)
            for r2 in ones_hold:
                ms = {"expansion": zeros[r1].margin, "contraction": ones[r2].margin,
                      "bridge": (r2 - b1) / max(r1, r2)}
                if margins_ok(ms):
                    windows.append(hl.IndexWindow("S1", (r1, r2), ms, "closed", 1))
    if has_c:
        cf = report.bridges["c"]["coefficient"]
        for r1 in ones_hold:
            for r2 in zeros_hold:
                ms = {"contraction": ones[r1].margin, "expansion": zeros[r2].margin,
                      "bridge": (r2 - cf * r1) / max(r1, r2)}
                if margins_ok(ms):
                    windows.append(hl.IndexWindow("S2", (r1, r2), ms, "closed", 1))
    if has_b and has_c:
        cf = report.bridges["c"]["coefficient"]
        for r1 in zeros_hold:
            b1 = hl.bridge_b(report, r1)
            for r2 in ones_hold:
                if r2 <= b1:
                    continue
                for r3 in zeros_hold:
                    ms = {"expansion_1": zeros[r1].margin,
                          "contraction": ones[r2].margin,
                          "expansion_2": zeros[r3].margin,
                          "bridge_1": (r2 - b1) / max(r1, r2),
                          "bridge_2": (r3 - cf * r2) / max(r2, r3)}
                    if margins_ok(ms):
                        windows.append(hl.IndexWindow("S3", (r1, r2, r3), ms, "closed", 2))
        for r1 in ones_hold:
            for r2 in zeros_hold:
                if r2 <= cf * r1:
                    continue
                b2 = hl.bridge_b(report, r2)
                for r3 in ones_hold:
                    ms = {"contraction_1": ones[r1].margin,
                          "expansion": zeros[r2].margin,
                          "contraction_2": ones[r3].margin,
                          "bridge_1": (r2 - cf * r1) / max(r1, r2),
                          "bridge_2": (r3 - b2) / max(r2, r3)}
                    if margins_ok(ms):
                        windows.append(hl.IndexWindow("S4", (r1, r2, r3), ms, "closed", 2))
    windows.sort(key=lambda wdw: (-wdw.min_margin, wdw.pattern, wdw.radii))
    return windows
