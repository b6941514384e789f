"""The one-slice-at-a-time smoothness protocol, kept as an oracle.

``smoothmpc.experiments.slice_smoothness`` scans a stack of slices in
lockstep: one ``jacobians`` call for the coarse scans of every slice, then
one per refinement level over the slices still refining. This is the
protocol it replaced, which scans each slice on its own; at batch
evaluators whose rows do not depend on their batch, both must give the
same L0 and L1 bit for bit.
"""

import numpy as np

from smoothmpc.experiments import PROBE_SLICES, REFINE_PEAKS, SLICE_SPAN


def slice_smoothness_one(jacobians, anchor, direction, span, coarse_h, min_h):
    """Max Jacobian norm and Jacobian variation along one state-space line.

    Scans coarsely, then repeatedly refines windows around the
    REFINE_PEAKS largest variation peaks (quartering the step) until the
    step reaches ``min_h`` or the estimate stabilizes. The coarse scan is
    one call, and so are the windows of each refinement level together.
    """
    anchor = np.asarray(anchor, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    def scan(windows):
        ss = np.concatenate(windows)
        J = np.asarray(jacobians(anchor + ss[:, None] * direction), dtype=float)
        ok = ~np.isnan(J).any(axis=(1, 2))
        L0_loc = float(np.linalg.norm(J[ok], 2, axis=(1, 2)).max()) if ok.any() else 0.0
        ends = np.cumsum([len(w) for w in windows])
        pair = ok[:-1] & ok[1:]
        pair[ends[:-1] - 1] = False  # no pair across two windows
        i = np.flatnonzero(pair)
        cands = [[] for _ in windows]
        if i.size:
            ratios = np.linalg.norm(J[i + 1] - J[i], 2, axis=(1, 2)) / (ss[i + 1] - ss[i])
            for w, j, ratio in zip(np.searchsorted(ends, i, side="right"), i, ratios):
                cands[w].append((0.5 * (ss[j] + ss[j + 1]), float(ratio)))
        return L0_loc, cands

    L0, (cand,) = scan([np.arange(-span, span + coarse_h / 2, coarse_h)])
    cand.sort(key=lambda t: -t[1])
    L1 = cand[0][1] if cand else 0.0
    centers = [c for c, _ in cand[:REFINE_PEAKS]]

    h = coarse_h
    while h / 4.0 >= min_h and centers:
        h_new = h / 4.0
        L0_loc, cands = scan([np.arange(c - 2.5 * h, c + 2.5 * h + h_new / 2, h_new)
                              for c in centers])
        L0 = max(L0, L0_loc)
        improved = 0.0
        new_centers = []
        for cand_loc in cands:
            if cand_loc:
                cand_loc.sort(key=lambda t: -t[1])
                improved = max(improved, cand_loc[0][1])
                new_centers.append(cand_loc[0][0])
        if improved <= L1 * 1.05 and h <= coarse_h / 16.0:
            L1 = max(L1, improved)
            break
        L1 = max(L1, improved)
        centers = new_centers
        h = h_new
    return {"L0": L0, "L1": L1}


def slices_one_by_one(jacobians, anchors, directions, span, coarse_h, min_h):
    """L0 and L1 over the slices, each scanned on its own."""
    L0 = L1 = 0.0
    for anchor, direction in zip(anchors, directions):
        out = slice_smoothness_one(jacobians, anchor, direction, span, coarse_h, min_h)
        L0 = max(L0, out["L0"])
        L1 = max(L1, out["L1"])
    return {"L0": L0, "L1": L1}


def probe_smoothness_one_by_one(jacobians, feature_scale):
    """``expert_smoothness`` with each probe slice scanned on its own."""
    coarse_h = 0.25
    min_h = float(np.clip(feature_scale / 4.0, 1e-4, coarse_h))
    anchors, directions = zip(*PROBE_SLICES)
    out = slices_one_by_one(jacobians, anchors, directions, SLICE_SPAN, coarse_h, min_h)
    return {"L0_max": out["L0"], "L1_max": out["L1"]}
