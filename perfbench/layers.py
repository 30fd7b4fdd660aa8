"""Per-layer metrics derived from the spans of one traced CLI call.

A layer is a ``cvbias`` module; ``<module>.<function>.self_s`` is the time
spent in that function minus the time of the wrapped calls it made.
Layers that a workload does not run report 0.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

import numpy as np


def _khat_over(args, est) -> dict:
    cap = min(1.0 - 1.0 / math.log10(est.n_draws), 0.7) if est.n_draws > 1 else -math.inf
    return {"khat_over": int(np.sum(np.asarray(est.khat_per_obs) >= cap))}


# facts taken from arguments and returned objects at the call boundary
PROBES = {
    "search.forward_search": lambda args, path: {
        "candidates": sum(s.candidates_evaluated for s in path.steps)
    },
    "search.correct_path": lambda args, path: {
        "corrected": sum(s.corrected_diff != s.raw_diff for s in path.steps),
        "post_bulge": sum(bool(s.post_bulge) for s in path.steps),
    },
    "psisloo.elpd_loo_psis": _khat_over,
    "io.read_matrix_csv": lambda args, result: {
        "path": os.path.abspath(args[0]),
        "bytes": os.path.getsize(args[0]),
    },
}

SELF_TIMES = [
    "conjlm.fit",
    "conjlm.elpd_loo_exact",
    "conjlm.log_pred",
    "search.forward_search",
    "search.evaluate_test",
    "search.correct_path",
    "search.stopping_rules",
    "psisloo.elpd_loo_psis",
    "psisloo.smooth_log_weights",
    "gpd.fit_gpd",
    "gpd.tail_cutoff",
    "io.read_matrix_csv",
    "io.write_rows_csv",
    "io.dump_json",
    "sim.run_many_k",
    "sim.gen_nested",
    "orderstats.build_comparison",
    "weights.weight_report",
]
CALL_COUNTS = [
    "conjlm.fit",
    "conjlm.elpd_loo_exact",
    "psisloo.smooth_log_weights",
    "gpd.fit_gpd",
    "io.read_matrix_csv",
]


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, from one call's spans."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, float] = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = len(by_name[name])
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = math.fsum(s.self_s for s in by_name[name])

    def under(span, ancestor: str) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor:
                return True
        return False

    loo_calls = len(by_name["conjlm.elpd_loo_exact"])
    loo_fits = sum(under(s, "conjlm.elpd_loo_exact") for s in by_name["conjlm.fit"])
    out["conjlm.fits_per_loo"] = loo_fits / loo_calls if loo_calls else 0.0

    def total(name, fact):
        return sum(s.facts[fact] for s in by_name[name])

    out["search.candidates_scored"] = total("search.forward_search", "candidates")
    out["search.steps_corrected"] = total("search.correct_path", "corrected")
    out["search.steps_post_bulge"] = total("search.correct_path", "post_bulge")
    out["psisloo.khat_over_threshold"] = total("psisloo.elpd_loo_psis", "khat_over")

    reads = by_name["io.read_matrix_csv"]
    paths = {s.facts["path"] for s in reads}
    read_s = math.fsum(s.end - s.start for s in reads)
    out["io.reads_per_input"] = len(reads) / len(paths) if paths else 0.0
    out["io.read_mb_per_s"] = total("io.read_matrix_csv", "bytes") / 1e6 / read_s if read_s else 0.0
    return out
