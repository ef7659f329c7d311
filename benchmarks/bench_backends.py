"""Time the numba kernels against their numpy fallbacks.

Run from the repository root:

    python benchmarks/bench_backends.py            # full sizes
    python benchmarks/bench_backends.py --quick    # CI-sized

Each kernel is warmed up first so numba's compilation cost is not billed
to the measurement.  Both backends consume identical counter-based random
streams, so the outputs are asserted equal before timing.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from urndist._kernels import IMPLEMENTATIONS


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(quick: bool) -> None:
    scale = 10 if quick else 1
    walk_count = 2_000_000 // scale
    inv_count = 2_000_000 // scale
    pmf_total = 2_000_000 // scale
    pmf_good = pmf_total // 10
    repeats = 3

    cases = []

    for total, good, label in ((10, 3, "small urn"), (10_000, 40, "rare good")):
        cases.append(
            (
                f"urn_walk_batch  {label:9s} ({walk_count:>9,} draws)",
                lambda impl, t=total, g=good: impl["urn_walk_batch"](
                    t, g, 42, 0, walk_count
                ),
            )
        )

    rng = np.random.default_rng(0)
    cdf_table = np.sort(rng.random(100_000))
    cdf_table[-1] = 1.0
    cases.append(
        (
            f"inverse_cdf_table_batch      ({inv_count:>9,} draws)",
            lambda impl: impl["inverse_cdf_table_batch"](cdf_table, 42, 0, inv_count),
        )
    )

    support = pmf_total - pmf_good + 1
    cases.append(
        (
            f"pmf_float_range              ({support:>9,} points)",
            lambda impl: impl["pmf_float_range"](pmf_total, pmf_good, 1, support),
        )
    )

    backends = sorted(IMPLEMENTATIONS)
    print(f"backends: {', '.join(backends)}")
    header = f"{'kernel':-<46s}" + "".join(f"{b:>12s}" for b in backends) + f"{'speedup':>10s}"
    print(header)

    for label, runner in cases:
        outputs = {b: runner(IMPLEMENTATIONS[b]) for b in backends}  # warm-up
        if len(backends) == 2:
            a, b = (outputs[name] for name in backends)
            assert np.array_equal(a, b), "backends disagree"
        times = {b: _best_of(lambda bk=b: runner(IMPLEMENTATIONS[bk]), repeats) for b in backends}
        row = f"{label:<46s}" + "".join(f"{times[b]:>11.4f}s" for b in backends)
        if len(backends) == 2:
            row += f"{times['numpy'] / times['numba']:>9.2f}x"
        print(row)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    bench(parser.parse_args().quick)
