"""Test-side reference shared by test_stable and test_acceptance: the
recorded constants of the subordinator's two bounds over a u sweep."""

import numpy as np

from dunkl.stable import subordinator_bounds_check


def subordinator_bounds_sweep(s: float, t: float,
                              decades=(-4.0, 4.0), num: int = 33) -> dict:
    """Recorded constants for the two bounds over u/t^{2/s} in 10^decades."""
    u_star = t ** (2.0 / s)
    us = u_star * np.geomspace(10.0 ** decades[0], 10.0 ** decades[1], num)
    if u_star not in us:
        us = np.sort(np.append(us, u_star))  # include the crossover point
    checks = [subordinator_bounds_check(s, t, float(u)) for u in us]
    upper = [c.upper_ratio for c in checks]
    asymp = [c.asymp_ratio for c in checks if c.asymp_ratio is not None]
    return {
        "s": s, "t": t, "u_over_ustar": (10.0 ** decades[0], 10.0 ** decades[1]),
        "upper_C": max(upper),
        "asymp_bracket": (min(asymp), max(asymp)),
        "count": len(checks),
    }
