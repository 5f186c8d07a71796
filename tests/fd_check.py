"""Central finite differences against analytic gradients: the tests' check
of the tape's backward passes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from graphsentry.autodiff import NonFiniteError


@dataclass
class FdCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    passed: bool
    worst_error: float
    worst_tensor: int
    worst_coord: int
    analytic_at_worst: float
    numeric_at_worst: float
    coords_checked: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"fd-check {status}: worst err {self.worst_error:.3e} at "
                f"tensor {self.worst_tensor} coord {self.worst_coord} "
                f"(analytic {self.analytic_at_worst:.6e}, numeric {self.numeric_at_worst:.6e}, "
                f"{self.coords_checked} coords)")


def finite_difference_check(f: Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]],
                            point: list[np.ndarray],
                            step: float = 1e-6,
                            tolerance: float = 1e-4) -> FdCheckReport:
    """Compare f's analytic gradients against central finite differences.

    `f(point)` must return `(scalar value, [grad per input array])`. Errors are
    relative, falling back to absolute when both magnitudes are below 1e-8.
    """
    point = [np.asarray(p, dtype=np.float64) for p in point]
    value, analytic = f(point)
    if not np.isfinite(value):
        raise NonFiniteError("f returned a non-finite value at the base point")
    if len(analytic) != len(point):
        raise ValueError("f returned a gradient count different from the input count")

    worst = -1.0
    worst_loc = (0, 0)
    worst_vals = (0.0, 0.0)
    checked = 0
    for ti, p in enumerate(point):
        flat = p.reshape(-1)
        grad_flat = np.asarray(analytic[ti], dtype=np.float64).reshape(-1)
        if grad_flat.size != flat.size:
            raise ValueError(f"gradient {ti} has wrong size")
        for ci in range(flat.size):
            orig = flat[ci]
            flat[ci] = orig + step
            up, _ = f(point)
            flat[ci] = orig - step
            down, _ = f(point)
            flat[ci] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NonFiniteError("f returned a non-finite value at a probe point")
            numeric = (up - down) / (2.0 * step)
            an = grad_flat[ci]
            denom = max(abs(numeric), abs(an))
            err = abs(numeric - an) if denom < 1e-8 else abs(numeric - an) / denom
            checked += 1
            if err > worst:
                worst = err
                worst_loc = (ti, ci)
                worst_vals = (float(an), float(numeric))
    return FdCheckReport(
        passed=worst <= tolerance,
        worst_error=float(worst),
        worst_tensor=worst_loc[0],
        worst_coord=worst_loc[1],
        analytic_at_worst=worst_vals[0],
        numeric_at_worst=worst_vals[1],
        coords_checked=checked,
    )
