"""Accuracy of the fourth-order wave Cauchy solver, computed untimed.

The round trip starts from the program's own seeded state.  The travelling
wave y = f(x - t) solves (d_t^2 - d_x^2)^2 y = 0 exactly, which gives a
closed-form reference.
"""
from __future__ import annotations

import csv
import io
import re

import numpy as np


# the evolve command's accuracy gates
NUMERIC_GATES = ("energy-drift", "boundary-form-independence")


def statuses(stdout: str) -> dict:
    """check name -> (PASS or FAIL, detail) from a command's report lines."""
    out = {}
    for line in stdout.splitlines():
        match = re.match(r"([\w-]+): (PASS|FAIL)(?: \((.*)\))?$", line)
        if match:
            out[match.group(1)] = (match.group(2), match.group(3) or "")
    return out


def gate_failures(found: dict) -> int:
    return sum(found.get(name, ("FAIL",))[0] != "PASS" for name in NUMERIC_GATES)


def _wavenumbers(grid):
    lo, hi, count, _ = grid.axes[0]
    return 2.0 * np.pi / (hi - lo), count


def roundtrip_relerr(numeric, grid, data: np.ndarray, t1: float) -> float:
    """|evolve(evolve(s, t1), 0) - s| / |s| in the discrete L2 norm."""
    state = numeric.CauchyState(grid, data)
    back = numeric.cauchy_evolve(numeric.cauchy_evolve(state, t1), 0.0)
    return float(np.linalg.norm(back.data - data) / np.linalg.norm(data))


def wave_l2err(numeric, grid, n: int, max_mode: int, seed: int, t1: float) -> float:
    """Relative L2 error of y after evolving y = f(x - t) from 0 to t1."""
    base, count = _wavenumbers(grid)
    rng = np.random.default_rng([seed, 1])
    spectrum = np.zeros((n, count // 2 + 1), dtype=complex)
    spectrum[:, 1 : max_mode + 1] = (
        rng.normal(size=(n, max_mode)) + 1j * rng.normal(size=(n, max_mode))
    ) * (count / (2 * max_mode))
    k = base * np.arange(count // 2 + 1)

    def field(t: float, order: int) -> np.ndarray:
        # d^r/dt^r f(x - t) = (-1)^r f^(r)(x - t)
        factor = (-1j * k) ** order * np.exp(-1j * k * t)
        return np.fft.irfft(spectrum * factor, n=count, axis=1)

    data = np.stack([field(0.0, r) for r in range(4)], axis=1)
    state = numeric.cauchy_evolve(numeric.CauchyState(grid, data), t1)
    exact = field(t1, 0)
    return float(np.linalg.norm(state.data[:, 0] - exact) / np.linalg.norm(exact))


def csv_drift(csv_text: str) -> float:
    """The largest relative drift the evolve command wrote."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    return max(float(row["drift"]) for row in rows)


def csv_problems(csv_text: str, t0: float, t1: float, steps: int) -> list:
    """Shape checks on conservation.csv: header, one row per step, finite values."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    problems = []
    if not rows or rows[0] != ["t", "E_symmetric", "E_skew", "drift"]:
        return [f"unexpected CSV header {rows[:1]}"]
    if len(rows) != steps + 2:
        problems.append(f"{len(rows) - 1} CSV rows, expected {steps + 1}")
    for index, row in enumerate(rows[1:]):
        values = [float(v) for v in row]
        expected_t = t0 + (t1 - t0) * index / steps
        if values[0] != expected_t:
            problems.append(f"row {index} has t={values[0]}, expected {expected_t}")
        if not all(np.isfinite(values)):
            problems.append(f"row {index} is not finite: {row}")
    return problems


def csv_mismatch(csv_text: str, reference: str, tol: float = 1e-12) -> list:
    """Energies within ``tol`` relative and drifts within ``tol`` absolute."""
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    ref_rows = list(csv.reader(io.StringIO(reference)))[1:]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} CSV rows, the reference has {len(ref_rows)}"]
    problems = []
    for index, (row, ref) in enumerate(zip(rows, ref_rows)):
        (t, *energies, drift), (ref_t, *ref_energies, ref_drift) = (
            [float(v) for v in row], [float(v) for v in ref])
        close = t == ref_t and abs(drift - ref_drift) <= tol and all(
            abs(e - r) <= tol * abs(r) for e, r in zip(energies, ref_energies))
        if not close:
            problems.append(f"CSV row {index} {row} differs from the reference {ref}")
    return problems
