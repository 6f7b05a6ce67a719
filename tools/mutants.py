"""Mutation checks: plant one known fault at a time and see a test catch it.

    python tools/mutants.py

Each row of ``MUTANTS`` names a mutant, a file of the checkout, an exact text
that must occur in that file once, its replacement, and the tests expected
to fail on it: test files, or pytest node ids ``file::test``.  The tool
copies the checkout (without ``.git`` and caches) to a temporary directory
and, for each row in turn, applies the one replacement there, runs
``python -m pytest -x -q`` on the row's tests against the copy's ``src``,
and puts the file back.  It prints one line per mutant: its name, its
outcome and the seconds its tests took.  The outcome is ``killed`` (the
tests failed), ``survived`` (they passed: they are blind to the fault),
``stale`` (the old text does not occur exactly once, or a named test file
is missing: the row must follow the code) or ``error N`` (pytest exited
with code N, say for a node id that does not exist).  Nothing is written
into the checkout.  The exit code is 0 when every mutant is killed, else 1.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")

PROLONGATIONS = "src/jetforms/prolongations.py"
DEDONDER = "src/jetforms/dedonder.py"
EXPRESSIONS = "src/jetforms/expressions.py"
NUMERIC = "src/jetforms/numeric.py"
PROBLEM = "src/jetforms/problem.py"
TEST_NUMERIC = "tests/test_numeric.py"
PROPERTIES = "tests/test_properties.py"
MULTI_INDEX = (f"{PROPERTIES}::"
               "test_sum_of_total_derivatives_takes_a_multi_index_as_the_chain_of_single_ones")
EXAMPLE_MULTI_INDEX = ("tests/test_expressions.py::"
                       "test_a_multi_index_derivative_is_the_chain_of_single_ones")
ONE_ID_DERIVATION = (f"{PROPERTIES}::"
                     "test_derivation_along_one_id_images_matches_the_route_of_the_reference_"
                     "symmetry_test")
LAZY_REFERENCE = ("tests/test_dedonder.py::"
                  "test_ladder_shaped_forms_and_summed_tables_equal_the_eager_reference")
CONDITION3 = "tests/test_dedonder.py::test_condition3_reads_the_check_of_assembly"
BAND_PROPERTY = (f"{PROPERTIES}::"
                 "test_a_band_limited_state_steps_and_weighs_as_the_full_spectrum_references")

# (name, file, old text, new text, tests expected to kill the mutant)
MUTANTS = [
    # the symbolic core
    ("prolongation-correction-sign", PROLONGATIONS,
     "shifts[j] = [(i, -part) for", "shifts[j] = [(i, part) for",
     ("tests/test_prolongations.py",)),
    ("noether-drops-the-lagrangian-term", PROLONGATIONS,
     "densities = [[Y.base_components[i] * lagrangian] for",
     "densities = [[] for",
     ("tests/test_prolongations.py",)),
    ("top-delta-after-the-lower-levels", DEDONDER,
     "        if level == cfg.k:\n"
     "            for key, delta in top_delta.items():\n"
     "                current[key] = current.get(key, Expr.zero()) + delta\n"
     "            current = {key: value for key, value in current.items() if not value.is_zero}\n",
     "",
     ("tests/test_dedonder.py",)),
    ("dz-term-sign", DEDONDER,
     "terms[wedge] = value if (i1 + cfg.m) % 2 == 0 else -value",
     "terms[wedge] = -value if (i1 + cfg.m) % 2 == 0 else value",
     ("tests/test_dedonder.py",)),
    ("check-key-without-level-bound", DEDONDER,
     "    if len(tail) >= cfg.k:\n        raise ValueError(f\"coefficient key {key} has level",
     "    if False:\n        raise ValueError(f\"coefficient key {key} has level",
     ("tests/test_dedonder.py::test_coefficient_keys_out_of_range_are_rejected",)),
    # the one mark of a table verified against a Phi: read for that very
    # Phi only, and condition 3 still checks a table that carries none
    ("verified-mark-ignores-the-phi", DEDONDER,
     "return table._solves is not None and table._solves() is dec",
     "return table._solves is not None",
     (CONDITION3,)),
    ("condition3-skips-every-table", DEDONDER,
     "for a, I, residual in _unverified_residuals(phi, xi.coefficients)",
     "for a, I, residual in []",
     (CONDITION3,)),
    # Xi, Theta and a sum's table as written on their first read
    ("lazy-xi-drops-the-volume-term", DEDONDER,
     "        if not volume.is_zero:\n            terms[tuple(dx)] = volume\n",
     "",
     (LAZY_REFERENCE,)),
    ("lazy-theta-drops-the-lagrangian-term", DEDONDER,
     "return DifferentialForm.from_scalar(self.lagrangian).wedge(volume) + self.boundary.form",
     "return self.boundary.form",
     (LAZY_REFERENCE,)),
    ("summed-table-drops-a-part", DEDONDER,
     "for part in self._parts for item in part.table.items())",
     "for part in self._parts[1:] for item in part.table.items())",
     (LAZY_REFERENCE,)),
    ("terms-in-insertion-order", EXPRESSIONS,
     "        ordered = sorted(\n            (sorted([(keys[c]",
     "        ordered = list(\n            (sorted([(keys[c]",
     ("tests/test_expressions.py",)),
    # D_I in one walk and the product kernel
    ("one-id-path-lifts-one-direction-too-few", EXPRESSIONS,
     "        for i, row in rows:\n",
     "        for i, row in rows[1:]:\n",
     (EXAMPLE_MULTI_INDEX, MULTI_INDEX,
      f"{PROPERTIES}::test_lagrange_derivative_matches_the_chain_of_total_derivatives")),
    ("leibniz-path-drops-an-occurrence", EXPRESSIONS,
     "images = {mono: n}",
     "images = {mono[1:]: n}",
     (EXAMPLE_MULTI_INDEX, MULTI_INDEX)),
    ("product-kernel-drops-a-factor-sign", EXPRESSIONS,
     "acc = get(mono, 0) + n * n_b",
     "acc = get(mono, 0) + n * abs(n_b)",
     ("tests/test_expressions.py::test_sum_of_products_examples",
      f"{PROPERTIES}::test_sum_of_products_matches_the_sum_of_the_products",
      f"{PROPERTIES}::test_volume_coefficient_is_minus_z_times_the_splitting_sums")),
    ("product-kernel-drops-the-lcm-scale", EXPRESSIONS,
     "_add_product(store, a, b, sign * (den // (a._den * b._den)))",
     "_add_product(store, a, b, sign)",
     ("tests/test_expressions.py::test_sum_of_products_examples",
      f"{PROPERTIES}::test_sum_of_products_matches_the_sum_of_the_products",
      f"{PROPERTIES}::test_holonomic_reduce_matches_the_per_term_lifts")),
    ("derivation-inserts-one-slot-off", EXPRESSIONS,
     "at = bisect_right(rest, fid)",
     "at = bisect_right(rest, fid) - 1",
     ("tests/test_expressions.py::test_derivation_inserts_one_id_images_in_order",
      ONE_ID_DERIVATION)),
    ("content-reduction-skipped", EXPRESSIONS,
     "            g = gcd(den, *num.values())\n            if g != 1:",
     "            g = gcd(den, *num.values())\n            if False:",
     ("tests/test_expressions.py",)),
    # the Cauchy step, the slice energy, the stored band and the rotation
    ("cauchy-row-1-reordered", NUMERIC,
     "    np.add(B, C, out=v1)\n    v1 += Dt\n",
     "    np.add(C, Dt, out=v1)\n    v1 += B\n",
     (TEST_NUMERIC,)),
    ("band-too-narrow-in-band-limited-state", NUMERIC,
     "np.divide(z, modes.scales[:, 1 : max_mode + 1], out=u[:, :, 1:])",
     "np.divide(z[..., :-1], modes.scales[:, 1:max_mode], out=u[:, :, 1:-1])",
     (TEST_NUMERIC,)),
    ("band-too-narrow-in-the-step", NUMERIC,
     "band, modes = state._band, state.modes",
     "band, modes = state._band - 1, state.modes",
     (TEST_NUMERIC,)),
    # one scratch set for every band of a grid, whatever its shape
    ("step-scratch-ignores-the-band", NUMERIC,
     "    shape = u0.shape\n",
     "    shape = None\n",
     (f"{TEST_NUMERIC}::"
      "test_states_of_two_bands_on_one_grid_step_in_alternation_as_the_references",)),
    # the weights of a grid's first band serve its other bands
    ("energy-weights-ignore-the-band", NUMERIC,
     "if of != (modes, band):",
     "if of is None or of[0] is not modes:",
     (f"{TEST_NUMERIC}::"
      "test_states_of_two_bands_on_one_grid_step_in_alternation_as_the_references",)),
    ("band-too-narrow-in-the-energy", NUMERIC,
     "modes, band = state.modes, state._band",
     "modes, band = state.modes, state._band - 1",
     (TEST_NUMERIC,)),
    ("band-too-narrow-in-the-finiteness-check", NUMERIC,
     "if not np.isfinite(u.view(float)).all():",
     "if not np.isfinite(u[:, :, :-1].view(float)).all():",
     (TEST_NUMERIC,)),
    ("rotation-reused-when-dt-differs", NUMERIC,
     "if rotation[:2] != (dt, band):",
     "if rotation[1] != band:",
     (BAND_PROPERTY,)),
    ("rotation-reused-when-the-band-differs", NUMERIC,
     "if rotation[:2] != (dt, band):",
     "if rotation[0] != dt:",
     (BAND_PROPERTY,)),
    # the row of a field's first (field, row) key serves all its rows, as a
    # cache keyed by field alone would
    ("energy-row-keyed-by-field-alone", NUMERIC,
     "state._u[key] * modes.scales[key[1], :band]",
     "state._u[key[0], 0] * modes.scales[0, :band]",
     (TEST_NUMERIC,)),
    ("energy-coefficient-check-dropped", NUMERIC,
     "if any(abs(c) > sys.float_info.max for *_, c in self._terms):",
     "if False:",
     (TEST_NUMERIC,)),
    ("energy-xi-power-check-dropped", NUMERIC,
     "if not all(np.isfinite(power).all() for power in powers.values()):",
     "if False:",
     (TEST_NUMERIC,)),
    ("energy-weight-check-dropped", NUMERIC,
     "if not np.isfinite(float(c) * peaks[S]):",
     "if False:",
     (TEST_NUMERIC,)),
    # the parser's bounds on the work of reading a problem
    ("product-pair-bound-dropped", PROBLEM,
     "if p * q > _MAX_PAIRS:", "if False:",
     ("tests/test_problem.py",)),
    ("product-factor-bound-dropped", PROBLEM,
     "if p * q * degree > _MAX_FACTORS:", "if False:",
     ("tests/test_problem.py",)),
    ("power-factor-bound-dropped", PROBLEM,
     "if most * degree > _MAX_FACTORS:", "if False:",
     ("tests/test_problem.py",)),
    # a sum's bound, checked where it runs against the running product of
    # its range and the ranges of the sums around it
    ("sum-evaluation-bound-dropped", PROBLEM,
     "if count > _MAX_DEGREE:", "if False:",
     ("tests/test_problem.py",)),
    ("sum-bound-ignores-the-sums-around-it", PROBLEM,
     "self.running = count = outer * max(0, last - first + 1)",
     "count = max(0, last - first + 1)",
     ("tests/test_problem.py",)),
    # the parser's evaluation: a leaf's memo keyed without its last jet
    # index, and a zero product that stops before its later factors' errors
    ("parse-leaf-memo-drops-an-index", PROBLEM,
     "return self.leaf(jet, names)", "return self.leaf(jet, names[:-1])",
     ("tests/test_problem.py::test_wave_fixture_parses",)),
    ("parse-zero-product-skips-later-factors", PROBLEM,
     "                    other = factor(env)\n"
     "                    if value.is_zero:  # and stays zero; the factor ran for its errors\n"
     "                        continue\n",
     "                    if value.is_zero:\n"
     "                        break\n"
     "                    other = factor(env)\n",
     ("tests/test_problem.py::test_sums_zero_products_and_leaves_evaluate_as_the_reference",)),
    # the parser's skewQ key is the solver's top-level key: swapping i1 and
    # i2 negates the declared data, whose signed differences the golden
    # verify output holds; a declared zero reaches the solve, whose
    # top-level filter must drop it
    ("skew-key-swaps-its-base-indices", PROBLEM,
     "return (a, i1, (i2,)), _within_digits(value({}), at)",
     "return (a, i2, (i1,)), _within_digits(value({}), at)",
     ("tests/test_cli.py::test_golden_outputs[wave_verify.json]",)),
    ("top-level-filter-keeps-zeros", DEDONDER,
     "            current = {key: value for key, value in current.items() if not value.is_zero}\n",
     "",
     ("tests/test_problem.py::"
      "test_a_zero_skew_value_is_kept_and_gives_the_table_of_the_line_left_out",)),
    # the A/B tool's check that B computes what A computes
    ("ab-drops-the-output-comparison", "tools/ab.py",
     "if output != first:", "if False:",
     ("tests/test_source.py::test_ab_stops_when_b_computes_another_output",)),
    # faults that the numeric oracles of the tests catch: the Noether current
    # against the force decomposition's quadratures, and the Lagrange
    # derivative against the functional-derivative oracle
    ("noether-boundary-term-negated", PROLONGATIONS,
     "densities[i - 1].append(pull(p) * dq)",
     "densities[i - 1].append(-pull(p) * dq)",
     (f"{TEST_NUMERIC}::test_decomposition_identity_and_invariance",)),
    # every level l >= 1 of the Euler operator with the sign (-1)^(l+1);
    # dL/dy^a keeps its sign
    ("lagrange-derivative-level-signs-flipped", DEDONDER,
     "terms[c[1]].append((partial, I, -1 if len(I) % 2 else 1))",
     "terms[c[1]].append((partial, I, (1 if len(I) % 2 else -1) if I else 1))",
     (f"{TEST_NUMERIC}::test_functional_derivative_oracle_matches_lagrange_derivative",
      f"{TEST_NUMERIC}::test_functional_derivative_oracle_random_fixtures")),
    # caught through the oracles' own use of terms(): evaluate_on_grid reads
    # the Lagrangian's coefficients there, so the action the oracle varies
    # is off by the halved coefficient
    ("terms-halves-a-fractional-coefficient", EXPRESSIONS,
     "n if den == 1 else _rational(n, den))",
     "n if den == 1 else _rational(n, 2 * den))",
     (f"{TEST_NUMERIC}::test_functional_derivative_oracle_matches_lagrange_derivative",
      "tests/test_acceptance.py::test_criterion_4_k1_reduction_and_oracle")),
]


def stale(root: pathlib.Path, row) -> bool:
    """Whether the row no longer fits the tree under ``root``."""
    _, path, old, _, tests = row
    target = root / path
    if not target.is_file() or target.read_text().count(old) != 1:
        return True
    return not all((root / test.split("::")[0]).is_file() for test in tests)


def run_tests(copy: pathlib.Path, tests) -> int:
    """pytest's exit code on ``tests`` in the copy, on the copy's package."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def check(copy: pathlib.Path, row) -> str:
    """Apply the row's mutant to the copy, run its tests, put the file back."""
    _, path, old, new, tests = row
    if stale(copy, row):
        return "stale"
    target = copy / path
    source = target.read_text()
    target.write_text(source.replace(old, new))
    try:
        code = run_tests(copy, tests)
    finally:
        target.write_text(source)
    # 1: a test failed; 2: collection failed, as when the mutant breaks an import
    if code in (1, 2):
        return "killed"
    return "survived" if code == 0 else f"error {code}"


def main() -> int:
    width = max(len(row[0]) for row in MUTANTS)
    outcomes = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = pathlib.Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        for row in MUTANTS:
            start = time.perf_counter()
            outcome = check(copy, row)
            outcomes.append(outcome)
            print(f"{row[0]:<{width}}  {outcome:<8}  {time.perf_counter() - start:5.1f}s",
                  flush=True)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
