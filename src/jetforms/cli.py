"""Command-line entry point.

    jetforms <command> <problem-file> [--json] [--out DIR] [--grid-n N]
             [--t1 T] [--seed S] [--section NAME]

Commands: euler-lagrange, boundary-form, dedonder-form, verify, noether,
evolve, residual.  Exit codes: 0 all checks passed, 1 a check failed,
2 parse or semantic error in the input (the problem file or an option such
as --grid-n), or a derived coefficient with more digits than the
interpreter converts to text.  Set JETFORMS_LOG=debug to log, on stderr,
the parse's seconds, sum-body evaluations and leaf evaluations, the sizes
and stage timings of the symmetric construction and the command's wall
time.
Output is deterministic: identical inputs give byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import cache

from .dedonder import (
    STRUCTURAL_CHECKS,
    compare_boundary_forms,
    debug_logger,
    dedonder_residual,
    derive,
    verify_condition3,
)
from .expressions import DigitLimitError, Expr, render_expr, render_rational
from .forms import holonomic_reduce, render_form
from .jets import jet_coord
from .problem import GridSpec, ProblemError, ProblemSpec, parse_problem
from .prolongations import is_symmetry, noether_current

ENERGY_DRIFT_TOL = 1e-6
ENERGY_AGREE_TOL = 1e-10


class Report:
    """Accumulates human-readable lines, machine records and check results."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode
        self.lines: list = []
        self.data: dict = {}
        self.checks: list = []

    def say(self, text: str):
        self.lines.append(text)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        status = "PASS" if ok else "FAIL"
        self.say(f"{name}: {status}" + (f" ({detail})" if detail else ""))

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def emit(self):
        if self.json_mode:
            import json

            payload = dict(self.data)
            if self.checks:
                payload["checks"] = self.checks
                payload["ok"] = self.ok
            json.dump(payload, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for line in self.lines:
                sys.stdout.write(line + "\n")


def _coefficient_key(a: int, i1: int, tail: tuple) -> str:
    indices = " ".join(map(str, (i1,) + tail))
    return f"p[{a}; {indices}]"


def cmd_euler_lagrange(spec: ProblemSpec, report: Report, args):
    deltas = derive(spec.cfg, spec.lagrangian).euler_lagrange()
    rendered = {}
    normalized = {}
    for a, delta in enumerate(deltas, start=1):
        rendered[str(a)] = render_expr(delta)
        report.say(f"deltaL/dy[{a}] = {rendered[str(a)]}")
        terms = delta.terms()
        lead = terms[0][1] if terms else 0
        if lead not in (0, 1):
            normalized[str(a)] = render_expr(delta / lead)
            report.say(
                f"deltaL/dy[{a}] = ({render_rational(lead)}) * "
                f"({normalized[str(a)]})"
            )
    report.data["euler_lagrange"] = rendered
    if normalized:
        report.data["euler_lagrange_normalized"] = normalized


def cmd_boundary_form(spec: ProblemSpec, report: Report, args):
    xi = derive(spec.cfg, spec.lagrangian).boundary_symmetric
    rendered, pieces = {}, []
    for (a, i1, tail), p in sorted(xi.coefficients.table.items()):  # keys are distinct
        key = _coefficient_key(a, i1, tail)
        value = rendered[key] = render_expr(p)
        report.say(f"{key} = {value}")
        # Xi in the contact basis: p^{i1,T}_a theta^a_T ^ (d/dx^{i1} -| d_m x)
        theta = f"theta[{a};{' '.join(map(str, tail))}]" if tail else f"theta[{a}]"
        pieces.append(f"({value}) {theta}^w[{i1}]")
    contact, coordinate = " + ".join(pieces) or "0", render_form(xi.form)
    report.say(f"Xi = {contact}")
    report.say(f"Xi (coordinate basis) = {coordinate}")
    report.data["coefficients"] = rendered
    report.data["boundary_form_contact"] = contact
    report.data["boundary_form"] = coordinate


def cmd_dedonder_form(spec: ProblemSpec, report: Report, args):
    theta = derive(spec.cfg, spec.lagrangian).theta_symmetric
    rendered = render_form(theta.form)
    report.say(f"Theta = {rendered}")
    report.data["dedonder_form"] = rendered
    report.data["lagrangian"] = render_expr(spec.lagrangian)


def cmd_verify(spec: ProblemSpec, report: Report, args):
    derivation = derive(spec.cfg, spec.lagrangian)
    dec, xi = derivation.decomposition, derivation.boundary_symmetric
    for name, holds in STRUCTURAL_CHECKS:
        report.check(name, holds(xi.form, spec.cfg))
    # zero by construction; reduced here, the one place that reports it
    pullback = holonomic_reduce(xi.form, spec.cfg)
    ok = pullback.is_zero
    report.check("boundary-form-pullback-vanishes", ok, "" if ok else render_form(pullback))
    condition3 = verify_condition3(dec, xi)
    detail = ""
    if not condition3.ok:
        a, I, residual = condition3.failures[0]
        detail = f"first failure at a={a}, I={I}: {render_expr(residual)}"
    report.check("boundary-form-target-vertical-pullback", condition3.ok, detail)
    if spec.skew:
        try:
            alt = derivation.skew_boundary(spec.skew)
        except ValueError as exc:
            report.check("skew-structure", False, str(exc))
            return
        report.check("skew-structure", True)
        comparison = compare_boundary_forms(xi, alt)
        failures = comparison.relation_failures
        report.check("skew-homogeneous-relations", not failures,
                     f"violated at {failures[0][:2]}" if failures else "")
        trace_ok = all(v.is_zero for v in comparison.divergence_residuals.values())
        report.check("divergence-trace-invariance", trace_ok)
        report.check("pullback-difference-vanishes", not comparison.pullback_failures)
        report.data["skew_differences"] = {
            _coefficient_key(*key): render_expr(value)
            for key, value in sorted(comparison.differences.items())
        }


def cmd_noether(spec: ProblemSpec, report: Report, args):
    if not spec.fields:
        report.say("no symmetry fields declared")
        return
    theta = derive(spec.cfg, spec.lagrangian).theta_symmetric
    solves = {
        section_name: all(
            form.is_zero for form in dedonder_residual(theta, section).values()
        )
        for section_name, section in spec.sections.items()
    }
    currents = {}
    for name in sorted(spec.fields):
        Y = spec.fields[name]
        symmetric, residual = is_symmetry(Y, spec.lagrangian)
        report.check(
            f"symmetry-{name}",
            symmetric,
            "" if symmetric else f"residual {render_form(residual)}",
        )
        for section_name in sorted(spec.sections):
            section = spec.sections[section_name]
            if not (symmetric and solves[section_name]):
                report.say(
                    f"current-{name}-on-{section_name}: skipped "
                    f"({'not a symmetry' if not symmetric else 'section is not a solution'})"
                )
                continue
            current = noether_current(Y, theta, section)
            closed = current.d().is_zero
            rendered = currents[f"{name}:{section_name}"] = render_form(current)
            report.say(f"current-{name}-on-{section_name} = {rendered}")
            report.check(f"conservation-{name}-on-{section_name}", closed)
    if currents:
        report.data["currents"] = currents


def _squared_wave_pattern(cfg, deltas) -> bool:
    """Do the Lagrange derivatives match c*(z_tttt - 2 z_ttxx + z_xxxx)?"""
    if cfg.m != 2 or cfg.k != 2:
        return False
    for a, delta in enumerate(deltas, start=1):
        pattern = (
            Expr.variable(jet_coord(a, (1, 1, 1, 1)))
            - 2 * Expr.variable(jet_coord(a, (1, 1, 2, 2)))
            + Expr.variable(jet_coord(a, (2, 2, 2, 2)))
        )
        lead = delta.partial(jet_coord(a, (1, 1, 1, 1))).constant_term()
        if lead == 0 or delta != pattern * lead:
            return False
    return True


def EnergyFunctional(theta):
    """``numeric.EnergyFunctional(theta)``; numpy loads on the first call.

    A module-level name rather than an import inside ``cmd_evolve``, because
    ``benchmarks/tracing.py`` reads and rebinds ``cli.EnergyFunctional`` to
    time each energy evaluation.
    """
    from .numeric import EnergyFunctional

    return EnergyFunctional(theta)


def cmd_evolve(spec: ProblemSpec, report: Report, args):
    from .numeric import band_limited_state, cauchy_evolve

    cfg = spec.cfg
    if spec.grid is None or spec.evolve is None:
        raise ProblemError(
            "the evolve command needs grid and evolve declarations", 1, 1
        )
    grid = spec.grid
    if args.grid_n is not None:
        try:
            grid = GridSpec(
                tuple((lo, hi, args.grid_n, periodic) for lo, hi, _, periodic in grid.axes)
            )
        except ValueError as exc:
            raise ProblemError(f"--grid-n {args.grid_n}: {exc}", 1, 1)
    if args.t1 is not None and not math.isfinite(args.t1):
        raise ProblemError(f"--t1 {args.t1}: the end time must be finite", 1, 1)
    if args.seed < 0:
        raise ProblemError(f"--seed {args.seed}: the seed must be non-negative", 1, 1)
    t0, t1, steps = spec.evolve
    if args.t1 is not None:
        t1 = args.t1
    lo, hi, count, _ = grid.axes[0]
    max_mode = max(2, count // 8)
    try:  # its errors are the grid's: its shape, or a period out of float range
        state = band_limited_state(grid, cfg.n, max_mode=max_mode, seed=args.seed)
    except ValueError as exc:
        raise ProblemError(str(exc), *spec.grid_at)
    # past xi_max |t1 - t0| = 1/sqrt(eps), with xi_max = 2 pi max_mode/(hi - lo),
    # cauchy_evolve's round-trip bound eps (1 + xi_max |t|)^2 passes 1
    span = (hi - lo) / (2 * math.pi * max_mode * math.sqrt(sys.float_info.epsilon))
    if abs(t1 - t0) > span:
        raise ProblemError(
            f"end time {t1:g}: |t1 - t0| exceeds {span:.3g}, past which no digit "
            f"of the evolved state survives (max mode {max_mode})", 1, 1
        )
    state.t = t0
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ProblemError(f"--out {args.out}: {exc}", 1, 1)
    derivation = derive(cfg, spec.lagrangian)
    try:  # the operator, the slice energy and the skew data all must be supported
        if not _squared_wave_pattern(cfg, derivation.euler_lagrange()):
            raise ValueError(
                "the Cauchy solver covers the squared-wave operator "
                "z_tttt - 2 z_ttxx + z_xxxx only"
            )
        energy_sym = EnergyFunctional(derivation.theta_symmetric)
        energy_skew = EnergyFunctional(derivation.theta_skew(spec.skew or None))
    except ValueError as exc:
        report.check("evolve-system-supported", False, str(exc))
        return
    report.check("evolve-system-supported", True)
    # equal exact tables give the skew energy bit for bit: evaluate it only
    # when they differ
    one_table = energy_sym.entries == energy_skew.entries
    rows = []
    for step in range(steps + 1):
        t = t0 + (t1 - t0) * step / steps
        try:
            state = cauchy_evolve(state, t)
        except (OverflowError, ValueError):
            raise ProblemError(f"evolving to t = {t:g} leaves the float range", 1, 1)
        try:  # a period, or a coefficient, that puts the energy out of float range
            e_sym = energy_sym(state)
            rows.append((t, e_sym, e_sym if one_table else energy_skew(state)))
        except OverflowError as exc:
            raise ProblemError(str(exc), *spec.lagrangian_at)
        except ValueError as exc:
            raise ProblemError(str(exc), *spec.grid_at)
    e0 = rows[0][1]
    scale = abs(e0) if e0 else 1.0
    drift = max(abs(e - e0) for _, e, _ in rows) / scale
    agree = max(abs(es - ek) for _, es, ek in rows) / scale
    csv_lines = ["t,E_symmetric,E_skew,drift"]
    for t, e_sym, e_skew in rows:
        csv_lines.append(
            f"{t:.17g},{e_sym:.17g},{e_skew:.17g},{abs(e_sym - e0) / scale:.17g}"
        )
    csv_text = "\n".join(csv_lines) + "\n"
    if args.out:
        path = os.path.join(args.out, "conservation.csv")
        try:
            with open(path, "w") as handle:
                handle.write(csv_text)
        except OSError as exc:
            raise ProblemError(f"--out {args.out}: {exc}", 1, 1)
        report.say(f"wrote {path}")
    else:
        report.say(csv_text.rstrip("\n"))
    report.data["csv"] = csv_text
    report.check(
        "energy-drift",
        drift <= ENERGY_DRIFT_TOL,
        f"max relative drift {drift:.3e} over [{t0:g}, {t1:g}]",
    )
    report.check(
        "boundary-form-independence",
        agree <= ENERGY_AGREE_TOL,
        f"max relative symmetric-vs-skew gap {agree:.3e}",
    )


def cmd_residual(spec: ProblemSpec, report: Report, args):
    if not spec.sections:
        raise ProblemError("the residual command needs a section declaration", 1, 1)
    names = [args.section] if args.section else sorted(spec.sections)
    theta = derive(spec.cfg, spec.lagrangian).theta_symmetric
    results = {}
    for name in names:
        section = spec.sections.get(name)
        if section is None:
            raise ProblemError(f"unknown section {name!r}", 1, 1)
        residuals = dedonder_residual(theta, section)
        nonzero = results[name] = {}  # rendered coordinate -> rendered form
        for coord, residual in residuals.items():
            if not residual.is_zero:
                label = render_expr(Expr.variable(coord))
                nonzero[label] = render_form(residual)
                report.say(f"residual[{name}] d/d{label}: {nonzero[label]}")
        report.check(
            f"dedonder-equations-{name}",
            not nonzero,
            "" if not nonzero else f"{len(nonzero)} nonvanishing contractions",
        )
    report.data["residuals"] = results


HANDLERS = {
    "euler-lagrange": cmd_euler_lagrange,
    "boundary-form": cmd_boundary_form,
    "dedonder-form": cmd_dedonder_form,
    "verify": cmd_verify,
    "noether": cmd_noether,
    "evolve": cmd_evolve,
    "residual": cmd_residual,
}


@cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetforms",
        description="Boundary forms, De Donder forms and conservation checks.",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("problem", help="problem description file")
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument("--out", help="directory for artifacts (CSV)")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid size")
    parser.add_argument("--t1", type=float, default=None, help="override end time")
    parser.add_argument("--seed", type=int, default=0, help="random data seed")
    parser.add_argument("--section", default=None, help="section name for residual")
    return parser


def main(argv=None) -> int:
    start = time.perf_counter()
    level_name = os.environ.get("JETFORMS_LOG")
    if level_name:
        import logging

        # getLevelName maps a registered level name to its int, anything else to a str
        level = logging.getLevelName(level_name.upper())
        logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        with open(args.problem, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.problem}: not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    report = Report(json_mode=args.json)
    log = debug_logger()
    try:
        counts, parse_start = {}, time.perf_counter()
        spec = parse_problem(text, counts)
        if log is not None:
            log.debug("parse took %.4f s: %d sum-body evaluations, %d leaf evaluations",
                      time.perf_counter() - parse_start, counts["sum_bodies"], counts["leaves"])
        try:
            HANDLERS[args.command](spec, report, args)
        except DigitLimitError as exc:  # raised where a derived value is rendered
            raise ProblemError(f"the {args.command} output has {exc}", *spec.lagrangian_at)
    except ProblemError as exc:
        if args.json:
            report = Report(json_mode=True)
            report.data = {"error": exc.message, "line": exc.line, "column": exc.column,
                           "expected": list(exc.expected)}
            report.emit()
        else:
            print(f"{args.problem}:{exc}", file=sys.stderr)
        return 2
    if log is not None:
        log.debug("%s took %.4f s", args.command, time.perf_counter() - start)
    report.emit()
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
