"""Boundary forms and De Donder forms for order-k Lagrangians.

Given a source-semi-basic (m+1)-form Phi on the order-k jet space, locally

    Phi = (Phi_a dy^a + Phi^i_a dz^a_i + ... + Phi^I_a dz^a_I) ^ d_m x ,

a boundary form is an m-form on the order-(2k-1) jet space of the shape

    Xi = sum_{l=1..k} p^{i1,T}_a  theta^a_T ^ (d/dx^{i1} -| d_m x),

with T a canonical multi-index of length l-1 and theta^a_T the contact
forms.  Xi is a boundary form *of Phi* when additionally every pullback
j sigma* (X -| (Phi + dXi)) vanishes for X tangent to target-map fibres.
On canonical storage that condition is the linear system

    level k:      sum over splittings (i1,T) of I of p^{i1,T}_a  = Phi^I_a
    level r < k:  sum over splittings of I of p^{i1,T}_a
                    = Phi^I_a - sum_j D_j p^{j,I}_a

for every canonical I, where a splitting of I is a pair (i1, T) with
sorted((i1,)+T) = I; a canonical I admits one splitting per distinct
value it contains.  The generalized De Donder construction distributes each
right-hand side equally over the splittings, which yields coefficients fully
symmetric in all upper indices; any two solutions differ by "skew" data with
vanishing splitting sums, and their level-one divergences agree identically
(that is the divergence-trace invariance behind the decomposition's
independence of the chosen boundary form).

Each divergence sum_j D_j p^{j,I}_a is computed once, by the table that
carries it (:meth:`BoundaryCoefficients.divergence`), as one sum of total
derivatives, and then kept.  The top-down solve fills those of |I| >= 1,
which the splitting checks read back.  The level-one divergence
sum_j D_j p^j_a (I = ()) enters no level of the system: it is computed on
its first read, by :meth:`Derivation.euler_lagrange` or the De Donder
residual, and the comparison of two boundary forms computes it for their
difference.

A coefficient table is a sum of parts, and a plain table is its own single
part.  The system is linear in (Phi, top-level data), so a skew solution is
the symmetric table, kept once solved, plus the solve of its top-level data
alone with Phi = 0: the skew table keeps those two as its parts and adds
their coefficients into one table only when that is read.  Its checks read
the parts, so the skew boundary form computes only the values of the small
top-level solve; its divergences and the splitting sums S^a_I are, as for
every table, computed once from its own coefficients, and Xi's d_m x
coefficient below once per form.  Assembly's splitting check marks the
table it verified against a Phi, the one record of that fact: a later
check of that table against that very Phi reads the mark, and a sum table
with one part so marked checks only the other part, against Phi = 0, whose
residuals are the whole table's.  Two tables compared cancel the parts they
share before any Expr is subtracted, so the symmetric table against the
skew one reads the homogeneous solve, negated.

Since dx^i ^ (d/dx^{i1} -| d_m x) = delta^i_{i1} d_m x, Xi has one dz^a_T
term per coefficient and one d_m x coefficient, -sum z^a_I S^a_I, with
S^a_I the splitting sum of the system at (a, I), so Xi pulls back to zero
along every section by construction.  Every boundary form carries the Phi
it is a boundary form of: assembly takes that Phi, forms the splitting
sums, which give the residuals of its system, and checks them, and Xi is
written that way from the table on the first read of its form.

The De Donder form is Theta = L d_m x + Xi, also written on the first read
of its form; a section is critical for the action iff the pullbacks of
X -| dTheta vanish for all X tangent to source-map fibres.

Condition 3, the De Donder residual, the comparison of two boundary forms,
Noether currents and the energy tables read the coefficient table, not the
coordinate forms, so a form is written only where it is printed or where
:data:`STRUCTURAL_CHECKS` and the pullback of Xi are evaluated.

Condition 3, the De Donder residual and the comparison of two boundary
forms read one coefficient identity and never form dXi.  Let Xi be
assembled from any coefficients p and let X be a source-vertical basis
field.  The holonomic reduction of X -| (Phi + dXi) is

    X = d/dy^a:             (Phi_a - sum_i D_i p^i_a) d_m x
    X = d/dz^a_I, |I| <= k:  -r^a_I d_m x
    X = d/dz^a_I, |I| > k:   0

with r^a_I the residual of the system above at (a, I).  So condition 3
holds iff the system does; the d/dy^a entries of X -| dTheta are the
Lagrange derivatives dL/dy^a d_m x; and two boundary forms of one Phi pull
back alike iff their difference solves the homogeneous system with zero
level-one divergence.

Each result has one route and each check runs once, where it is reported:
:func:`lagrange_derivative` is the Euler operator alone, on the partials of
:meth:`PhiDecomposition.of_lagrangian`; assembly checks the splitting
system; and ``verify`` evaluates :data:`STRUCTURAL_CHECKS` and reduces Xi's
pullback.  The second routes (the contact-form sum, d(L d_m x), the
form-level contractions, Phi_a - sum_i D_i p^i_a against the Euler
operator) are references in the tests.
"""
from __future__ import annotations

import sys
from functools import cached_property
from time import perf_counter
from typing import Mapping
from weakref import ref

from .expressions import (
    Expr,
    PolynomialSection,
    render_expr,
    substitute_section,
    sum_by_key,
    sum_of_products,
    sum_of_total_derivatives,
    z_var,
)
from .forms import DifferentialForm, is_semibasic, volume_form
from .jets import (
    JetConfig,
    base_coord,
    check_coordinate,
    enumerate_coordinates,
    field_coord,
    jet_coord,
    multiindices,
    splittings,
)


def check_lagrangian(cfg: JetConfig, L: Expr) -> None:
    """Reject, naming it, a coordinate of L outside ``cfg`` or of jet order
    above k; coefficient symbols pass."""
    for coord in L.variables():
        check_coordinate(cfg, coord)
        if coord[0] == "z" and len(coord[2]) > cfg.k:
            raise ValueError(
                f"Lagrangian coordinate {coord} has jet order {len(coord[2])}, "
                f"exceeding k={cfg.k}"
            )


class PhiDecomposition:
    """Components of a source-semi-basic (m+1)-form in the contact-adapted basis.

    ``components`` maps a y or z coordinate c (z^a_I with 1 <= |I| <= k) to
    the dc ^ d_m x coefficient; absent coordinates have coefficient zero.
    The components are not mutated after construction: the symmetric
    solution of their boundary system is kept the first time it is solved.
    A decomposition made by :meth:`of_lagrangian` also keeps the Lagrangian
    it is the gradient of, so that :func:`dedonder_form` can tell it from
    one built by hand without a second gradient.
    """

    def __init__(self, cfg: JetConfig, components: dict):
        self.cfg = cfg
        self.components = components
        self._symmetric: BoundaryCoefficients | None = None
        self._lagrangian: Expr | None = None

    @classmethod
    def of_lagrangian(cls, cfg: JetConfig, L: Expr) -> PhiDecomposition:
        """Phi_a = dL/dy^a and Phi^I_a = dL/dz^a_I, for L within ``cfg``."""
        check_lagrangian(cfg, L)
        dec = cls(cfg, {c: g for c, g in L.gradient().items() if c[0] in ("y", "z")})
        dec._lagrangian = L
        return dec

    def component(self, a: int, indices: tuple = ()) -> Expr:
        return self.components.get(jet_coord(a, indices), Expr.zero())

    def form(self) -> DifferentialForm:
        """Reassemble Phi = sum_c Phi_c dc ^ d_m x from its components, one
        term each: dc sorts after the m factors dx^i, so the term is
        (x^1, ..., x^m, c) -> (-1)^m Phi_c."""
        m = self.cfg.m
        base = tuple(base_coord(i) for i in range(1, m + 1))
        return DifferentialForm(m + 1, {
            base + (c,): -value if m % 2 else value
            for c, value in self.components.items() if not value.is_zero
        })


def phi_from_lagrangian(cfg: JetConfig, L: Expr):
    """d(L d_m x), assembled from its decomposition Phi_a = dL/dy^a and
    Phi^I_a = dL/dz^a_I, together with that decomposition."""
    decomposition = PhiDecomposition.of_lagrangian(cfg, L)
    return decomposition.form(), decomposition


class BoundaryCoefficients:
    """Coefficients p^{i1,T}_a: first index free, tail canonical, level |T|+1 <= k.

    The table is not mutated after construction: :meth:`divergence` and
    :meth:`splitting_sums` memoize what they read from it, and
    :meth:`volume_coefficient` is computed for the one form that keeps it.
    A coefficient is read as ``table.get((a, i1, tail))``; an absent key
    is a zero coefficient.  Every table is a sum of parts (:meth:`parts`):
    a plain table is its own single part, and the sum of solved tables
    that :func:`perturbed_coefficients` makes keeps them as its parts and
    forms its own :attr:`table` only when that is read, by its memos among
    others.  Only assembly's splitting check marks a table as solving the
    system of a Phi (``_solves``): a later check against that Phi reads the
    mark, and a sum with that table as a part checks only its other part.
    """

    def __init__(self, cfg: JetConfig, table: dict | None):
        self.cfg = cfg
        if table is not None:
            self.table = table
        self._divergences: dict = {}
        self._sums: dict | None = None
        self._parts: tuple = ()
        # the Phi assembly verified the table against, held weakly: a Phi
        # keeps its symmetric table
        self._solves: ref | None = None

    @cached_property
    def table(self) -> dict:
        """(a, i1, tail) -> Expr; a sum table adds its parts' tables on the
        first read."""
        return sum_by_key(item for part in self._parts for item in part.table.items())

    def parts(self) -> tuple:
        """The tables this one is the sum of; ``(self,)`` for a plain table."""
        return self._parts or (self,)

    def divergence(self, a: int, I: tuple) -> Expr:
        """sum_j D_j p^{j,I}_a, computed once per (a, I).

        Its jet order is at most 2k-1 for |I| >= 1, where it enters the
        splitting system, and 2k for I = (), where Phi_a minus it is the
        Lagrange derivative.
        """
        value = self._divergences.get((a, I))
        if value is None:
            cfg, table = self.cfg, self.table
            limit = cfg.working_order if I else cfg.expression_order
            value = self._divergences[(a, I)] = sum_of_total_derivatives([
                (table[(a, j, I)], (j,), 1) for j in range(1, cfg.m + 1) if (a, j, I) in table
            ], cfg, limit)
        return value

    def splitting_sums(self) -> dict:
        """z^a_I -> S^a_I, the sum of p^{i1,T}_a over the splittings (i1, T)
        of I, wherever it is nonzero; computed once.  Every key of the table
        must be one splitting of one I: a key out of range raises a
        ``ValueError`` naming it.  A value that every splitting of I holds is
        scaled by their count instead of added to its copies."""
        if self._sums is None:
            groups: dict = {}  # z^a_I -> the values on its splittings
            for key, p in self.table.items():
                _check_key(self.cfg, key)
                a, i1, tail = key
                groups.setdefault(jet_coord(a, (*tail, i1)), []).append(p)
            totals = (
                (c, ps[0] * len(ps) if all(p is ps[0] for p in ps) else Expr.sum(ps))
                for c, ps in groups.items()
            )
            self._sums = {c: total for c, total in totals if not total.is_zero}
        return self._sums

    def volume_coefficient(self) -> Expr:
        """-sum_{a,I} z^a_I S^a_I, the d_m x coefficient of the boundary form
        assembled from this table, as one :func:`sum_of_products` in which
        each z^a_I goes into the monomials of its S^a_I by insertion, with
        the sign -1.  It is not kept: its one reader,
        :attr:`BoundaryForm.form`, keeps the form it writes."""
        return sum_of_products(
            (Expr.variable(c), total, -1) for c, total in self.splitting_sums().items()
        )


def _sum_of_tables(cfg: JetConfig, parts: tuple) -> BoundaryCoefficients:
    """The table whose coefficients are those of ``parts`` added, keeping
    them as its parts; the added values are formed when its table is read."""
    coeffs = BoundaryCoefficients(cfg, None)
    coeffs._parts = parts
    return coeffs


def _check_key(cfg: JetConfig, key: tuple) -> None:
    """Reject, naming it, a coefficient key (a, i1, tail) with an index out
    of range, a tail that is not canonical or a level |tail|+1 above k.

    A key that passes writes one term of Xi with one dz^a_T factor, |T| <= k-1,
    so Xi assembled from such keys meets :data:`STRUCTURAL_CHECKS`.
    """
    a, i1, tail = key
    if not (1 <= a <= cfg.n and 1 <= i1 <= cfg.m and all(1 <= i <= cfg.m for i in tail)):
        raise ValueError(
            f"coefficient key {key} is out of range: the field index runs over "
            f"1..{cfg.n}, i1 and the tail over 1..{cfg.m}"
        )
    if tuple(sorted(tail)) != tuple(tail):
        raise ValueError(f"coefficient key {key} has a tail that is not canonical")
    if len(tail) >= cfg.k:
        raise ValueError(f"coefficient key {key} has level {len(tail) + 1}, above k={cfg.k}")


def _solve_top_down(dec: PhiDecomposition, top_delta: Mapping) -> BoundaryCoefficients:
    """Solve the boundary-coefficient system level by level from k down to 1.

    At each level the right-hand side for canonical I, Phi^I_a minus the
    divergence of the level above with tail I below the top level, is
    distributed equally over the splittings of I; ``top_delta`` is then
    added to the top level, and every lower level is solved against the
    level above it, whose divergences the result keeps.  A level-(k-l+1)
    coefficient ends up with jet order at most 2k - (k-l+1) = k+l-1.
    """
    cfg = dec.cfg
    coeffs = BoundaryCoefficients(cfg, {})
    for level in range(cfg.k, 0, -1):
        current: dict = {}
        for a in range(1, cfg.n + 1):
            for I in multiindices(cfg.m, level):
                parts = splittings(I)
                rhs = dec.component(a, I)
                if level < cfg.k:
                    rhs = rhs - coeffs.divergence(a, I)
                share = rhs / len(parts)
                if not share.is_zero:
                    for i1, tail in parts:
                        current[(a, i1, tail)] = share
        if level == cfg.k:
            for key, delta in top_delta.items():
                current[key] = current.get(key, Expr.zero()) + delta
            current = {key: value for key, value in current.items() if not value.is_zero}
        expected = cfg.expression_order - level
        checked = None
        for value in current.values():
            # the splittings of one (a, I) follow each other and hold one share
            if value is not checked:
                if value.jet_order() > expected:
                    raise AssertionError(
                        f"coefficient order {value.jet_order()} exceeds bound {expected}"
                    )
                checked = value
        # the next level reads only this one, so the table is complete
        # wherever the solve reads it
        coeffs.table.update(current)
    return coeffs


def symmetric_boundary_coefficients(dec: PhiDecomposition) -> BoundaryCoefficients:
    """The fully symmetric solution of the boundary-coefficient system,
    solved once per decomposition.

    Equal shares over the splittings make each value depend only on the
    combined multiset of upper indices.
    """
    if dec._symmetric is None:
        dec._symmetric = _solve_top_down(dec, {})
    return dec._symmetric


def _check_splitting_system(dec: PhiDecomposition, coeffs: BoundaryCoefficients) -> list:
    """Residuals (a, I, r^a_I = S^a_I + sum_j D_j p^{j,I}_a - Phi^I_a) of
    the boundary-coefficient system, the divergence only below the top
    level, in coordinate order (|I|, a, I); empty iff the system holds.
    Each (a, I) compares S + D with Phi, and only a failing one forms its
    residual."""
    cfg = dec.cfg
    sums = coeffs.splitting_sums()
    zero = Expr.zero()
    failures = []
    for level in range(1, cfg.k + 1):
        for a in range(1, cfg.n + 1):
            for I in multiindices(cfg.m, level):
                lhs = sums.get(jet_coord(a, I), zero)
                if level < cfg.k:
                    lhs = lhs + coeffs.divergence(a, I)
                phi = dec.component(a, I)
                if lhs != phi:
                    failures.append((a, I, lhs - phi))
    return failures


def _unverified_residuals(dec: PhiDecomposition, coeffs: BoundaryCoefficients) -> list:
    """The residuals of the splitting system of ``dec`` on ``coeffs``, as
    :func:`_check_splitting_system` gives them, checking only what no
    earlier check verified.

    A table that assembly verified against this very ``dec`` has none.  The
    system is linear, so when exactly one of two parts of the table was so
    verified the table solves it iff the other part solves the system with
    Phi = 0, and the residuals of the two are equal.  Any other table is
    checked in full.
    """
    def verified(table: BoundaryCoefficients) -> bool:
        return table._solves is not None and table._solves() is dec

    if verified(coeffs):
        return []
    parts = coeffs.parts()
    rest = [part for part in parts if not verified(part)]
    if len(rest) == 1 == len(parts) - 1:
        return _check_splitting_system(PhiDecomposition(dec.cfg, {}), rest[0])
    return _check_splitting_system(dec, coeffs)


def perturbed_coefficients(
    dec: PhiDecomposition, top_delta: Mapping
) -> BoundaryCoefficients:
    """Alternative solution: perturb the top level, re-solve the lower levels.

    ``top_delta`` maps (a, i1, tail) with |tail| = k-1 to Exprs whose
    splitting sums vanish for every canonical index (the homogeneous top
    equation); violations and keys out of range are rejected, the offending
    index or key named.

    The system is linear in (Phi, top_delta), so the solution is the
    symmetric one of ``dec`` (solved once per decomposition) plus the
    top-down solve of ``top_delta`` with Phi = 0, kept as the two parts of
    the result.  Keys that solve leaves untouched share their Expr with the
    symmetric table.  Assembly and :func:`compare_boundary_forms` read the
    parts, so neither D_i nor a splitting sum runs again on a symmetric
    coefficient there; the summed coefficients are formed only when the
    table is read, and a divergence, splitting sum or d_m x coefficient of
    the result is computed from them.
    """
    cfg = dec.cfg
    for key, value in top_delta.items():
        _check_key(cfg, key)
        if len(key[2]) != cfg.k - 1:
            raise ValueError(f"perturbation {key} is not top-level")
        # k-1 total derivatives are applied on the way down to level one,
        # which must stay within the working order 2k-1
        if value.jet_order() > cfg.k:
            raise ValueError(
                f"perturbation at {key} has jet order "
                f"{value.jet_order()}; at most {cfg.k} is allowed"
            )
    for a in range(1, cfg.n + 1):
        for I in multiindices(cfg.m, cfg.k):
            total = Expr.sum(
                top_delta.get((a, i1, tail), Expr.zero()) for i1, tail in splittings(I)
            )
            if not total.is_zero:
                raise ValueError(
                    f"perturbation violates the top-level relation at a={a}, "
                    f"I={I}: splitting sum is {render_expr(total)}, not 0"
                )
    return _sum_of_tables(cfg, (
        symmetric_boundary_coefficients(dec),
        _solve_top_down(PhiDecomposition(cfg, {}), top_delta),
    ))


def default_skew_perturbation(cfg: JetConfig) -> dict:
    """Q^{12}_a = -Q^{21}_a = z^a_2 for every field, when k = 2 and m >= 2,
    as the top-level data of :func:`perturbed_coefficients`: keys
    (a, 1, (2,)) and (a, 2, (1,)).

    It is the simplest jet-dependent member of the skew family.
    """
    if cfg.k != 2 or cfg.m < 2:
        raise ValueError("the default skew perturbation needs k = 2 and m >= 2")
    delta = {}
    for a in range(1, cfg.n + 1):
        delta[(a, 1, (2,))] = z_var(a, (2,))
        delta[(a, 2, (1,))] = -z_var(a, (2,))
    return delta


def double_vertical_contraction_vanishes(form: DifferentialForm, cfg: JetConfig) -> bool:
    """X2 -| (X1 -| form) = 0 for all source-vertical basis fields X1, X2.

    X1 and X2 run over d/dy^a and d/dz^a_I with |I| <= 2k-1; on the
    coordinate basis the statement is that no wedge term carries two dy/dz
    factors of those orders.
    """
    for wedge_key, _ in form.terms():
        vertical = [
            b for b in wedge_key
            if b[0] == "y" or (b[0] == "z" and len(b[2]) <= cfg.working_order)
        ]
        if len(vertical) > 1:
            return False
    return True


# (name, predicate(form, cfg)) per structural condition of Xi; assembly
# meets both by construction and ``verify`` evaluates and reports them
STRUCTURAL_CHECKS = (
    ("boundary-form-semibasic-over-forgetful",
     lambda form, cfg: is_semibasic(form, ("forgetful", cfg.k - 1))),
    ("boundary-form-double-vertical-contraction", double_vertical_contraction_vanishes),
)


class BoundaryForm:
    """A boundary form of a Phi: its coefficients and that Phi.

    Built by hand, it is not checked.  Whether the coefficients solve the
    system of a Phi is a fact of the table, marked by
    :func:`assemble_boundary_form`: :func:`verify_condition3` reads that
    mark for a table that assembly verified against this very Phi, and
    checks any other.  :attr:`form` is written from the coefficients on
    its first read and may be assigned.
    """

    def __init__(self, coefficients: BoundaryCoefficients, phi: PhiDecomposition):
        self.cfg = coefficients.cfg
        self.coefficients = coefficients
        self.phi = phi

    @cached_property
    def form(self) -> DifferentialForm:
        """Xi written straight from the coefficient table, then kept.

        With d_m x^- the wedge of every dx^i except dx^{i1}, each coefficient
        is one term (-1)^(i1+m) p^{i1,T}_a d_m x^- ^ dz^a_T, and dx^i ^
        (d/dx^{i1} -| d_m x) = delta^i_{i1} d_m x collects the contact parts
        into one d_m x coefficient, -sum_{a,I} z^a_I S^a_I
        (:meth:`BoundaryCoefficients.volume_coefficient`).
        """
        cfg, coeffs = self.cfg, self.coefficients
        dx = [base_coord(i) for i in range(1, cfg.m + 1)]
        terms = {}
        for (a, i1, tail), value in coeffs.table.items():
            if not value.is_zero:
                wedge = (*dx[: i1 - 1], *dx[i1:], jet_coord(a, tail))
                terms[wedge] = value if (i1 + cfg.m) % 2 == 0 else -value
        volume = coeffs.volume_coefficient()
        if not volume.is_zero:
            terms[tuple(dx)] = volume
        return DifferentialForm(cfg.m, terms)


def assemble_boundary_form(coeffs: BoundaryCoefficients, phi: PhiDecomposition) -> BoundaryForm:
    """Assemble Xi = sum p^{i1,T}_a theta^a_T ^ (d/dx^{i1} -| d_m x), the
    boundary form of ``phi`` with the coefficients ``coeffs``.

    Assembly runs the checks and leaves the writing of Xi to the first read
    of :attr:`BoundaryForm.form`.  Each part's splitting sums are formed
    here, and a key out of range raises a ``ValueError`` that names it.

    Every key within range writes one dz^a_T factor with |T| <= k-1, so Xi
    meets :data:`STRUCTURAL_CHECKS` and pulls back to zero by construction;
    the ``verify`` command evaluates both and reduces the pullback.  The
    defining coefficient system of ``phi`` is checked exactly on the
    splitting sums, only where :func:`_unverified_residuals` finds no
    earlier check, its first failure raised as an ``AssertionError``, and
    the table is marked as solving the system of that Phi, which
    :func:`verify_condition3` then reads without a recompute.
    """
    for part in coeffs.parts():  # every key is a part's key
        part.splitting_sums()  # rejects a key out of range
    failures = _unverified_residuals(phi, coeffs)
    if failures:
        a, I, residual = failures[0]
        raise AssertionError(
            f"coefficients do not solve the boundary system at a={a}, I={I}: "
            f"{render_expr(residual)}"
        )
    coeffs._solves = ref(phi)
    return BoundaryForm(coeffs, phi)


class DeDonderForm:
    """Theta = L d_m x + Xi on the order-(2k-1) jet space; its :attr:`form`
    is written on the first read.  Its Xi solves the splitting system of the
    Phi it carries: :func:`dedonder_form` checks that, and :func:`derive`
    and :meth:`Derivation.theta_skew` build Theta on assembled forms only."""

    def __init__(self, cfg: JetConfig, lagrangian: Expr, boundary: BoundaryForm):
        self.cfg = cfg
        self.lagrangian = lagrangian
        self.boundary = boundary

    @cached_property
    def form(self) -> DifferentialForm:
        """L d_m x + Xi, then kept."""
        volume = volume_form(self.cfg)
        return DifferentialForm.from_scalar(self.lagrangian).wedge(volume) + self.boundary.form

    def check_section(self, section: PolynomialSection) -> None:
        """Reject, naming its (m, n), a section of another configuration."""
        if (section.cfg.m, section.cfg.n) != (self.cfg.m, self.cfg.n):
            raise ValueError(f"a section with (m, n) = ({section.cfg.m}, {section.cfg.n}) "
                             f"against a De Donder form with ({self.cfg.m}, {self.cfg.n})")


def dedonder_form(cfg: JetConfig, L: Expr, xi: BoundaryForm) -> DeDonderForm:
    """Theta = pi* (L d_m x) + Xi, verified to pull back like the Lagrangian.

    ``xi.phi`` must hold the y and z partials of L, so that dTheta = Phi + dXi.
    A ``xi.phi`` that :meth:`PhiDecomposition.of_lagrangian` made from this
    very L, with a ``cfg`` equal to this one, holds them by construction and
    is taken without a second gradient of L; any other is compared with the
    partials of L, which are checked against ``cfg`` first.  A Xi of another
    configuration than ``cfg`` raises a ``ValueError`` naming both.  Then
    ``xi.coefficients`` must solve the splitting system of ``xi.phi``, else
    a ``ValueError`` names the first failing (a, I): a form built by hand
    around a table that solves no system is refused.  The check reads
    assembly's mark (:func:`_unverified_residuals`), so an assembled Xi, or
    one built by hand around an assembled table and its Phi, costs nothing.
    """
    if xi.cfg != cfg:
        raise ValueError(f"a boundary form of {xi.cfg} cannot make a De Donder form of {cfg}")
    phi = xi.phi
    if phi._lagrangian is not L or phi.cfg != cfg:
        partials = PhiDecomposition.of_lagrangian(cfg, L).components
        if phi.components != partials:
            raise ValueError("a De Donder form needs a boundary form built against d(L d_m x)")
    failures = _unverified_residuals(phi, xi.coefficients)
    if failures:
        a, I, _ = failures[0]
        raise ValueError(f"a De Donder form needs a boundary form whose coefficients "
                         f"solve the system of its Phi; they fail at a={a}, I={I}")
    # L d_m x has only dx factors and Xi is a sum of contact terms by
    # construction, so Theta is semi-basic over J^{k-1} and j*Theta = j*Lambda
    return DeDonderForm(cfg, L, xi)


class Derivation:
    """The objects one Lagrangian derives, each built and checked once."""

    def __init__(
        self,
        cfg: JetConfig,
        lagrangian: Expr,
        decomposition: PhiDecomposition,
        boundary_symmetric: BoundaryForm,
        theta_symmetric: DeDonderForm,
    ):
        self.cfg = cfg
        self.lagrangian = lagrangian
        self.decomposition = decomposition
        self.boundary_symmetric = boundary_symmetric
        self.theta_symmetric = theta_symmetric

    def euler_lagrange(self) -> list:
        """dL/dy^a as Phi_a - sum_i D_i p^i_a, with the level-one divergences
        of the symmetric coefficients: the top-down solve does not fill them,
        so the first read, here or by :func:`dedonder_residual`, computes
        them and the table keeps them.  The tests hold it equal to
        :func:`lagrange_derivative`."""
        return _body_densities(self.decomposition, self.boundary_symmetric.coefficients)

    def skew_boundary(self, delta: Mapping | None = None) -> BoundaryForm:
        """The boundary form of the same Phi whose top level is shifted by
        ``delta`` (see :func:`perturbed_coefficients`); without ``delta``,
        by :func:`default_skew_perturbation`."""
        if delta is None:
            delta = default_skew_perturbation(self.cfg)
        coeffs = perturbed_coefficients(self.decomposition, delta)
        return assemble_boundary_form(coeffs, self.decomposition)

    def theta_skew(self, delta: Mapping | None = None) -> DeDonderForm:
        """Theta = L d_m x + skew_boundary(delta)."""
        return DeDonderForm(self.cfg, self.lagrangian, self.skew_boundary(delta))


def derive(cfg: JetConfig, L: Expr) -> Derivation:
    """Phi, the symmetric coefficients, Xi and Theta of L, in that order.

    Phi is kept as its components, with no form built, and the forms of Xi
    and Theta are written when first read.  Each stage's checks run once
    (those of L, the solve and assembly); sizes and seconds per stage are
    logged at debug level.  The term counts logged read the two forms, so
    they are written there, after the stages timed; the stage seconds of Xi
    and Theta hold assembly's checks and no writing of a form.
    """
    t0 = perf_counter()
    dec = PhiDecomposition.of_lagrangian(cfg, L)
    t1 = perf_counter()
    coeffs = symmetric_boundary_coefficients(dec)
    t2 = perf_counter()
    xi = assemble_boundary_form(coeffs, dec)
    t3 = perf_counter()
    theta = DeDonderForm(cfg, L, xi)  # Xi is of L's own Phi
    t4 = perf_counter()
    log = debug_logger()
    if log is not None:
        log.debug(
            "symmetric objects: %d coefficients, Xi %d wedge terms, Theta %d wedge terms",
            len(coeffs.table), len(xi.form.terms()), len(theta.form.terms()),
        )
        log.debug(
            "stage seconds: Phi %.4f, coefficients %.4f, Xi %.4f, Theta %.4f",
            t1 - t0, t2 - t1, t3 - t2, t4 - t3,
        )
    return Derivation(cfg, L, dec, xi, theta)


def debug_logger():
    """The ``"jetforms"`` logger when it would emit a debug record, else None.

    This imports no ``logging``: until some caller has imported it, no
    handler or level exists, so no record could be emitted.  ``cli.main``
    imports it when ``JETFORMS_LOG`` is set.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("jetforms")
    return log if log.isEnabledFor(logging.DEBUG) else None


class Condition3Report:
    """Outcome of the target-vertical pullback check, per probing field."""

    def __init__(self, ok: bool, failures: list):
        self.ok = ok
        self.failures = failures  # (a, I, residual Expr)


def verify_condition3(phi: PhiDecomposition, xi: BoundaryForm) -> Condition3Report:
    """Check j sigma*(X -| (Phi + dXi)) = 0 for all target-vertical basis X.

    X runs over d/dz^a_I with 1 <= |I| <= 2k-1.  By the module's identity the
    holonomic reduction is -r^a_I d_m x, r^a_I the residual of the splitting
    system of ``phi`` on ``xi.coefficients``, and zero for |I| > k.  The jets
    of sections take every value, so the check fails exactly where the
    system does: each failure is (a, I, -r^a_I), in coordinate order
    (|I|, a, I).  A table that assembly checked against this very ``phi``
    passes without a recompute, and of a sum table with one part so checked
    only the other part is checked (:func:`_unverified_residuals`).
    """
    failures = [
        (a, I, -residual) for a, I, residual in _unverified_residuals(phi, xi.coefficients)
    ]
    return Condition3Report(not failures, failures)


def _body_densities(dec: PhiDecomposition, coeffs: BoundaryCoefficients) -> list:
    """Phi_a - sum_i D_i p^i_a per field a, from the divergence table: the
    Lagrange derivatives when ``coeffs`` solve the system of ``dec``."""
    return [dec.component(a) - coeffs.divergence(a, ()) for a in range(1, dec.cfg.n + 1)]


def lagrange_derivative(cfg: JetConfig, L: Expr) -> list:
    """Lagrange derivatives dL/dy^a as expressions of jet order <= 2k.

    The Euler operator alone, one term per nonzero partial of L.  On
    canonical storage the alternating-sign total-derivative sum collapses to
    one term per canonical multi-index:

        dL/dy^a = sum_{l=0..k} (-1)^l sum_{canonical |I|=l} D_I [dL/dz^a_I].

    Each field is one :func:`sum_of_total_derivatives` over its partials, the
    whole I of each at once (I = () for dL/dy^a), so no D_{I[:-1]} of a
    partial is formed as an Expr.  L's check and its partials are those of
    :meth:`PhiDecomposition.of_lagrangian`.
    No boundary coefficients are solved; :meth:`Derivation.euler_lagrange`
    gives the same list as Phi_a - sum_i D_i p^i_a from a derivation.
    """
    terms: dict = {a: [] for a in range(1, cfg.n + 1)}  # a -> (dL/dz^a_I, I, (-1)^|I|)
    for c, partial in PhiDecomposition.of_lagrangian(cfg, L).components.items():
        I = c[2] if c[0] == "z" else ()
        terms[c[1]].append((partial, I, -1 if len(I) % 2 else 1))
    return [sum_of_total_derivatives(terms[a], cfg, cfg.expression_order) for a in terms]


def dedonder_residual(theta: DeDonderForm, section: PolynomialSection) -> dict:
    """Pullbacks j sigma*(X -| dTheta) for every source-vertical basis X.

    Returns a mapping coordinate -> m-form on the base, one entry per
    source-vertical coordinate of order <= 2k-1 in coordinate order.  All
    values vanish exactly when the section satisfies the De Donder
    equations, equivalently the Euler-Lagrange equations.  dTheta = Phi +
    dXi and Xi solves the splitting system of its Phi, as every Theta's Xi
    does (:class:`DeDonderForm`), so by the module's identity the
    d/dy^a entry is the pullback of (Phi_a - sum_i D_i p^i_a) d_m x, the
    Lagrange derivative, and every d/dz entry is the zero m-form.  A
    section of another (m, n) raises a ``ValueError``.
    """
    cfg = theta.cfg
    theta.check_section(section)
    densities = _body_densities(theta.boundary.phi, theta.boundary.coefficients)
    volume = volume_form(cfg)
    residuals = {}
    for coord in enumerate_coordinates(cfg, cfg.working_order):
        if coord[0] == "y":
            residuals[coord] = volume * substitute_section(densities[coord[1] - 1], section)
        elif coord[0] == "z":
            residuals[coord] = DifferentialForm.zero(cfg.m)
    return residuals


class ComparisonReport:
    """Lemma-2 style comparison of two boundary forms of the same Phi."""

    def __init__(
        self,
        ok: bool,
        differences: dict,
        relation_failures: list,
        divergence_residuals: dict,
        pullback_failures: list,
    ):
        self.ok = ok
        self.differences = differences  # (a, i1, tail) -> Expr
        # (a, I, residual) from the homogeneous system
        self.relation_failures = relation_failures
        self.divergence_residuals = divergence_residuals  # a -> Expr, must all be zero
        # (coordinate, nonzero reduced X -| d(Xi - Xi'))
        self.pullback_failures = pullback_failures


def compare_boundary_forms(xi: BoundaryForm, xi_prime: BoundaryForm) -> ComparisonReport:
    """Verify invariance of the decomposition under change of boundary form.

    Both forms must be boundary forms of one Phi, compared by its
    components; forms of different Phi raise a ``ValueError``.  Checks, all
    exactly: the difference Q = p - p' satisfies the homogeneous
    coefficient relations; the level-one divergence trace sum_i D_i Q^i_a
    vanishes identically; and the pullbacks of X -| d(Xi - Xi') vanish for
    every source-vertical basis X.  Xi - Xi' is assembled from Q, so by the
    module's identity with Phi = 0 the last check reads the first two: the
    reduction is -sum_i D_i Q^i_a d_m x for X = d/dy^a and -r^a_I d_m x for
    X = d/dz^a_I.

    The parts the two tables share cancel first.  When one part is left, Q
    is that part, or its negation when it is p''s, and the checks read the
    values it keeps; otherwise Q is the difference of the two whole tables.
    """
    if xi.phi.components != xi_prime.phi.components:
        raise ValueError("the two boundary forms belong to different Phi")
    cfg = xi.cfg
    left, right = list(xi.coefficients.parts()), []
    for part in xi_prime.coefficients.parts():
        if part in left:  # a table equals only itself
            left.remove(part)
        else:
            right.append(part)
    # Q is the one part left over, negated when it is p''s, or else the
    # difference of the two whole tables
    negated = not left and len(right) == 1
    if len(left) + len(right) > 1:
        q = BoundaryCoefficients(cfg, sum_by_key([
            *xi.coefficients.table.items(),
            *((key, -p) for key, p in xi_prime.coefficients.table.items()),
        ]))
    else:
        q = (left or right or [BoundaryCoefficients(cfg, {})])[0]

    def signed(e: Expr) -> Expr:
        return -e if negated else e

    differences = {key: signed(p) for key, p in q.table.items()}
    relation_failures = [
        (a, I, signed(residual))
        for a, I, residual in _check_splitting_system(PhiDecomposition(cfg, {}), q)
    ]
    divergence_residuals = {a: signed(q.divergence(a, ())) for a in range(1, cfg.n + 1)}
    volume = volume_form(cfg)
    # the pullback failures are exactly the failures of the first two checks,
    # in coordinate order: the y^a before the z^a_I, which come in that order
    pullback_failures = [
        (field_coord(a), volume * -residual)
        for a, residual in divergence_residuals.items() if not residual.is_zero
    ] + [(jet_coord(a, I), volume * -residual) for a, I, residual in relation_failures]
    return ComparisonReport(
        not pullback_failures, differences, relation_failures, divergence_residuals,
        pullback_failures,
    )
