"""Multi-index bookkeeping for jet-bundle coordinates.

Coordinates on the order-r jet space of sections of a trivial fibration over
an m-dimensional base are ``(x^i, y^a, z^a_I)`` where ``I`` is a multi-index
of base directions.  Mixed partial derivatives commute, so only one entry per
*non-decreasing* index tuple is stored; contractions that logically run over
all ``m^l`` orderings pick up combinatorial weights instead.

Conventions used throughout the package:

* base indices ``i`` run over ``1..m``, field indices ``a`` over ``1..n``;
* a multi-index is a plain non-decreasing ``tuple`` of base indices;
* a coordinate is a tagged tuple ``("x", i)``, ``("y", a)`` or
  ``("z", a, I)`` so that coordinates are hashable and cheaply comparable.

:func:`jet_coord` owns the convention y^a = z^a_(): ``jet_coord(a, I)``
sorts ``I`` into its canonical order and gives ``("y", a)`` for the empty
index, so no caller canonicalizes an index or special-cases level zero.
"""
from __future__ import annotations

import itertools
from typing import Sequence

Coordinate = tuple


class JetConfig:
    """Shape of the problem: m independent, n dependent variables, order k.

    Immutable, and equal and hashed by (m, n, k).
    """

    def __init__(self, m: int, n: int, k: int):
        if m < 1:
            raise ValueError(f"need at least one independent variable, got m={m}")
        if n < 1:
            raise ValueError(f"need at least one dependent variable, got n={n}")
        if k < 1:
            raise ValueError(f"Lagrangian order must be positive, got k={k}")
        self.__dict__.update(m=m, n=n, k=k)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable JetConfig")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable JetConfig")

    def __eq__(self, other):
        if other.__class__ is not JetConfig:
            return NotImplemented
        return (self.m, self.n, self.k) == (other.m, other.n, other.k)

    def __hash__(self):
        return hash((self.m, self.n, self.k))

    def __repr__(self):
        return f"JetConfig(m={self.m}, n={self.n}, k={self.k})"

    @property
    def working_order(self) -> int:
        """Highest jet order carried by forms and boundary coefficients (2k-1)."""
        return 2 * self.k - 1

    @property
    def expression_order(self) -> int:
        """Highest jet order reachable by scalar expressions (2k).

        Lagrange derivatives of an order-k Lagrangian involve jets of order
        2k, one beyond the order-(2k-1) space the forms live on.
        """
        return 2 * self.k


def base_coord(i: int) -> Coordinate:
    return ("x", i)


def field_coord(a: int) -> Coordinate:
    return ("y", a)


def jet_coord(a: int, indices) -> Coordinate:
    """The coordinate z^a_I for the index ``indices`` in any order; y^a for ()."""
    I = tuple(sorted(indices))
    return ("z", a, I) if I else field_coord(a)


def coordinate_order(coord: Coordinate) -> int:
    """Jet order of a coordinate: 0 for x^i and y^a, |I| for z^a_I."""
    return len(coord[2]) if coord[0] == "z" else 0


def coordinate_sort_key(coord: Coordinate):
    """Total order: x by i, then y by a, then z by (|I|, a, I)."""
    tag = coord[0]
    if tag == "x":
        return (0, coord[1])
    if tag == "y":
        return (1, coord[1])
    if tag == "z":
        return (2, len(coord[2]), coord[1], coord[2])
    # coefficient symbols ("c", name) sort after all jet coordinates
    return (3, coord[1])


def check_coordinate(cfg: JetConfig, coord: Coordinate):
    """Validate x^i, y^a or z^a_I against a configuration, naming it when an
    index is out of range.  Coefficient symbols ("c", name) always pass."""
    tag = coord[0]
    if tag == "x" and not 1 <= coord[1] <= cfg.m:
        raise ValueError(f"coordinate {coord}: base index out of range 1..{cfg.m}")
    if tag in ("y", "z") and not 1 <= coord[1] <= cfg.n:
        raise ValueError(f"coordinate {coord}: field index out of range 1..{cfg.n}")
    if tag == "z" and not all(1 <= i <= cfg.m for i in coord[2]):
        raise ValueError(f"coordinate {coord}: jet index out of range 1..{cfg.m}")
    if tag not in ("x", "y", "z", "c"):
        raise ValueError(f"unknown coordinate {coord}")


def splittings(indices: Sequence[int]):
    """Distinct ways of removing one entry: pairs (i1, canonical remainder).

    Splittings enumerate how a canonical multi-index arises as
    ``sorted((i1,) + tail)`` with a canonical tail; there is one per
    distinct value occurring in the index.
    """
    out = []
    seen = set()
    tup = tuple(indices)
    for pos, value in enumerate(tup):
        if value in seen:
            continue
        seen.add(value)
        out.append((value, tup[:pos] + tup[pos + 1 :]))
    return out


def multiindices(m: int, length: int):
    """All canonical multi-indices of the given length, lexicographic."""
    return list(itertools.combinations_with_replacement(range(1, m + 1), length))


def enumerate_coordinates(cfg: JetConfig, order: int) -> list:
    """Coordinates of the order-``order`` jet space, in the fixed global order.

    Order: all x^i, all y^a, then z^a_I grouped by |I| ascending and within
    each level by (a, I) lexicographic.
    """
    if not 0 <= order <= cfg.working_order:
        raise ValueError(
            f"order {order} outside supported range 0..{cfg.working_order}"
        )
    coords = [base_coord(i) for i in range(1, cfg.m + 1)]
    for level in range(order + 1):
        for a in range(1, cfg.n + 1):
            for I in multiindices(cfg.m, level):
                coords.append(jet_coord(a, I))
    return coords
