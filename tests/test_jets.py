import itertools
import math
import random

import pytest

from jetforms.expressions import y_var, z_var
from jetforms.jets import (
    JetConfig,
    check_coordinate,
    enumerate_coordinates,
    jet_coord,
    multiindices,
    splittings,
)


def test_config_validation():
    JetConfig(1, 1, 1)
    with pytest.raises(ValueError):
        JetConfig(0, 1, 1)
    with pytest.raises(ValueError):
        JetConfig(1, 0, 1)
    with pytest.raises(ValueError):
        JetConfig(1, 1, 0)
    assert JetConfig(2, 1, 3).working_order == 5
    assert JetConfig(2, 1, 3).expression_order == 6


def test_config_is_an_immutable_value():
    # equal and hashed by (m, n, k), printed in error messages as below
    cfg = JetConfig(2, 1, 2)
    assert cfg == JetConfig(m=2, n=1, k=2) and cfg != JetConfig(1, 2, 2)
    assert cfg != (2, 1, 2)
    assert len({cfg, JetConfig(*(2, 1, 2)), JetConfig(2, 1, 3)}) == 2
    assert repr(cfg) == str(cfg) == "JetConfig(m=2, n=1, k=2)"
    with pytest.raises(AttributeError):
        cfg.k = 3
    with pytest.raises(AttributeError):
        del cfg.m
    assert (cfg.m, cfg.n, cfg.k) == (2, 1, 2)


def canonicalize(indices, m: int) -> tuple:
    """Sort a tuple of base indices into the canonical non-decreasing order."""
    for i in indices:
        if not 1 <= i <= m:
            raise ValueError(f"base index {i} out of range 1..{m}")
    return tuple(sorted(indices))


def test_canonicalize_examples():
    assert canonicalize((2, 1), 2) == (1, 2)
    assert canonicalize((1, 1, 2), 2) == (1, 1, 2)
    assert canonicalize((3, 1, 3), 3) == (1, 3, 3)
    with pytest.raises(ValueError):
        canonicalize((0, 1), 2)
    with pytest.raises(ValueError):
        canonicalize((3,), 2)


def test_canonicalize_idempotent_and_order_insensitive():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 3)
        length = rng.randint(0, 5)
        indices = tuple(rng.randint(1, m) for _ in range(length))
        canonical = canonicalize(indices, m)
        assert canonicalize(canonical, m) == canonical
        shuffled = list(indices)
        rng.shuffle(shuffled)
        assert canonicalize(tuple(shuffled), m) == canonical


def test_splittings():
    assert splittings((1, 1, 2)) == [(1, (1, 2)), (2, (1, 1))]
    assert splittings((3,)) == [(3, ())]
    for I in multiindices(3, 4):
        assert len(splittings(I)) == len(set(I))
        rebuilt = {tuple(sorted((first,) + tail)) for first, tail in splittings(I)}
        assert rebuilt == {I}


def test_jet_coord_sorts_the_index_and_names_level_zero_y():
    # z^a_I for I in any order, and y^a = z^a_() is the field coordinate
    assert jet_coord(1, (2, 1)) == ("z", 1, (1, 2))
    assert jet_coord(1, [2, 2, 1]) == ("z", 1, (1, 2, 2))
    assert jet_coord(1, ()) == ("y", 1)
    assert z_var(1, ()) == y_var(1)
    assert z_var(2, (2, 1)) == z_var(2, (1, 2))


def test_enumerate_coordinates_examples():
    cfg = JetConfig(1, 1, 1)
    coords = enumerate_coordinates(cfg, 1)
    assert coords == [("x", 1), ("y", 1), ("z", 1, (1,))]
    cfg = JetConfig(2, 1, 1)
    assert len(enumerate_coordinates(cfg, 1)) == 5
    cfg = JetConfig(2, 2, 2)
    assert len(enumerate_coordinates(cfg, 3)) == 22


def coordinate_count(cfg: JetConfig, order: int) -> int:
    """Closed-form count: m + n * sum_{l=0..order} C(m+l-1, l)."""
    return cfg.m + cfg.n * sum(
        math.comb(cfg.m + level - 1, level) for level in range(order + 1)
    )


def test_enumerate_counts_match_brute_force():
    for m, n in itertools.product((1, 2, 3), repeat=2):
        cfg = JetConfig(m, n, 3)
        for order in range(6):
            coords = enumerate_coordinates(cfg, order)
            assert len(coords) == coordinate_count(cfg, order)
            # brute force: canonical multi-indices are the sorted tuples
            brute = m + n
            for level in range(1, order + 1):
                brute += n * len(
                    {tuple(sorted(t)) for t in itertools.product(range(m), repeat=level)}
                )
            assert len(coords) == brute
            assert len(set(coords)) == len(coords)


def test_enumerate_order_bound():
    cfg = JetConfig(2, 1, 2)
    with pytest.raises(ValueError):
        enumerate_coordinates(cfg, 4)


def test_check_coordinate_covers_every_tag():
    cfg = JetConfig(2, 1, 2)
    for coord in (("x", 2), ("y", 1), ("z", 1, (1, 2, 2)), ("c", "a")):
        check_coordinate(cfg, coord)
    for coord, message in (
        (("x", 3), "base index"),
        (("y", 2), "field index"),
        (("z", 2, (1,)), "field index"),
        (("z", 1, (1, 3)), "jet index"),
        (("w", 1), "unknown"),
    ):
        with pytest.raises(ValueError, match=message) as caught:
            check_coordinate(cfg, coord)
        assert str(coord) in str(caught.value)
