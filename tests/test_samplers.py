"""The seeded class samplers of conftest.py fail fast on counts they cannot meet."""

from __future__ import annotations

import pytest

from conftest import sampled_box_classes, sampled_effective_classes
from surfcoh import make_del_pezzo


def test_box_sampler_rejects_a_count_past_the_box():
    # [-6, 6]^2 holds 13^2 = 169 classes.
    assert len(set(sampled_box_classes(2, 169, "x"))) == 169
    with pytest.raises(ValueError):
        sampled_box_classes(2, 170, "x")


def test_effective_sampler_stops_after_its_draws():
    # On dP0 every combination is c·H with 0 <= c <= 12: 13 distinct classes.
    surface = make_del_pezzo(0)
    assert len(sampled_effective_classes(surface, 8, "x")) == 8
    with pytest.raises(ValueError):
        sampled_effective_classes(surface, 14, "x")
