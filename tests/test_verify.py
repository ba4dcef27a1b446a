"""The integer sampler and norm test behind the minnorm verification battery."""

import random
from fractions import Fraction as Q

from orbitchar import verify
from orbitchar.liecore import norm_sq


def _value(normal, point):
    return sum((Q(a) * x for a, x in zip(normal, point)), Q(0))


def test_feasible_samples_are_exact_and_tight_when_cut_short():
    rng = random.Random(5)
    cut_short = 0
    for _ in range(40):
        _, interior, poly, _ = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        for _ in range(50):
            nums, den, (g, d) = draw(rng)
            point = tuple(Q(x, den) for x in nums)
            assert poly.contains(point)
            assert 0 <= Q(g, d) <= 1
            if g < d:
                cut_short += 1
                assert any(_value(normal, point) == bound for normal, bound in poly.rows)
    assert cut_short > 100


def test_samples_match_the_fraction_construction():
    rng = random.Random(6)
    for _ in range(20):
        dim, interior, poly, _ = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        for _ in range(20):
            state = rng.getstate()
            nums, den, (g, d) = draw(rng)
            rng.setstate(state)
            target = tuple(Q(rng.randint(-600, 600), 100) for _ in range(dim))
            t_max = Q(1)
            for normal, bound in poly.rows:
                drop = _value(normal, interior) - _value(normal, target)
                if drop > 0:
                    t_max = min(t_max, (_value(normal, interior) - bound) / drop)
            assert Q(g, d) == t_max
            assert tuple(Q(x, den) for x in nums) == tuple(
                p + t_max * (q - p) for p, q in zip(interior, target)
            )


def test_norm_below_agrees_with_norm_sq():
    rng = random.Random(7)
    for _ in range(30):
        _, interior, poly, form = verify._random_instance(rng)
        draw = verify._feasible_sampler(interior, poly)
        points = [draw(rng)[:2] for _ in range(20)]
        for nums, den in points:
            value = norm_sq(form, tuple(Q(x, den) for x in nums))
            for bound in (value, value + Q(1, 10**6), value - Q(1, 10**6)):
                below = verify._norm_below(form, bound)
                assert below(nums, den) == (value < bound)
