"""Shared builders for the test suite."""

import random
from fractions import Fraction

from discretebm import FiniteMeasure, ProbabilityMeasure, as_point
from discretebm.suite import random_points

PHI_MAX_POINTS = 10
PHI_VALUE_BOUND = 3.0


def uniform(points):
    pts = [as_point(p) for p in points]
    return FiniteMeasure(len(pts[0]), [(p, 1) for p in pts]).normalize()


def dirac(point):
    p = as_point(point)
    return ProbabilityMeasure(len(p), [(p, 1)])


def measure(dim, entries):
    return FiniteMeasure(dim, entries)


def prob(dim, entries):
    return ProbabilityMeasure(dim, entries)


F = Fraction


def random_phi(rng: random.Random) -> dict:
    """Random finitely supported real-valued function on Z for the
    log-Laplace check: at most PHI_MAX_POINTS points, values in
    [-PHI_VALUE_BOUND, PHI_VALUE_BOUND]."""
    count = rng.randint(1, PHI_MAX_POINTS)
    points = random_points(rng, 1, count)
    return {p: rng.uniform(-PHI_VALUE_BOUND, PHI_VALUE_BOUND) for p in points}
