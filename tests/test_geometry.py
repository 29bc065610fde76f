import math

import numpy as np
import pytest

from spheremap.geometry import (coverage_matrix, covered_fractions,
                                enclosing_sphere, intersection_radii)
from spheremap.spatial import sq_dists


def radius_at(d, r1, r2):
    """The link kernel on one pair of spheres ``d`` apart."""
    return float(intersection_radii(np.array([d], dtype=float), r1, np.array([r2]))[0])


class TestIntersectionRadius:
    def test_unit_spheres_at_unit_distance(self):
        # circumradius of the intersection circle: sqrt(3)/2
        got = radius_at(1.0, 1.0, 1.0)
        assert got == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_disjoint_and_tangent(self):
        assert radius_at(3.0, 1.0, 1.0) == 0.0
        assert radius_at(2.0, 1.0, 1.0) == 0.0

    def test_containment(self):
        assert radius_at(0.5, 3.0, 1.0) == 1.0

    def test_sampled_boundary_cross_check(self):
        # independent check: max radius of points on both sphere surfaces
        p1, r1 = np.zeros(3), 1.3
        p2, r2 = np.array([1.1, 0.3, -0.2]), 0.9
        d = np.linalg.norm(p2 - p1)
        # intersection circle lies in the plane at x* along the axis
        x_star = (d * d - r2 * r2 + r1 * r1) / (2 * d)
        expected = math.sqrt(r1 * r1 - x_star * x_star)
        got = radius_at(d, r1, r2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_the_closed_form(self):
        # elementwise against the circle's radius from the plane it lies in
        rng = np.random.default_rng(5)
        r1 = 1.2
        r2 = rng.uniform(0.3, 2.0, 64)
        d = rng.uniform(0.0, 4.0, 64)
        got = intersection_radii(d, r1, r2)
        for i in range(64):
            if d[i] >= r1 + r2[i]:
                expected = 0.0
            elif d[i] <= abs(r1 - r2[i]):
                expected = min(r1, r2[i])
            else:
                x_star = (d[i] * d[i] - r2[i] * r2[i] + r1 * r1) / (2 * d[i])
                expected = math.sqrt(r1 * r1 - x_star * x_star)
            assert got[i] == pytest.approx(expected, abs=1e-9)

    def test_symmetric_bit_exact(self):
        # portal selection and the validator evaluate pairs in either order
        rng = np.random.default_rng(23)
        r1 = rng.uniform(0.8, 4.0, 2000)
        r2 = rng.uniform(0.8, 4.0, 2000)
        d = rng.uniform(0.0, 8.0, 2000)
        np.testing.assert_array_equal(intersection_radii(d, r1, r2), intersection_radii(d, r2, r1))
        # A pair from a cave map whose radius Python's ``** 2`` rounds one ULP
        # away from the kernel's: the swapped pair keeps the kernel's bits.
        p1 = np.array([[10.100000381469727, 22.299999237060547, 2.0999999046325684]])
        p2 = np.array([[8.300000190734863, 21.5, 2.0999999046325684]])
        r1, r2 = np.array([1.280624508857727]), np.array([1.2649109363555908])
        fwd = intersection_radii(np.sqrt(sq_dists(p1, p2)), r1, r2)
        assert fwd.tobytes() == intersection_radii(np.sqrt(sq_dists(p2, p1)), r2, r1).tobytes()


def monte_carlo_lens(r1, r2, d, n=200_000, seed=0):
    """Fraction of sphere-1 volume inside sphere 2, by rejection sampling."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-r1, r1, size=(n, 3))
    inside1 = np.einsum("ij,ij->i", pts, pts) <= r1 * r1
    pts = pts[inside1]
    d2 = pts.copy()
    d2[:, 0] -= d
    inside2 = np.einsum("ij,ij->i", d2, d2) <= r2 * r2
    return inside2.sum() / len(pts)


class TestLensVolume:
    """The lens volume, seen through the fraction of sphere 1 it covers."""

    def test_disjoint(self):
        assert covered_fractions(1.0, np.array([3.0]), np.array([1.0]))[0] == 0.0

    def test_containment(self):
        # a radius-1 sphere inside a radius-2 one covers (1/2)^3 of it
        frac = covered_fractions(2.0, np.array([0.5]), np.array([1.0]))[0]
        assert frac == pytest.approx(1.0 / 8.0)

    @pytest.mark.parametrize("r1,r2,d", [(1.0, 1.5, 1.2), (1.0, 1.0, 0.5),
                                         (0.8, 2.0, 1.5)])
    def test_against_monte_carlo(self, r1, r2, d):
        frac = covered_fractions(r1, np.array([d]), np.array([r2]))[0]
        mc = monte_carlo_lens(r1, r2, d, n=400_000, seed=17)
        assert frac == pytest.approx(mc, abs=5e-3)


class TestCoveredFractions:
    def test_containment_counts_full(self):
        frac = covered_fractions(1.0, np.array([0.5]), np.array([2.0]))
        assert frac[0] == 1.0

    def test_monte_carlo_case(self):
        # the redundancy-rule example: r=1 sphere vs r=1.5 at offset 1.2
        frac = covered_fractions(1.0, np.array([1.2]), np.array([1.5]))
        mc = monte_carlo_lens(1.0, 1.5, 1.2, n=1_000_000, seed=3)
        assert frac[0] == pytest.approx(mc, abs=3e-3)

    def test_matrix_matches_vector(self):
        # every (i, j) pair of two sphere sets, read as a matrix, row by row
        rng = np.random.default_rng(11)
        r_small = rng.uniform(0.5, 1.5, 8)
        r_big = rng.uniform(0.5, 2.5, 6)
        d = rng.uniform(0.0, 3.0, (8, 6))
        i, j = np.indices(d.shape).reshape(2, -1)
        mat = coverage_matrix(r_small, d[i, j], r_big, pairs=(i, j)).reshape(d.shape)
        for k in range(8):
            row = covered_fractions(r_small[k], d[k], r_big)
            assert np.array_equal(mat[k], row)

    def test_chosen_entries_match_the_matrix(self):
        rng = np.random.default_rng(12)
        r_small = rng.uniform(0.5, 1.5, 40)
        r_big = rng.uniform(0.5, 2.5, 30)
        d = rng.uniform(0.0, 3.0, (40, 30))
        i, j = np.nonzero(rng.random((40, 30)) < 0.3)
        picked = coverage_matrix(r_small, d[i, j], r_big, pairs=(i, j))
        every = np.indices(d.shape).reshape(2, -1)
        matrix = coverage_matrix(r_small, d.ravel(), r_big, pairs=every).reshape(d.shape)
        assert np.array_equal(picked, matrix[i, j])
        for k, (a, b) in enumerate(zip(i, j)):
            assert picked[k] == covered_fractions(r_small[a], d[a, b:b + 1], r_big[b:b + 1])[0]
        assert 0 < np.count_nonzero(picked) < len(picked)


class TestEnclosingSphere:
    def test_single_sphere(self):
        c, r = enclosing_sphere(np.array([[1.0, 2.0, 3.0]]), np.array([0.7]))
        np.testing.assert_allclose(c, [1, 2, 3])
        assert r == pytest.approx(0.7)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_contains_all_members(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        pos = rng.uniform(-10, 10, size=(n, 3))
        rad = rng.uniform(0.1, 2.0, size=n)
        c, r = enclosing_sphere(pos, rad)
        reach = np.linalg.norm(pos - c, axis=1) + rad
        assert np.all(reach <= r + 1e-9)

    def test_not_wildly_loose(self):
        # two spheres on a line: optimal radius is (d + r1 + r2) / 2
        pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        rad = np.array([1.0, 1.0])
        _, r = enclosing_sphere(pos, rad)
        assert r <= 6.0 * 1.2
