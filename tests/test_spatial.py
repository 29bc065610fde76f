import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from spheremap import NodeIndex, ObstacleIndex
from spheremap.ltv import GOAL_CLUSTER_RADIUS, _cluster_goals
from spheremap.spatial import kdtree

from oracles import cluster_goals_default_tree


def linear_scan_nearest(points, queries):
    """sqrt(min((dx*dx + dy*dy) + dz*dz)) over the points, for each query."""
    delta = queries[:, None, :] - points[None, :, :]
    dx, dy, dz = delta[..., 0], delta[..., 1], delta[..., 2]
    return np.sqrt(((dx * dx + dy * dy) + dz * dz).min(axis=1))


@st.composite
def lattice_cases(draw):
    """Voxel centres of a random lattice, some repeated, and queries at voxel
    centres (also rounded to float32, as expand's candidates are), on cell
    faces and corners, inside cells and far outside."""
    resolution = draw(st.sampled_from([0.1, 0.2, 0.25, 0.4, 1.0]))
    origin = np.array(draw(st.tuples(*[st.floats(-50.0, 50.0)] * 3)))
    shape = np.array(draw(st.tuples(*[st.integers(1, 12)] * 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idx = rng.integers(0, shape, size=(draw(st.integers(1, 120)), 3))
    idx = np.concatenate([idx, idx[:draw(st.integers(0, len(idx)))]])
    points = origin + resolution * (idx + 0.5)
    cells = rng.integers(-2, shape + 2, size=(60, 3))
    centres = origin + resolution * (cells + 0.5)
    offsets = np.where(rng.random((60, 3)) < 0.5, 0.0, 0.5)
    offsets[np.arange(60), rng.integers(0, 3, 60)] = rng.choice([0.0, 1.0], 60)
    queries = np.concatenate([
        centres, np.asarray(np.asarray(centres, dtype=np.float32), dtype=float),
        origin + resolution * (cells + offsets),
        origin + resolution * (cells + rng.uniform(0.01, 0.99, (60, 3))),
        origin + rng.uniform(-1e3, 1e3, (20, 3))])
    return points, queries


class TestObstacleIndex:
    def test_empty(self):
        index = ObstacleIndex.build(np.empty((0, 3)), np.empty((0, 3)))
        assert index.nearest_distance((1, 2, 3)) == math.inf
        assert np.all(np.isinf(index.nearest_distances(np.zeros((4, 3)))))

    def test_single_point(self):
        index = ObstacleIndex(np.array([[0.0, 0.0, 0.0]]))
        assert index.nearest_distance((3.0, 4.0, 0.0)) == pytest.approx(5.0)

    def test_point_coincides(self):
        index = ObstacleIndex(np.array([[1.0, 1.0, 1.0]]))
        assert index.nearest_distance((1.0, 1.0, 1.0)) == 0.0

    def test_equidistant_pair(self):
        index = ObstacleIndex(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        assert index.nearest_distance((0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_union_of_obstacles_and_frontiers(self):
        index = ObstacleIndex.build(np.array([[5.0, 0.0, 0.0]]),
                                    np.array([[0.0, 1.0, 0.0]]))
        assert index.nearest_distance((0.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_random_against_linear_scan(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-50, 50, size=(1000, 3))
        index = ObstacleIndex(pts)
        queries = rng.uniform(-60, 60, size=(100, 3))
        assert np.array_equal(index.nearest_distances(queries),
                              linear_scan_nearest(pts, queries))

    @given(lattice_cases())
    def test_lattice_distances_are_exact(self, case):
        points, queries = case
        got = ObstacleIndex(points).nearest_distances(queries)
        assert np.array_equal(got, cKDTree(points).query(queries)[0])
        assert np.array_equal(got, linear_scan_nearest(points, queries))


class TestKdtree:
    @given(lattice_cases())
    def test_lattice_ball_counts_match_default_tree(self, case):
        points, queries = case
        # A distance between lattice points, so some points lie on the sphere.
        radius = float(np.linalg.norm(points[0] - points[-1])) or 1.0
        assert np.array_equal(
            kdtree(points).query_ball_point(queries, radius, return_length=True),
            cKDTree(points).query_ball_point(queries, radius, return_length=True))

    def test_cluster_goals_match_default_tree(self):
        # 30,000 points of a 0.4 m lattice: the input is thinned to every
        # second point and each seed's ball holds hundreds of them.
        lattice = np.argwhere(np.ones((120, 120, 11), dtype=bool))
        rng = np.random.default_rng(4)
        points = 0.4 * (lattice[rng.choice(len(lattice), 30000, replace=False)] + 0.5)
        expected = cluster_goals_default_tree(points, GOAL_CLUSTER_RADIUS)
        assert len(expected) > 1
        assert _cluster_goals(points).tobytes() == expected.tobytes()


class TestNodeIndex:
    def test_insert_query_zero_radius(self):
        index = NodeIndex()
        index.insert(7, (1.0, 2.0, 3.0))
        assert index.within_radius((1.0, 2.0, 3.0), 0.0) == [7]

    def test_duplicate_insert_rejected(self):
        index = NodeIndex()
        index.insert(1, (0, 0, 0))
        with pytest.raises(KeyError):
            index.insert(1, (1, 1, 1))

    def test_remove_then_query(self):
        index = NodeIndex()
        index.insert(1, (0, 0, 0))
        index.insert(2, (0.5, 0, 0))
        index.remove(1)
        assert index.within_radius((0, 0, 0), 5.0) == [2]
        assert 1 not in index

    def test_remove_missing(self):
        index = NodeIndex()
        with pytest.raises(KeyError):
            index.remove(3)

    def test_tie_break_by_id(self):
        index = NodeIndex()
        index.insert(5, (1.0, 0.0, 0.0))
        index.insert(2, (-1.0, 0.0, 0.0))
        assert index.within_radius((0, 0, 0), 1.0) == [2, 5]

    def test_empty_max_aux(self):
        index = NodeIndex()
        assert index.max_aux() == 0.0
        index.insert(1, (0, 0, 0), aux=2.0)
        index.remove(1)
        assert index.max_aux() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_ops_match_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        index = NodeIndex()
        alive: dict[int, tuple[np.ndarray, float]] = {}
        next_id = 0
        for _ in range(500):
            op = rng.random()
            if alive and op < 0.3:
                victim = sorted(alive)[int(rng.integers(len(alive)))]
                index.remove(victim)
                del alive[victim]
            elif alive and op < 0.45:
                # Shrinking the largest value is the case a cached maximum misses.
                target = max(alive, key=lambda i: alive[i][1]) if rng.random() < 0.5 \
                    else sorted(alive)[int(rng.integers(len(alive)))]
                aux = float(rng.uniform(0, 8))
                index.set_aux(target, aux)
                alive[target] = (alive[target][0], aux)
            else:
                p = rng.uniform(-20, 20, 3)
                aux = float(rng.uniform(0, 8))
                index.insert(next_id, p, aux=aux)
                alive[next_id] = (p, aux)
                next_id += 1
            assert len(index) == len(alive)
            assert index.max_aux() == max((a for _, a in alive.values()), default=0.0)
        ids = sorted(alive)
        pts = np.array([alive[i][0] for i in ids])
        for _ in range(50):
            q = rng.uniform(-25, 25, 3)
            r = rng.uniform(0, 15)
            d = np.linalg.norm(pts - q, axis=1)
            order = sorted(range(len(ids)), key=lambda i: (d[i], ids[i]))
            expected = [ids[i] for i in order if d[i] <= r]
            assert index.within_radius(q, r) == expected
            got_ids, got_pos, got_aux, got_d = index.query(q, r)
            delta = got_pos - q
            assert np.array_equal(got_d, np.sqrt(np.einsum("ij,ij->i", delta, delta)))
            for nid, p, aux in zip(got_ids, got_pos, got_aux):
                assert np.array_equal(p, alive[int(nid)][0])
                assert aux == alive[int(nid)][1]

    def test_query_returns_sorted_arrays(self):
        index = NodeIndex()
        index.insert(3, (0, 0, 0), aux=1.5)
        index.insert(1, (1, 0, 0), aux=2.5)
        ids, pos, aux, dist = index.query((0.0, 0.0, 0.0), 2.0)
        assert list(ids) == [3, 1]
        assert list(aux) == [1.5, 2.5]
        assert dist[0] == 0.0
        index.set_aux(3, 9.0)
        assert index.query((0, 0, 0), 0.1)[2][0] == 9.0


def test_obstacle_index_build_scaling():
    # smoke check only: doubling n should not blow past ~2.4x build time
    import time
    rng = np.random.default_rng(0)
    times = []
    for n in (20000, 40000):
        pts = rng.uniform(0, 100, size=(n, 3))
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            ObstacleIndex(pts)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    assert times[1] / times[0] < 4.0  # generous; not acceptance-gating
