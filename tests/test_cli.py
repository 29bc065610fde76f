import numpy as np
import pytest

from spheremap import (ClearanceField, PlannerParams, decode, evaluate_path, load_grid,
                       save_grid)
from spheremap.cli import main

from conftest import box_room, wall_gap_room


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "world.vxg"
    grid = box_room((10.0, 10.0, 3.0))
    path.write_bytes(save_grid(grid))
    return path


@pytest.fixture(scope="module")
def map_file(tmp_path_factory, world_file):
    path = tmp_path_factory.mktemp("cli") / "map.smp"
    params = tmp_path_factory.mktemp("cli") / "build.params"
    params.write_text("voxel_stride=2\ncube_side=14.0\nray_count=0\n"
                      "# a comment\nspacing=7\n")
    rc = main(["build", "--world", str(world_file), "--out", str(path),
               "--params", str(params)])
    assert rc == 0
    return path


class TestGen:
    def test_gen_writes_world(self, tmp_path):
        out = tmp_path / "w.vxg"
        rc = main(["gen", "--kind", "room-grid", "--extent", "12,12,3",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        grid = load_grid(out.read_bytes())
        assert grid.dims[0] > 0

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.vxg", tmp_path / "b.vxg"
        for out in (a, b):
            assert main(["gen", "--kind", "corridor-maze", "--extent", "24,24,4",
                         "--seed", "42", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_extent(self, tmp_path):
        rc = main(["gen", "--kind", "room-grid", "--extent", "oops",
                   "--out", str(tmp_path / "w.vxg")])
        assert rc == 2

    @pytest.mark.parametrize("extent", ["nan,10,4", "inf,10,4", "10,-inf,4"])
    def test_non_finite_extent(self, tmp_path, extent):
        out = tmp_path / "w.vxg"
        rc = main(["gen", "--kind", "corridor-maze", "--extent", extent, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_non_finite_resolution_in_params(self, tmp_path):
        params = tmp_path / "w.params"
        params.write_text("resolution=nan\n")
        rc = main(["gen", "--kind", "room-grid", "--extent", "12,12,3",
                   "--params", str(params), "--out", str(tmp_path / "w.vxg")])
        assert rc == 2

    def test_kind_in_params_file(self, tmp_path):
        # A str field without a default is parsed as a str.
        params = tmp_path / "w.params"
        params.write_text("kind=perforated-cave\n")
        a, b = tmp_path / "a.vxg", tmp_path / "b.vxg"
        assert main(["gen", "--kind", "room-grid", "--extent", "20,20,4",
                     "--params", str(params), "--out", str(a)]) == 0
        assert main(["gen", "--kind", "perforated-cave", "--extent", "20,20,4",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPlan:
    def test_identical_from_to(self, world_file, map_file):
        rc = main(["plan", "--world", str(world_file), "--map", str(map_file),
                   "--from", "5,5,1.5", "--to", "5,5,1.5", "--mode", "cached"])
        assert rc == 0

    def test_grid_mode(self, world_file, tmp_path):
        out = tmp_path / "plan.txt"
        rc = main(["plan", "--world", str(world_file), "--from", "2,2,1.5",
                   "--to", "8,8,1.5", "--mode", "grid", "--out", str(out)])
        assert rc == 0
        record = out.read_text().split()
        assert record[0] == "grid"
        assert float(record[2]) > 0  # length

    def test_downsampled_grid_keeps_world_clearance(self, tmp_path):
        grid, start, goal = wall_gap_room()
        world = tmp_path / "wall.vxg"
        world.write_bytes(save_grid(grid))
        params = tmp_path / "plan.params"
        params.write_text("grid_factor=2\n")
        out = tmp_path / "plan.txt"
        rc = main(["plan", "--world", str(world), "--params", str(params),
                   "--from", ",".join(map(str, start)), "--to", ",".join(map(str, goal)),
                   "--mode", "grid-length", "--out", str(out)])
        assert rc == 0
        pts = [[float(v) for v in p.split(",")]
               for p in out.read_text().split()[5].split(";")]
        plan = PlannerParams()
        assert evaluate_path(pts, ClearanceField(grid), plan)[3] > plan.r_min

    def test_no_path_exit_code(self, world_file, map_file):
        rc = main(["plan", "--world", str(world_file), "--map", str(map_file),
                   "--from", "5,5,1.5", "--to", "55,55,1.5", "--mode", "full"])
        assert rc == 1

    @pytest.mark.parametrize("mode", ["cached", "full"])
    def test_map_planner_params_are_the_defaults(self, world_file, tmp_path, mode):
        # A map built with xi=0 plans without risk unless a params file says otherwise.
        smap = tmp_path / "xi0.smp"
        build = tmp_path / "build.params"
        build.write_text("voxel_stride=2\ncube_side=14.0\nray_count=0\nspacing=7\nxi=0\n")
        assert main(["build", "--world", str(world_file), "--out", str(smap),
                     "--params", str(build)]) == 0
        plan = tmp_path / "plan.params"
        plan.write_text("xi=7\n")
        risks = []
        for extra in ([], ["--params", str(plan)]):
            out = tmp_path / "plan.txt"
            assert main(["plan", "--world", str(world_file), "--map", str(smap), "--mode", mode,
                         "--from", "2,2,1.5", "--to", "8,8,1.5", "--out", str(out)] + extra) == 0
            risks.append(float(out.read_text().split()[3]))
        assert risks[0] == 0.0 < risks[1]

    def test_bad_map_path(self, world_file):
        rc = main(["plan", "--world", str(world_file), "--map", "/nonexistent.smp",
                   "--from", "1,1,1", "--to", "2,2,2", "--mode", "cached"])
        assert rc == 2

    @pytest.mark.parametrize("src, dst", [("nan,1,1", "5,5,2"), ("1,1,1", "5,inf,2")])
    def test_non_finite_point(self, world_file, src, dst):
        rc = main(["plan", "--world", str(world_file), "--from", src, "--to", dst,
                   "--mode", "grid"])
        assert rc == 2

    @pytest.mark.parametrize("line", ["xi=nan", "xi=inf", "d_max=inf"])
    def test_non_finite_planner_params(self, world_file, tmp_path, line):
        params = tmp_path / "plan.params"
        params.write_text(line + "\n")
        rc = main(["plan", "--world", str(world_file), "--params", str(params),
                   "--from", "2,2,1.5", "--to", "8,8,1.5", "--mode", "grid"])
        assert rc == 2

    def test_unknown_flag(self):
        rc = main(["plan", "--frobnicate"])
        assert rc == 2

    def test_corrupt_world(self, tmp_path):
        bad = tmp_path / "bad.vxg"
        bad.write_bytes(b"not a grid at all")
        rc = main(["plan", "--world", str(bad), "--from", "1,1,1",
                   "--to", "2,2,2", "--mode", "grid"])
        assert rc == 2


class TestExtraKeys:
    @pytest.mark.parametrize("line", ["spacing=abc", "spacing=0", "spacing=-7", "spacing=nan",
                                      "spacing=inf", "spacing=1e999", "passes=1.5", "passes=0",
                                      "passes=two"])
    def test_build_rejects_bad_values(self, world_file, tmp_path, line):
        params = tmp_path / "build.params"
        params.write_text(f"voxel_stride=2\ncube_side=14.0\nray_count=0\n{line}\n")
        out = tmp_path / "map.smp"
        rc = main(["build", "--world", str(world_file), "--out", str(out),
                   "--params", str(params)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["grid_factor=1.5", "grid_factor=0", "grid_factor=x"])
    def test_plan_rejects_bad_grid_factor(self, world_file, tmp_path, line):
        params = tmp_path / "plan.params"
        params.write_text(line + "\n")
        rc = main(["plan", "--world", str(world_file), "--params", str(params),
                   "--from", "2,2,1.5", "--to", "8,8,1.5", "--mode", "grid"])
        assert rc == 2

    @pytest.mark.parametrize("line", ["goals=0", "goals=2.5", "rrt_timeout=-1",
                                      "rrt_timeout=nan", "grid_factor=inf", "spacing=0"])
    def test_bench_rejects_bad_values(self, world_file, tmp_path, line):
        params = tmp_path / "p.params"
        params.write_text(f"voxel_stride=2\ncube_side=14.0\nray_count=0\n{line}\n")
        rc = main(["bench", "--suite", "single-goal", "--world", str(world_file),
                   "--out", str(tmp_path / "b"), "--params", str(params)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["passes=abc", "goals=-3"])
    def test_gen_rejects_keys_it_does_not_read(self, tmp_path, line):
        params = tmp_path / "w.params"
        params.write_text(line + "\n")
        out = tmp_path / "w.vxg"
        rc = main(["gen", "--kind", "room-grid", "--extent", "12,12,3",
                   "--params", str(params), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_build_rejects_keys_it_does_not_read(self, world_file, tmp_path):
        params = tmp_path / "build.params"
        params.write_text("voxel_stride=2\ncube_side=14.0\nray_count=0\ngoals=3\n")
        out = tmp_path / "map.smp"
        rc = main(["build", "--world", str(world_file), "--out", str(out),
                   "--params", str(params)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("line, rc", [("rrt_timeout=-1", 2), ("grid_factor=0", 2),
                                          ("rrt_timeout=5\ngrid_factor=2", 0)])
    def test_plan_reads_its_keys_in_every_mode(self, world_file, map_file, tmp_path, line, rc):
        params = tmp_path / "plan.params"
        params.write_text(line + "\n")
        assert main(["plan", "--world", str(world_file), "--map", str(map_file),
                     "--params", str(params), "--from", "2,2,1.5", "--to", "8,8,1.5",
                     "--mode", "full"]) == rc

    def test_whole_numbers_are_accepted(self, world_file, tmp_path):
        params = tmp_path / "build.params"
        params.write_text("voxel_stride=2\ncube_side=14.0\nray_count=0\nspacing=7\npasses=2.0\n")
        rc = main(["build", "--world", str(world_file), "--out", str(tmp_path / "m.smp"),
                   "--params", str(params)])
        assert rc == 0


class TestExportLtv:
    def test_export(self, map_file, tmp_path):
        out = tmp_path / "m.ltv"
        rc = main(["export-ltv", "--map", str(map_file), "--out", str(out)])
        assert rc == 0
        ltv = decode(out.read_bytes())
        assert len(ltv.segments) >= 1


class TestBench:
    def test_bench_single_goal_writes_csv(self, world_file, tmp_path):
        out_dir = tmp_path / "bench"
        params = tmp_path / "p.params"
        params.write_text("voxel_stride=2\ncube_side=14.0\nray_count=0\n"
                          "spacing=7\nrrt_timeout=5\n")
        rc = main(["bench", "--suite", "single-goal", "--world", str(world_file),
                   "--out", str(out_dir), "--params", str(params)])
        assert rc == 0
        text = (out_dir / "single_goal.csv").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "mode,time_ms,length,risk,cost,min_clearance"
        assert len(lines) == 6

    def test_unknown_params_key(self, world_file, tmp_path):
        params = tmp_path / "p.params"
        params.write_text("definitely_not_a_knob=1\n")
        rc = main(["bench", "--suite", "single-goal", "--world", str(world_file),
                   "--out", str(tmp_path / "b"), "--params", str(params)])
        assert rc == 2

    @pytest.mark.parametrize("key", ["budget", "extent_x", "extent_y", "extent_z"])
    def test_keys_no_command_reads_are_unknown(self, world_file, tmp_path, key):
        params = tmp_path / "p.params"
        params.write_text(f"{key}=1\n")
        rc = main(["bench", "--suite", "single-goal", "--world", str(world_file),
                   "--out", str(tmp_path / "b"), "--params", str(params)])
        assert rc == 2
