"""Typed configuration API: validation, round-trip, shims, and the facade.

Two contracts are pinned here.  First, the config objects themselves:
construction validates every field with error messages listing the valid
choices, and any config round-trips through dicts and JSON losslessly
(unknown keys and bad enums in a loaded file fail loudly).  Second, the
migration: the legacy string-kwarg constructors keep producing bit-identical
behavior while emitting a :class:`DeprecationWarning`, and the new typed
path (``from_config`` / ``repro.api``) never touches a shim — the facade
tests run under ``error::DeprecationWarning``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import api
from repro.collision.checker import RobotEnvironmentChecker
from repro.config import (
    CacheConfig,
    EngineConfig,
    FleetConfig,
    ReproConfig,
    ResilienceConfig,
    ServiceConfig,
)
from repro.env.generator import random_scene
from repro.env.octree import Octree
from repro.harness.serialization import load_config, save_config
from repro.planning.engine import BatchedEngine, SequentialEngine, make_engine
from repro.robot.presets import planar_arm


@pytest.fixture(scope="module")
def world():
    scene = random_scene(seed=7)
    octree = Octree.from_scene(scene, resolution=16)
    return scene, octree, planar_arm()


class TestValidation:
    def test_bad_backend_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            ReproConfig(backend="vectorised")
        message = str(excinfo.value)
        assert "vectorised" in message and "scalar" in message and "batch" in message

    def test_bad_planner_lists_choices(self):
        with pytest.raises(ValueError, match="rrt_connect"):
            ReproConfig(planner="a_star")

    def test_bad_engine_kind_lists_choices(self):
        with pytest.raises(ValueError, match="sequential"):
            EngineConfig(kind="sas")

    def test_batch_engine_requires_batch_backend(self):
        with pytest.raises(ValueError, match="backend 'batch'"):
            ReproConfig(engine=EngineConfig(kind="batch"))

    def test_bad_service_mode(self):
        with pytest.raises(ValueError, match="batched"):
            ServiceConfig(mode="threads")

    def test_positive_fields(self):
        with pytest.raises(ValueError, match="quantum"):
            CacheConfig(quantum=0.0)
        with pytest.raises(ValueError, match="motion_step"):
            ReproConfig(motion_step=-1.0)
        with pytest.raises(ValueError, match="sim_ms"):
            ResilienceConfig(sim_ms=0.0)

    def test_configs_are_frozen(self):
        config = ReproConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.backend = "batch"

    def test_for_service_defaults(self):
        config = ReproConfig.for_service()
        assert config.backend == "batch"
        assert config.cache.enabled
        override = ReproConfig.for_service(planner="rrt")
        assert override.planner == "rrt" and override.backend == "batch"

    def test_fleet_config_validates_fields(self):
        with pytest.raises(ValueError, match="n_shards"):
            FleetConfig(n_shards=0)
        with pytest.raises(ValueError, match="round_robin"):
            FleetConfig(router="sticky")
        with pytest.raises(ValueError, match="inline"):
            FleetConfig(workers="threads")
        with pytest.raises(ValueError, match="region_quantum"):
            FleetConfig(region_quantum=0.0)

    def test_for_fleet_defaults(self):
        config = ReproConfig.for_fleet(4)
        assert config.fleet.n_shards == 4
        assert config.backend == "batch" and config.cache.enabled
        override = ReproConfig.for_fleet(
            2, fleet=FleetConfig(n_shards=2, workers="process")
        )
        assert override.fleet.workers == "process"


class TestRoundTrip:
    def _sample(self):
        return ReproConfig(
            backend="batch",
            planner="prm",
            motion_step=0.1,
            engine=EngineConfig(kind="simulated", n_cdus=4, seed=9),
            resilience=ResilienceConfig(sim_ms=2.0, audit=True),
            cache=CacheConfig(enabled=True, quantum=1e-6, max_entries=128),
            service=ServiceConfig(batch_window=4, default_deadline_ms=5.0),
            fleet=FleetConfig(
                n_shards=4,
                router="region",
                router_seed=3,
                workers="process",
                region_quantum=0.5,
                global_cache=False,
            ),
        )

    def test_dict_round_trip(self):
        config = self._sample()
        rebuilt = ReproConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert isinstance(rebuilt.engine, EngineConfig)
        assert isinstance(rebuilt.cache, CacheConfig)
        assert isinstance(rebuilt.fleet, FleetConfig)
        assert rebuilt.fleet == config.fleet

    def test_json_round_trip(self, tmp_path):
        config = self._sample()
        path = str(tmp_path / "config.json")
        save_config(path, config)
        assert load_config(path) == config
        # Sub-configs round-trip through the same entry points.
        save_config(path, config.engine)
        assert load_config(path) == config.engine

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError) as excinfo:
            ReproConfig.from_dict({"backend": "batch", "bogus_knob": 1})
        message = str(excinfo.value)
        assert "bogus_knob" in message and "octree_resolution" in message

    def test_loaded_bad_enum_lists_choices(self, tmp_path):
        path = str(tmp_path / "config.json")
        save_config(path, ReproConfig())
        payload = json.load(open(path))
        payload["payload"]["config"]["backend"] = "vectorised"
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="scalar"):
            load_config(path)

    def test_wrong_version_and_class_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        save_config(path, ReproConfig())
        payload = json.load(open(path))
        payload["payload"]["config_class"] = "TurboConfig"
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="TurboConfig"):
            load_config(path)
        payload["payload"]["config_class"] = "ReproConfig"
        payload["schema"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(ValueError, match="schema"):
            load_config(path)

    def test_save_rejects_non_config(self, tmp_path):
        with pytest.raises(TypeError):
            save_config(str(tmp_path / "x.json"), {"backend": "batch"})


class TestLegacyShims:
    """Old string kwargs keep working bit-identically, but warn."""

    def test_checker_backend_kwarg_warns(self, world):
        _, octree, robot = world
        with pytest.warns(DeprecationWarning, match="backend"):
            RobotEnvironmentChecker(robot, octree, backend="batch")

    def test_checker_old_equals_new(self, world):
        _, octree, robot = world
        with pytest.warns(DeprecationWarning):
            legacy = RobotEnvironmentChecker(robot, octree, backend="batch")
        typed = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig(backend="batch")
        )
        rng = np.random.default_rng(2)
        poses = [robot.random_configuration(rng) for _ in range(10)]
        assert [legacy.check_pose(q) for q in poses] == [
            typed.check_pose(q) for q in poses
        ]
        assert legacy.stats.as_dict() == typed.stats.as_dict()

    def test_engine_config_parameterizes_simulated(self, world):
        _, octree, robot = world
        checker = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig()
        )
        engine = make_engine(
            EngineConfig(kind="simulated", n_cdus=4, seed=3), checker
        )
        assert engine.name == "simulated"
        assert engine.simulator.n_cdus == 4

    def test_typed_engine_kinds(self, world):
        _, octree, robot = world
        checker = RobotEnvironmentChecker.from_config(
            robot, octree, ReproConfig(backend="batch")
        )
        assert isinstance(
            make_engine(EngineConfig(kind="sequential"), checker),
            SequentialEngine,
        )
        assert isinstance(
            make_engine(EngineConfig(kind="batch"), checker), BatchedEngine
        )

    def test_runtime_legacy_kwargs_warn_and_match(self):
        from repro.accel.cecdu import CECDUConfig
        from repro.accel.config import MPAccelConfig
        from repro.accel.runtime import RobotRuntime
        from repro.env.scene import Scene
        from repro.geometry.aabb import AABB

        def scene():
            s = Scene(extent=4.0)
            s.add_obstacle(
                AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2])
            )
            return s

        def run(**kwargs):
            runtime = RobotRuntime(
                robot=planar_arm(2),
                scene=scene(),
                config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
                scene_update=lambda s, tick, r: False,
                **kwargs,
            )
            report = runtime.run(
                np.array([np.pi * 0.9, 0.0]),
                np.array([-np.pi * 0.9, 0.0]),
                n_ticks=1,
                rng=np.random.default_rng(0),
            )
            return [
                (t.phases, t.poses_checked, t.planning_ms) for t in report.ticks
            ], report.final_path

        with pytest.warns(DeprecationWarning, match="RobotRuntime"):
            legacy_ticks, legacy_path = run(
                octree_resolution=32, backend="batch", engine="batch"
            )
        typed_ticks, typed_path = run(
            repro=ReproConfig(
                backend="batch",
                octree_resolution=32,
                engine=EngineConfig(kind="batch"),
            )
        )
        assert legacy_ticks == typed_ticks
        assert all(
            np.array_equal(a, b) for a, b in zip(legacy_path, typed_path)
        )

    def test_runtime_rejects_config_plus_legacy_kwargs(self):
        from repro.accel.cecdu import CECDUConfig
        from repro.accel.config import MPAccelConfig
        from repro.accel.runtime import RobotRuntime
        from repro.env.scene import Scene

        with pytest.raises(ValueError, match="legacy kwarg"):
            RobotRuntime(
                robot=planar_arm(2),
                scene=Scene(extent=4.0),
                config=MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
                scene_update=lambda s, tick, r: False,
                backend="batch",
                repro=ReproConfig(backend="batch"),
            )


@pytest.mark.filterwarnings("error::DeprecationWarning")
class TestFacade:
    """The new API end to end, with DeprecationWarnings escalated to errors:
    any internal use of a legacy shim fails these tests."""

    def test_plan_deterministic(self, world):
        _, octree, robot = world
        checker = api.make_checker(robot, octree)
        rng = np.random.default_rng(1)
        q_start = checker.sample_free_configuration(rng)
        q_goal = checker.sample_free_configuration(rng)
        first = api.plan(robot, octree, q_start, q_goal, seed=4)
        second = api.plan(robot, octree, q_start, q_goal, seed=4)
        assert first.success and second.success
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.num_phases == second.num_phases
        assert all(
            np.array_equal(a, b) for a, b in zip(first.path, second.path)
        )

    def test_plan_batch_engine_matches_sequential(self, world):
        _, octree, robot = world
        checker = api.make_checker(robot, octree)
        rng = np.random.default_rng(1)
        q_start = checker.sample_free_configuration(rng)
        q_goal = checker.sample_free_configuration(rng)
        reference = api.plan(robot, octree, q_start, q_goal, seed=4)
        batched = api.plan(
            robot,
            octree,
            q_start,
            q_goal,
            ReproConfig(backend="batch", engine=EngineConfig(kind="batch")),
            seed=4,
        )
        assert batched.success
        assert all(
            np.array_equal(a, b)
            for a, b in zip(reference.path, batched.path)
        )

    def test_make_recorder_and_planner(self, world):
        _, octree, robot = world
        recorder = api.make_recorder(robot, octree, ReproConfig(planner="prm"))
        planner = api.make_planner(recorder, "prm")
        assert type(planner).__name__ == "PRMPlanner"
        with pytest.raises(ValueError, match="mpnet"):
            api.make_planner(recorder, "mpnet")
        with pytest.raises(ValueError, match="rrt_connect"):
            api.make_planner(recorder, "dijkstra")

    def test_make_service_default_config(self, world):
        _, octree, robot = world
        service = api.make_service(robot, octree)
        assert service.config.backend == "batch"
        assert service.cache is not None

    def test_make_service_rejects_multi_shard_config(self, world):
        _, octree, robot = world
        with pytest.raises(ValueError, match="make_fleet"):
            api.make_service(robot, octree, ReproConfig.for_fleet(3))

    def test_make_fleet_default_config(self, world):
        _, octree, robot = world
        fleet = api.make_fleet(
            robot, octree, ReproConfig.for_fleet(2)
        )
        assert fleet.n_shards == 2
        assert all(s.config.backend == "batch" for s in fleet.shards)
        assert fleet.global_cache is not None

    def test_make_runtime_typed_only(self):
        from repro.accel.cecdu import CECDUConfig
        from repro.accel.config import MPAccelConfig
        from repro.env.scene import Scene
        from repro.geometry.aabb import AABB

        scene = Scene(extent=4.0)
        scene.add_obstacle(AABB.from_min_max([0.7, -0.4, 0.0], [0.9, 0.4, 0.2]))
        runtime = api.make_runtime(
            planar_arm(2),
            scene,
            MPAccelConfig(n_cecdus=8, cecdu=CECDUConfig(n_oocds=4)),
            lambda s, tick, r: False,
            ReproConfig(backend="batch", octree_resolution=32),
        )
        report = runtime.run(
            np.array([np.pi * 0.9, 0.0]),
            np.array([-np.pi * 0.9, 0.0]),
            n_ticks=1,
            rng=np.random.default_rng(0),
        )
        assert report.ticks
