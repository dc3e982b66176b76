"""Tests for the top-level public API of the ``repro`` package."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.baselines
import repro.durability
import repro.index
import repro.obs
import repro.obs.httpd
import repro.queries
import repro.service
import repro.simulation
import repro.trajectory
import repro.transport
import repro.workloads
from repro.index.vortree import VoRTree


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [repro, repro.service, repro.transport, repro.durability, repro.queries],
        ids=[
            "repro",
            "repro.service",
            "repro.transport",
            "repro.durability",
            "repro.queries",
        ],
    )
    def test_all_is_consistent(self, module):
        """__all__ must be duplicate-free and every name must resolve."""
        assert len(module.__all__) == len(set(module.__all__)), "duplicate __all__ entry"
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ exports missing attribute {name}"
            )

    def test_service_surface_is_reexported_at_the_top_level(self):
        """Everything the service layer exports is reachable from ``repro``
        directly — the one front door — and is the same object."""
        for name in repro.service.__all__:
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(repro.service, name)

    def test_transport_user_surface_is_reexported_at_the_top_level(self):
        """The user-facing transport names (not the codec internals) are
        reachable from ``repro`` directly and are the same objects."""
        for name in (
            "connect",
            "KNNServer",
            "RemoteService",
            "RemoteSession",
            "TransportError",
        ):
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(repro.transport, name)

    def test_durability_user_surface_is_reexported_at_the_top_level(self):
        """The crash-recovery entry points are reachable from ``repro``."""
        for name in (
            "DurableKNNService",
            "open_durable_service",
            "recover_service",
            "has_durable_state",
        ):
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(repro.durability, name)

    @pytest.mark.parametrize(
        "home, names",
        [
            (repro.simulation, ("run_methods", "simulate_server")),
            (
                repro.workloads,
                (
                    "uniform_points",
                    "clustered_points",
                    "ChurnSpec",
                    "default_euclidean_scenario",
                    "default_road_scenario",
                    "euclidean_server_scenario",
                    "road_server_scenario",
                    "fig4_scenario",
                ),
            ),
            (
                repro.trajectory,
                (
                    "linear_trajectory",
                    "circular_trajectory",
                    "random_waypoint_trajectory",
                    "network_random_walk",
                ),
            ),
            (
                repro.baselines,
                (
                    "NaiveProcessor",
                    "NaiveRoadProcessor",
                    "VStarProcessor",
                    "VStarRoadProcessor",
                ),
            ),
        ],
        ids=["simulation", "workloads", "trajectory", "baselines"],
    )
    def test_deferred_names_are_their_home_modules_objects(self, home, names):
        for name in names:
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(home, name)

    def test_the_http_endpoint_is_reexported_by_obs(self):
        for name in ("MetricsHTTPServer", "start_metrics_http"):
            assert name in repro.obs.__all__
            assert getattr(repro.obs, name) is getattr(repro.obs.httpd, name)

    @pytest.mark.parametrize("module", [repro, repro.obs], ids=["repro", "repro.obs"])
    def test_dir_lists_all_and_unknown_names_raise(self, module):
        assert set(module.__all__) <= set(dir(module))
        assert not hasattr(module, "nope")
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute"):
            module.nope

    def test_star_imports_bind_every_name_in_a_fresh_interpreter(self):
        # Fresh: here every deferred name has been read already.
        script = (
            "import repro, repro.obs\n"
            "scope = {}\n"
            "exec('from repro import *', scope)\n"
            "print(*sorted(set(repro.__all__) - set(scope)))\n"
            "scope = {}\n"
            "exec('from repro.obs import *', scope)\n"
            "print(*sorted(set(repro.obs.__all__) - set(scope)))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.splitlines() == ["", ""]

    def test_queries_surface_is_reexported_at_the_top_level(self):
        """The continuous-query subsystem is reachable from ``repro``
        directly (all of it except the service-internal response_for)."""
        for name in repro.queries.__all__:
            if name in ("response_for", "InfluentialSitesKind", "KNNKind", "OrderKRegionKind"):
                continue
            assert name in repro.__all__, f"repro.__all__ is missing {name}"
            assert getattr(repro, name) is getattr(repro.queries, name)

    def test_query_kind_registry_lists_the_shipped_kinds(self):
        assert repro.query_kinds() == ["influential", "knn", "region"]
        for name in repro.query_kinds():
            kind = repro.query_kind(name)
            assert kind.name == name

    def test_new_response_frames_are_knn_response_subclasses(self):
        """The wire seam: widened responses ARE the kNN response class, so
        existing clients deliver them unchanged."""
        assert issubclass(repro.InfluentialResponse, repro.KNNResponse)
        assert issubclass(repro.RegionEvent, repro.KNNResponse)

    def test_durable_service_is_a_service_subclass(self):
        """The durability seam: a durable service IS the service class."""
        assert issubclass(repro.DurableKNNService, repro.KNNService)

    def test_remote_session_is_a_session_subclass(self):
        """The transport seam: remote handles ARE the session class."""
        assert issubclass(repro.transport.RemoteSession, repro.Session)

    def test_quickstart_docstring_flow(self):
        """The module docstring's quickstart snippet must actually work."""
        from repro import open_service, uniform_points, random_waypoint_trajectory
        from repro.workloads.datasets import data_space

        service = open_service(metric="euclidean", objects=uniform_points(100, seed=1))
        trajectory = random_waypoint_trajectory(data_space(), steps=20, step_length=50.0)
        with service.open_session(trajectory[0], k=5, rho=1.6) as session:
            for position in trajectory[1:]:
                response = session.update(position)
            assert len(response.knn) == 5
            assert session.stats.timestamps == 21
            assert session.communication.messages >= 2
        assert session.closed

    def test_processor_layer_still_works_directly(self):
        """The pre-service surface stays importable and functional."""
        from repro import (
            INSProcessor,
            MovingKNNServer,
            random_waypoint_trajectory,
            run_methods,
            uniform_points,
        )
        from repro.workloads.datasets import data_space

        points = uniform_points(100, seed=1)
        trajectory = random_waypoint_trajectory(data_space(), steps=20, step_length=50.0)
        processor = INSProcessor(VoRTree(points), k=5, rho=1.6)
        processor.initialize(trajectory[0])
        for position in trajectory[1:]:
            processor.update(position)
        assert processor.stats.timestamps == 21
        assert processor.stats.full_recomputations >= 1
        run = run_methods(MovingKNNServer(points), trajectory, {"INS": ("knn", 5, 1.6)})["INS"]
        assert len(run["answers"]) == 21
        assert run["full_recomputations"] == processor.stats.full_recomputations

    def test_no_front_door_takes_an_rtree_capacity(self):
        """The VoR-tree keeps no R-tree, so ``max_entries`` went everywhere."""
        for entry in (
            repro.VoRTree,
            repro.MovingKNNServer,
            repro.open_service,
            repro.open_durable_service,
        ):
            assert "max_entries" not in inspect.signature(entry).parameters, entry

    def test_no_front_door_takes_an_invalidation_mode(self):
        """Every session settles each epoch's delta by the one lazy rule; the
        mode that refreshed every session on every epoch went everywhere."""
        for entry in (
            repro.ServingEngine,
            repro.MovingKNNServer,
            repro.MovingRoadKNNServer,
            repro.open_service,
            repro.open_durable_service,
        ):
            assert "invalidation" not in inspect.signature(entry).parameters, entry
        assert not hasattr(repro.ServingEngine, "INVALIDATION_MODES")

    def test_the_baselines_take_no_index_knobs(self):
        """A baseline is handed the live VoR-tree, clipped (order-k) to the
        box around it; the k-d tree, the grid and the R-tree went."""
        for baseline in (
            repro.NaiveProcessor,
            repro.VStarProcessor,
            repro.OrderKRegionProcessor,
        ):
            parameters = inspect.signature(baseline).parameters
            assert list(parameters)[:2] == ["vortree", "k"]
            assert not {"rtree", "tree", "bounding_box"} & set(parameters)
        assert not {"KDTree", "GridIndex", "RTree", "RTreeEntry"} & set(repro.__all__)
        assert not {"RTree", "RTreeEntry"} & set(repro.index.__all__)

    def test_the_influential_set_reference_left_the_package(self):
        """IS, MIS and INS over bare points are the tests' reference now
        (``tests/influential_reference.py``); the indexes answer I(R)."""
        import repro.core

        gone = {
            "influential_neighbor_set",
            "minimal_influential_set",
            "is_closer_set",
            "verify_influential_set",
        }
        assert not gone & (set(repro.__all__) | set(repro.core.__all__))
        with pytest.raises(ImportError):
            import repro.core.influential  # noqa: F401

    def test_key_classes_are_exported(self):
        assert repro.INSProcessor.__name__ == "INSProcessor"
        assert repro.INSRoadProcessor.__name__ == "INSRoadProcessor"
        assert repro.VoRTree.__name__ == "VoRTree"
        assert repro.NetworkVoronoiDiagram.__name__ == "NetworkVoronoiDiagram"
        assert repro.KNNService.__name__ == "KNNService"
        assert repro.Session.__name__ == "Session"
