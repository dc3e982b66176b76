"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_compare_plane(self, capsys):
        exit_code = main(["compare", "--space", "plane", "--n", "200", "--steps", "30"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "INS" in captured.out
        assert "Naive" in captured.out
        assert "recomputations" in captured.out

    def test_compare_road(self, capsys):
        exit_code = main(["compare", "--space", "road", "--k", "3", "--steps", "30"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "INS-road" in captured.out

    def test_compare_road_honours_n(self, capsys):
        exit_code = main(
            ["compare", "--space", "road", "--n", "30", "--k", "3", "--steps", "20"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "comparison on grid12x12-n30-k3" in captured.out

    def test_compare_claims_no_correctness_without_an_oracle(self, capsys):
        exit_code = main(["compare", "--space", "plane", "--n", "200", "--steps", "20"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "correct" not in captured.out

    def test_demo_plane(self, capsys):
        exit_code = main(["demo-plane", "--frames", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "kNN" in captured.out
        assert "legend" in captured.out

    def test_demo_road(self, capsys):
        exit_code = main(["demo-road", "--k", "3", "--frames", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "legend" in captured.out

    def test_serve_euclidean_checked(self, capsys):
        exit_code = main(
            [
                "serve", "--queries", "4", "--n", "150", "--steps", "10", "--check",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "communication bill" in captured.out
        assert "all answers correct" in captured.out

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["serve", "--workers", "2"], "unrecognized arguments"),
            (["serve", "--transport", "process"], "invalid choice: 'process'"),
            (["serve", "--replication", "delta"], "unrecognized arguments"),
            (["serve", "--invalidation", "flag"], "unrecognized arguments"),
            (["roll"], "invalid choice: 'roll'"),
        ],
        ids=["workers", "process", "replication", "invalidation", "roll"],
    )
    def test_serve_has_no_process_shards(self, capsys, argv, refusal):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert refusal in capsys.readouterr().err

    def test_serve_road(self, capsys):
        exit_code = main(
            ["serve", "--metric", "road", "--queries", "2", "--k", "3", "--steps", "8"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "total    messages" in captured.out

    def test_serve_over_tcp_transport_with_per_session(self, capsys):
        exit_code = main(
            [
                "serve", "--queries", "3", "--n", "150", "--steps", "8",
                "--transport", "tcp", "--per-session",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "transport               : tcp" in captured.out
        assert "total    bytes" in captured.out
        assert "per-session breakdown" in captured.out
        assert "session    0" in captured.out

    def test_serve_durably_then_recover_reports_health(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "state")
        exit_code = main(
            [
                "serve", "--queries", "3", "--n", "150", "--steps", "8",
                "--wal-dir", wal_dir, "--snapshot-every", "20",
            ]
        )
        assert exit_code == 0
        capsys.readouterr()
        exit_code = main(["recover", "--wal-dir", wal_dir])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "verdict                 : recoverable" in captured.out
        assert "snapshots" in captured.out
        assert "write-ahead log" in captured.out

    def test_recover_flags_corruption_and_fails(self, tmp_path, capsys):
        from repro.durability import wal_path
        from fault_injection import flip_byte

        wal_dir = str(tmp_path / "state")
        assert main(
            ["serve", "--queries", "2", "--n", "150", "--steps", "6",
             "--wal-dir", wal_dir]
        ) == 0
        capsys.readouterr()
        # Mangle a record in the middle of the log: unrecoverable.
        flip_byte(wal_path(wal_dir), 40)
        exit_code = main(["recover", "--wal-dir", wal_dir])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "UNRECOVERABLE" in captured.out

    def test_client_against_a_listening_server(self, capsys):
        from repro.service import open_service
        from repro.transport import KNNServer
        from repro.workloads.datasets import uniform_points

        service = open_service(
            metric="euclidean", objects=uniform_points(200, seed=47)
        )
        with KNNServer(service) as server:
            host, port = server.address
            exit_code = main(
                [
                    "client", "--connect", f"{host}:{port}",
                    "--queries", "2", "--steps", "6", "--per-session",
                ]
            )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "server-side communication bill" in captured.out
        assert "codec-predicted match : True" in captured.out
        assert "per-session breakdown" in captured.out


class TestWatchLine:
    def test_retrievals_counts_recomputations_only(self):
        """``insq_retrievals_total`` carries every outcome; the watch line's
        ``retrievals=`` is the recomputed one, what the benchmark reconciles."""
        from repro.cli import _watch_line
        from repro.obs.metrics import RegistrySnapshot

        snapshot = RegistrySnapshot(
            counters=(
                ("insq_retrievals_total", "outcome=recomputed", 3),
                ("insq_retrievals_total", "outcome=validated", 40),
            ),
            gauges=(("insq_engine_epoch", "", 5.0), ("insq_sessions_open", "", 2.0)),
        )
        assert _watch_line(snapshot) == (
            "[watch] epoch=5 sessions=2 retrievals=3 msgs=0 objects=0"
        )
