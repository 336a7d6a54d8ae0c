"""Tests for the repro-kron command-line interface."""

import json

import numpy as np
import pytest

from repro import cli
from repro.graphs import load_kronecker_bundle, read_edge_list


@pytest.fixture
def bundle_path(tmp_path):
    """A small generated bundle shared by the read-only sub-command tests."""
    path = tmp_path / "bundle.npz"
    rc = cli.main([
        "generate", str(path),
        "--factor-a", "weblike", "--size-a", "80",
        "--factor-b", "tpa", "--size-b", "30",
        "--seed", "5",
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_generate_writes_bundle(self, bundle_path):
        factor_a, factor_b, meta = load_kronecker_bundle(bundle_path)
        assert factor_a.n_vertices == 80
        assert factor_b.n_vertices == 30
        assert meta["cli"] == "generate"

    def test_generate_self_loops_flag(self, tmp_path):
        path = tmp_path / "looped.npz"
        rc = cli.main([
            "generate", str(path),
            "--factor-a", "clique", "--size-a", "5",
            "--factor-b", "clique", "--size-b", "4",
            "--self-loops-b",
        ])
        assert rc == 0
        _, factor_b, _ = load_kronecker_bundle(path)
        assert factor_b.n_self_loops == 4

    @pytest.mark.parametrize("recipe", ["ba", "er", "hub-cycle", "looped-clique"])
    def test_all_recipes(self, tmp_path, recipe):
        path = tmp_path / f"{recipe}.npz"
        rc = cli.main([
            "generate", str(path),
            "--factor-a", recipe, "--size-a", "20",
            "--factor-b", "clique", "--size-b", "4",
        ])
        assert rc == 0
        assert path.exists()

    def test_generate_output_mentions_product(self, tmp_path, capsys):
        path = tmp_path / "b.npz"
        cli.main(["generate", str(path), "--size-a", "30", "--size-b", "20"])
        out = capsys.readouterr().out
        assert "product:" in out
        assert "vertices" in out


class TestStats:
    def test_stats_prints_table(self, bundle_path, capsys):
        rc = cli.main(["stats", str(bundle_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Matrix" in out
        assert "A ⊗ B" in out
        assert "clustering" in out


class TestValidate:
    def test_egonet_validation_passes(self, bundle_path, capsys):
        rc = cli.main(["validate", str(bundle_path), "--egonets", "4", "--seed", "1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_full_validation_passes(self, bundle_path, capsys):
        rc = cli.main(["validate", str(bundle_path), "--egonets", "2", "--full"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "undirected_product" in out


class TestStream:
    def test_stream_writes_edges(self, bundle_path, tmp_path):
        out_path = tmp_path / "edges.tsv"
        rc = cli.main(["stream", str(bundle_path), str(out_path), "--max-edges", "500"])
        assert rc == 0
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 500

    def test_stream_full_product(self, tmp_path):
        bundle = tmp_path / "tiny.npz"
        cli.main(["generate", str(bundle), "--factor-a", "clique", "--size-a", "4",
                  "--factor-b", "clique", "--size-b", "3"])
        out_path = tmp_path / "edges.tsv"
        rc = cli.main(["stream", str(bundle), str(out_path)])
        assert rc == 0
        factor_a, factor_b, _ = load_kronecker_bundle(bundle)
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == factor_a.nnz * factor_b.nnz

    def test_stream_default_is_npy_shards(self, bundle_path, tmp_path):
        """A non-.tsv output spills binary shards with a manifest by default."""
        from repro.graphs import load_edge_shards, read_shard_manifest

        out_dir = tmp_path / "shards"
        rc = cli.main(["stream", str(bundle_path), str(out_dir)])
        assert rc == 0
        factor_a, factor_b, _ = load_kronecker_bundle(bundle_path)
        manifest = read_shard_manifest(out_dir)
        assert manifest["total_edges"] == factor_a.nnz * factor_b.nnz
        assert load_edge_shards(out_dir).shape == (manifest["total_edges"], 2)

    def test_stream_explicit_tsv_format(self, bundle_path, tmp_path):
        out_path = tmp_path / "edges.dat"
        rc = cli.main(["stream", str(bundle_path), str(out_path),
                       "--format", "tsv", "--max-edges", "40"])
        assert rc == 0
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 40

    def test_stream_ranks_pipeline_validates(self, bundle_path, tmp_path, capsys):
        from repro.graphs import read_shard_manifest

        out_dir = tmp_path / "rank-shards"
        rc = cli.main(["stream", str(bundle_path), str(out_dir),
                       "--ranks", "3", "--block", "16"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert "peak block" in captured
        factor_a, factor_b, _ = load_kronecker_bundle(bundle_path)
        manifest = read_shard_manifest(out_dir)
        assert manifest["total_edges"] == factor_a.nnz * factor_b.nnz

    def test_stream_ranks_rejects_tsv(self, bundle_path, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["stream", str(bundle_path), str(tmp_path / "out.tsv"),
                      "--ranks", "2"])

    def test_stream_ranks_rejects_max_edges(self, bundle_path, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["stream", str(bundle_path), str(tmp_path / "d"),
                      "--ranks", "2", "--max-edges", "10"])

    def test_generate_stream_spills_shards(self, tmp_path):
        from repro.graphs import read_shard_manifest

        bundle = tmp_path / "tiny.npz"
        shards = tmp_path / "spill"
        rc = cli.main(["generate", str(bundle), "--factor-a", "clique",
                       "--size-a", "4", "--factor-b", "clique", "--size-b", "3",
                       "--stream", str(shards)])
        assert rc == 0
        factor_a, factor_b, _ = load_kronecker_bundle(bundle)
        manifest = read_shard_manifest(shards)
        assert manifest["total_edges"] == factor_a.nnz * factor_b.nnz


class TestCompactAndQuery:
    @pytest.fixture
    def store_dir(self, bundle_path, tmp_path):
        """Spill → compact, through the CLI only."""
        spill = tmp_path / "spill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--ranks", "3", "--block", "16"])
        assert rc == 0
        store = tmp_path / "store"
        rc = cli.main(["compact", str(spill), str(store),
                       "--target-edges", "2000"])
        assert rc == 0
        return store

    def test_serve_rejects_an_empty_pool_or_cache(self, store_dir, capsys):
        """``serve`` names the bad flag before it opens anything, for a
        single server and for a fleet's workers alike — never a traceback
        from the store.  It has no decode pool to size: ``--threads`` is
        an unknown option."""
        for flags, message in ((["--cache", "0"], "--cache"),
                               (["--fleet", "2", "--cache", "0"], "--cache")):
            with pytest.raises(SystemExit, match=message):
                cli.main(["serve", str(store_dir), "--port", "0", *flags])
        for flags in (["--threads", "1"], ["--fleet", "2", "--threads", "1"]):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["serve", str(store_dir), "--port", "0", *flags])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --threads 1" in \
                capsys.readouterr().err

    def test_unservable_store_exits_naming_the_store(self, bundle_path,
                                                      tmp_path,
                                                      downgrade_to_v1):
        """A missing directory or manifest, a manifest the validator
        rejects, and a spill of an earlier release (manifest v1) exit with
        one line naming the store and the reason, for ``serve`` (single
        and fleet) and ``query`` alike — never a traceback."""
        no_manifest = tmp_path / "no-manifest"
        no_manifest.mkdir()
        bad_manifest = tmp_path / "bad-manifest"
        bad_manifest.mkdir()
        (bad_manifest / "manifest.json").write_text('{"kind": "edge-shards"}')
        spill = tmp_path / "spill"
        assert cli.main(["stream", str(bundle_path), str(spill),
                         "--ranks", "2"]) == 0
        downgrade_to_v1(spill)
        for store, reason in ((tmp_path / "missing", "manifest.json"),
                              (no_manifest, "manifest.json"),
                              (bad_manifest, "missing required field"),
                              (spill, "format_version 1")):
            for argv in (["serve", str(store), "--port", "0"],
                         ["serve", str(store), "--port", "0", "--fleet", "2"],
                         ["query", str(store), "--degree", "1"]):
                with pytest.raises(SystemExit) as exited:
                    cli.main(argv)
                message = str(exited.value.code)
                assert message.startswith(f"cannot open store {store}: ")
                assert reason in message
                assert "\n" not in message

    def test_compact_writes_manifest_v2(self, store_dir, tmp_path, capsys):
        from repro.graphs import read_shard_manifest

        manifest = read_shard_manifest(store_dir)
        assert manifest["format_version"] == 2
        assert manifest["sorted_by"] == "source"
        # Re-shard through the CLI again to check the reported summary.
        rc = cli.main(["compact", str(store_dir), str(tmp_path / "again"),
                       "--target-edges", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source-sorted shards" in out
        assert "manifest v2" in out

    def test_query_degree_matches_product(self, store_dir, bundle_path, capsys):
        from repro.core import KroneckerGraph

        factor_a, factor_b, _ = load_kronecker_bundle(bundle_path)
        product = KroneckerGraph(factor_a, factor_b)
        rc = cli.main(["query", str(store_dir), "--degree", "17"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"degree(17) = {product.degree(17)}" in out
        assert "decoded" in out

    def test_query_neighbors(self, store_dir, capsys):
        rc = cli.main(["query", str(store_dir), "--neighbors", "17",
                       "--limit", "4"])
        assert rc == 0
        assert "neighbors(17)" in capsys.readouterr().out

    def test_query_egonet(self, store_dir, capsys):
        rc = cli.main(["query", str(store_dir), "--egonet", "17"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "egonet(17)" in out
        assert "triangles" in out

    def test_query_range(self, store_dir, capsys):
        rc = cli.main(["query", str(store_dir), "--range", "0", "50",
                       "--limit", "3"])
        assert rc == 0
        assert "edges_in_range(0, 50)" in capsys.readouterr().out

    def test_query_requires_exactly_one_operation(self, store_dir):
        with pytest.raises(SystemExit):
            cli.main(["query", str(store_dir)])
        with pytest.raises(SystemExit):
            cli.main(["query", str(store_dir), "--degree", "1",
                      "--egonet", "2"])

    def test_query_rejects_uncompacted_spill(self, bundle_path, tmp_path,
                                             downgrade_to_v1):
        """A per-block spill of an earlier release (manifest v1, no source
        ranges) is not queried: the exit names its version and says to
        re-stream."""
        spill = tmp_path / "spill"
        cli.main(["stream", str(bundle_path), str(spill), "--ranks", "2"])
        downgrade_to_v1(spill)
        with pytest.raises(SystemExit, match="format_version 1.*re-stream"):
            cli.main(["query", str(spill), "--degree", "0"])


class TestPayloadCli:
    @pytest.fixture
    def payload_store_dir(self, bundle_path, tmp_path):
        """stream --payload → compact, through the CLI only."""
        spill = tmp_path / "pspill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--ranks", "3", "--block", "16",
                       "--payload", "triangles,trussness"])
        assert rc == 0
        store = tmp_path / "pstore"
        rc = cli.main(["compact", str(spill), str(store),
                       "--target-edges", "2000"])
        assert rc == 0
        return store

    def test_stream_payload_records_columns(self, bundle_path, tmp_path, capsys):
        from repro.graphs import load_edge_shards, read_shard_manifest

        spill = tmp_path / "spill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--ranks", "3", "--block", "16",
                       "--payload", "triangles,trussness"])
        assert rc == 0
        assert "payload columns: triangles, trussness" in capsys.readouterr().out
        manifest = read_shard_manifest(spill)
        assert manifest["payload_columns"] == ["src", "dst",
                                               "triangles", "trussness"]
        assert load_edge_shards(spill).shape[1] == 4

    def test_stream_payload_single_rank(self, bundle_path, tmp_path):
        from repro.core import KroneckerTriangleStats
        from repro.graphs import load_edge_shards

        spill = tmp_path / "spill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--block", "64", "--payload", "triangles"])
        assert rc == 0
        rows = load_edge_shards(spill)
        factor_a, factor_b, _ = load_kronecker_bundle(bundle_path)
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        assert np.array_equal(rows[:, 2],
                              stats.edge_values(rows[:, 0], rows[:, 1]))

    def test_stream_payload_without_ranks_runs_one_rank(self, bundle_path,
                                                        tmp_path, capsys):
        """Without --ranks a payload spill runs the rank pipeline on one
        rank, validating the run; flag errors leave the spill intact."""
        from repro.graphs import read_shard_manifest

        spill = tmp_path / "spill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--payload", "trussness"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "over 1 rank(s)" in out and "PASS" in out
        before = read_shard_manifest(spill)
        assert before["payload_columns"] == ["src", "dst", "trussness"]
        with pytest.raises(SystemExit, match="--max-edges"):
            cli.main(["stream", str(bundle_path), str(spill),
                      "--payload", "triangles", "--max-edges", "10"])
        with pytest.raises(SystemExit, match="pagerank"):
            cli.main(["stream", str(bundle_path), str(spill),
                      "--payload", "pagerank"])
        assert read_shard_manifest(spill) == before

    def test_stream_payload_rejects_tsv(self, bundle_path, tmp_path):
        with pytest.raises(SystemExit, match="shard format"):
            cli.main(["stream", str(bundle_path), str(tmp_path / "out.tsv"),
                      "--payload", "triangles"])

    def test_unknown_payload_name_preserves_existing_spill(self, bundle_path,
                                                           tmp_path):
        """A typo'd --payload must fail before the sink clears the output
        directory — an earlier spill stays intact and readable."""
        from repro.graphs import read_shard_manifest

        spill = tmp_path / "spill"
        rc = cli.main(["stream", str(bundle_path), str(spill),
                       "--ranks", "2", "--payload", "triangles"])
        assert rc == 0
        before = read_shard_manifest(spill)
        with pytest.raises(SystemExit, match="pagerank"):
            cli.main(["stream", str(bundle_path), str(spill),
                      "--ranks", "2", "--payload", "pagerank"])
        assert read_shard_manifest(spill) == before
        assert len(list(spill.glob("*.npy"))) == len(before["shards"])

    def test_query_payload_neighbors_and_egonet(self, payload_store_dir, capsys):
        rc = cli.main(["query", str(payload_store_dir), "--neighbors", "17",
                       "--payload", "--limit", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "triangles=" in out and "trussness=" in out
        rc = cli.main(["query", str(payload_store_dir), "--egonet", "17",
                       "--payload"])
        assert rc == 0
        assert "trussness total" in capsys.readouterr().out

    def test_query_json_output_parses(self, payload_store_dir, bundle_path,
                                      capsys):
        import json

        from repro.core import KroneckerGraph, KroneckerTriangleStats

        rc = cli.main(["query", str(payload_store_dir), "--range", "0", "40",
                       "--payload", "--json", "--limit", "5"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["query"] == "edges_in_range"
        assert result["columns"] == ["src", "dst", "triangles", "trussness"]
        assert len(result["edges"]) == min(5, result["n_edges"])
        factor_a, factor_b, _ = load_kronecker_bundle(bundle_path)
        stats = KroneckerTriangleStats.from_factors(factor_a, factor_b)
        for src, dst, triangles, _trussness in result["edges"]:
            assert triangles == int(stats.edge_value(src, dst))
        assert result["store"]["payload_columns"] == ["triangles", "trussness"]

        product = KroneckerGraph(factor_a, factor_b)
        rc = cli.main(["query", str(payload_store_dir), "--degree", "17",
                       "--json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["degree"] == product.degree(17)

    def test_query_payload_requires_payload_store(self, bundle_path, tmp_path):
        spill = tmp_path / "spill"
        cli.main(["stream", str(bundle_path), str(spill), "--ranks", "2"])
        store = tmp_path / "store"
        cli.main(["compact", str(spill), str(store)])
        with pytest.raises(SystemExit, match="no payload columns"):
            cli.main(["query", str(store), "--degree", "0", "--payload"])


class TestObservabilityCli:
    """``stats --connect`` (watch loop, Prometheus), ``profile`` and
    ``health`` against a live single-store server."""

    @pytest.fixture(scope="class")
    def served_store(self, tmp_path_factory):
        bundle = tmp_path_factory.mktemp("obs-cli") / "bundle.npz"
        assert cli.main(["generate", str(bundle),
                         "--factor-a", "weblike", "--size-a", "40",
                         "--factor-b", "tpa", "--size-b", "15",
                         "--seed", "5"]) == 0
        spill = bundle.parent / "spill"
        assert cli.main(["stream", str(bundle), str(spill),
                         "--ranks", "2", "--block", "16"]) == 0
        store = bundle.parent / "store"
        assert cli.main(["compact", str(spill), str(store),
                         "--target-edges", "2000"]) == 0
        return store

    @pytest.fixture(scope="class")
    def server(self, served_store):
        from repro.serve import ThreadedServer

        # slow_query_us=0 flags every request, so the flight recorder is
        # never empty — the watch pane has something to show.
        with ThreadedServer(served_store, slow_query_us=0) as handle:
            yield handle

    @pytest.fixture
    def address(self, server):
        return f"{server.host}:{server.port}"

    def test_stats_prometheus_renders_registry(self, address, capsys):
        assert cli.main(["stats", "--connect", address,
                         "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# HELP" in out and "# TYPE" in out
        assert 'le="+Inf"' in out  # cumulative histogram tail

    def test_stats_watch_loop_prints_events_pane(self, address, capsys,
                                                 monkeypatch):
        # One full refresh, then the fake sleep delivers the ctrl-C.
        monkeypatch.setattr(cli.time, "sleep",
                            lambda _s: (_ for _ in ()).throw(
                                KeyboardInterrupt))
        assert cli.main(["stats", "--connect", address,
                         "--watch", "0.1"]) == 0
        out = capsys.readouterr().out
        assert '"query": "stats"' in out
        assert "recent events:" in out
        assert "serve.slow_request" in out

    def test_profile_command_prints_role_ranking(self, address, capsys):
        assert cli.main(["profile", "--connect", address,
                         "--seconds", "0.3", "--hz", "300"]) == 0
        out = capsys.readouterr().out
        assert f"300 Hz x 0.3 s on {address}:" in out
        assert "event_loop" in out

    def test_profile_collapsed_emits_folded_stacks(self, address, capsys):
        assert cli.main(["profile", "--connect", address,
                         "--seconds", "0.3", "--hz", "300",
                         "--collapsed"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert ";" in stack and int(count) > 0

    def test_profile_rejects_nonpositive_window(self, address):
        with pytest.raises(SystemExit, match="--seconds"):
            cli.main(["profile", "--connect", address, "--seconds", "0"])

    def test_health_command_reports_ok(self, address, capsys):
        assert cli.main(["health", "--connect", address]) == 0
        out = capsys.readouterr().out
        assert f"{address}: ok" in out
        assert "profiler:" in out and "events:" in out

    def test_health_json_round_trips(self, address, capsys):
        assert cli.main(["health", "--connect", address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == "health"
        assert payload["status"] == "ok"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_recipe_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["generate", str(tmp_path / "x.npz"), "--factor-a", "nonsense"])

    def test_build_parser_prog_name(self):
        assert cli.build_parser().prog == "repro-kron"


class TestStreamFlagValidation:
    def test_processes_requires_ranks(self, bundle_path, tmp_path):
        with pytest.raises(SystemExit, match="--ranks"):
            cli.main(["stream", str(bundle_path), str(tmp_path / "d"),
                      "--processes"])
