"""Tests for checkpointing, graph analysis, and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import RMPI, RMPIConfig
from repro.kg import KnowledgeGraph
from repro.kg.analysis import (
    characterise,
    connectivity_summary,
    degree_statistics,
    density,
    relation_frequencies,
    to_networkx,
)
from repro.train import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointMismatchError,
    checkpoint_metadata,
    load_checkpoint,
    migrate_state_dict,
    resolve_checkpoint_path,
    save_checkpoint,
)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        other = RMPI(family_graph.num_relations, np.random.default_rng(99))
        load_checkpoint(other, path)
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), other.named_parameters()
        ):
            assert n1 == n2 and np.allclose(p1.data, p2.data)

    def test_roundtrip_preserves_scores(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        model.eval()
        before = model.score_triples(family_graph, [(0, 0, 1)])
        path = str(tmp_path / "model")
        save_checkpoint(model, path)
        clone = RMPI(family_graph.num_relations, np.random.default_rng(7))
        load_checkpoint(clone, path)  # extension-less path resolves to .npz
        clone.eval()
        after = clone.score_triples(family_graph, [(0, 0, 1)])
        assert before == pytest.approx(after)

    def test_architecture_mismatch_raises(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        other = RMPI(
            family_graph.num_relations,
            np.random.default_rng(0),
            RMPIConfig(use_disclosing=True),
        )
        with pytest.raises(KeyError):
            load_checkpoint(other, path)


class TestCheckpointMetadata:
    def test_meta_entry_written(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "model"))
        assert path.endswith(".npz")  # actual file written is returned
        meta = checkpoint_metadata(path)
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert meta["model_class"] == "RMPI"
        assert meta["num_parameters"] == model.num_parameters()

    def test_extra_meta_roundtrips_through_load(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = save_checkpoint(
            model, str(tmp_path / "model"), extra_meta={"benchmark": "family"}
        )
        clone = RMPI(family_graph.num_relations, np.random.default_rng(1))
        meta = load_checkpoint(clone, path)
        assert meta["benchmark"] == "family"

    def test_mismatch_error_is_clear_and_a_keyerror(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "model.npz"))
        other = RMPI(
            family_graph.num_relations,
            np.random.default_rng(0),
            RMPIConfig(use_disclosing=True),
        )
        with pytest.raises(CheckpointMismatchError) as excinfo:
            load_checkpoint(other, path)
        message = str(excinfo.value)
        assert "architecture mismatch" in message and "RMPI" in message
        assert isinstance(excinfo.value, KeyError)  # backwards compatible

    def test_wrong_model_class_rejected(self, tmp_path, family_graph):
        from repro.baselines import GraIL

        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = save_checkpoint(model, str(tmp_path / "model"))
        grail = GraIL(family_graph.num_relations, np.random.default_rng(0))
        with pytest.raises(CheckpointMismatchError) as excinfo:
            load_checkpoint(grail, path)
        assert "'RMPI'" in str(excinfo.value) and "'GraIL'" in str(excinfo.value)

    def test_newer_format_version_rejected(self, tmp_path, family_graph):
        import json

        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        state = model.state_dict()
        path = str(tmp_path / "future.npz")
        meta = {"format_version": CHECKPOINT_FORMAT_VERSION + 1, "model_class": "RMPI"}
        np.savez(path, **state, **{"__meta__": np.asarray(json.dumps(meta))})
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(model, path)

    def test_legacy_checkpoint_without_meta_loads(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **model.state_dict())  # pre-metadata layout
        clone = RMPI(family_graph.num_relations, np.random.default_rng(1))
        assert load_checkpoint(clone, path) == {}
        assert clone.score_triples(family_graph, [(0, 0, 1)]) == pytest.approx(
            model.score_triples(family_graph, [(0, 0, 1)])
        )


def _legacy_typed_weights_layout(state: dict) -> dict:
    """Rewrite a current RMPI state dict into the PR-2-era layout: one
    ``(dim, dim)`` array per connection-pattern type instead of the stacked
    ``(T, dim, dim)`` layer parameter."""
    legacy = {}
    for name, value in state.items():
        if name.startswith("layers.items[") and name.endswith("].weight"):
            prefix = name[: -len(".weight")]
            for i in range(value.shape[0]):
                legacy[f"{prefix}.type_weights[{i}]"] = value[i]
        else:
            legacy[name] = value
    return legacy


class TestLegacyTypedWeightsMigration:
    """PR-2-era checkpoints stored per-type W_e{i} parameters; loading must
    stack them into the fused typed-linear parameter transparently."""

    def _save_legacy_checkpoint(self, model, path):
        import json

        state = _legacy_typed_weights_layout(model.state_dict())
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "model_class": type(model).__name__,
            "num_parameters": int(model.num_parameters()),
        }
        np.savez(path, **state, **{"__meta__": np.asarray(json.dumps(meta))})
        return path

    def test_legacy_layout_loads_and_preserves_scores(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        model.eval()
        expected = model.score_triples(family_graph, [(0, 0, 1), (2, 1, 0)])
        path = self._save_legacy_checkpoint(model, str(tmp_path / "legacy.npz"))

        clone = RMPI(family_graph.num_relations, np.random.default_rng(42))
        load_checkpoint(clone, path)
        clone.eval()
        np.testing.assert_array_equal(
            clone.score_triples(family_graph, [(0, 0, 1), (2, 1, 0)]), expected
        )

    def test_migrate_state_dict_stacks_in_index_order(self, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        legacy = _legacy_typed_weights_layout(model.state_dict())
        migrated = migrate_state_dict(legacy, model)
        for name, param in model.named_parameters():
            assert name in migrated
            np.testing.assert_array_equal(migrated[name], param.data)

    def test_per_type_parameter_models_untouched(self, family_graph):
        from repro.baselines import TACT

        tact = TACT(family_graph.num_relations, np.random.default_rng(0))
        state = tact.state_dict()
        migrated = migrate_state_dict(dict(state), tact)
        assert set(migrated) == set(state)
        tact.load_state_dict(migrated)  # still loads cleanly

    def test_incomplete_group_left_for_mismatch_error(self, tmp_path, family_graph):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        legacy = _legacy_typed_weights_layout(model.state_dict())
        dropped = next(k for k in legacy if ".type_weights[0]" in k)
        del legacy[dropped]
        prefix = dropped.split(".type_weights[")[0]
        migrated = migrate_state_dict(legacy, model)
        # The non-contiguous group is not stacked; load_state_dict then
        # reports the mismatch instead of silently mis-ordering slices.
        assert f"{prefix}.weight" not in migrated
        with pytest.raises(KeyError):
            model.load_state_dict(migrated)


class TestCheckpointPathResolution:
    def test_existing_extensionless_file_wins_over_npz_sibling(
        self, tmp_path, family_graph
    ):
        """An extensionless checkpoint is never shadowed by an unrelated
        ``.npz`` sibling at the same stem."""
        wanted = RMPI(family_graph.num_relations, np.random.default_rng(0))
        wanted.eval()
        expected = wanted.score_triples(family_graph, [(0, 0, 1)])
        import os

        written = save_checkpoint(wanted, str(tmp_path / "tmp-store"))
        os.rename(written, str(tmp_path / "model"))  # extensionless checkpoint
        unrelated = RMPI(family_graph.num_relations, np.random.default_rng(99))
        save_checkpoint(unrelated, str(tmp_path / "model.npz"))  # sibling

        assert resolve_checkpoint_path(str(tmp_path / "model")) == str(
            tmp_path / "model"
        )
        clone = RMPI(family_graph.num_relations, np.random.default_rng(5))
        load_checkpoint(clone, str(tmp_path / "model"))
        clone.eval()
        assert clone.score_triples(family_graph, [(0, 0, 1)]) == pytest.approx(expected)

    def test_npz_suffix_appended_when_extensionless_missing(
        self, tmp_path, family_graph
    ):
        model = RMPI(family_graph.num_relations, np.random.default_rng(0))
        save_checkpoint(model, str(tmp_path / "model"))  # writes model.npz
        assert resolve_checkpoint_path(str(tmp_path / "model")) == str(
            tmp_path / "model.npz"
        )
        clone = RMPI(family_graph.num_relations, np.random.default_rng(5))
        load_checkpoint(clone, str(tmp_path / "model"))

    def test_missing_checkpoint_names_all_candidates(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            resolve_checkpoint_path(str(tmp_path / "nope"))
        message = str(excinfo.value)
        assert "nope" in message and "nope.npz" in message


class TestAnalysis:
    def test_degree_statistics(self, family_graph):
        stats = degree_statistics(family_graph)
        assert stats["max"] >= stats["mean"] >= 1.0

    def test_empty_graph(self):
        g = KnowledgeGraph.from_triples([])
        assert degree_statistics(g) == {"mean": 0.0, "median": 0.0, "max": 0.0}
        assert density(g) == 0.0
        assert connectivity_summary(g)["components"] == 0

    def test_relation_frequencies(self, family_graph):
        freqs = relation_frequencies(family_graph)
        assert freqs[3] == 2  # father_of occurs twice
        assert sum(freqs.values()) == len(family_graph.triples)

    def test_to_networkx(self, family_graph):
        g = to_networkx(family_graph)
        assert g.number_of_edges() == len(family_graph.triples)

    def test_connectivity(self, family_graph):
        summary = connectivity_summary(family_graph)
        assert summary["components"] == 1.0
        assert summary["largest_fraction"] == 1.0

    def test_characterise_keys(self, family_graph):
        summary = characterise(family_graph)
        assert {"density", "degree_mean", "components", "relations_present"} <= set(summary)


class TestCLI:
    def test_models(self, capsys):
        assert cli_main(["models"]) == 0
        out = capsys.readouterr().out
        assert "RMPI-NE-TA" in out and "GraIL" in out

    def test_stats(self, capsys):
        assert cli_main(["stats", "--family", "WN18RR", "--version", "1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "WN18RR.v1" in out and "density" in out

    def test_run(self, capsys):
        code = cli_main(
            [
                "run",
                "--family",
                "NELL-995",
                "--version",
                "1",
                "--model",
                "TACT-base",
                "--epochs",
                "1",
                "--max-triples",
                "15",
                "--scale",
                "0.05",
                "--negatives",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AUC-PR" in out and "Hits@10" in out

    def test_full(self, capsys):
        code = cli_main(
            [
                "full",
                "--family",
                "NELL-995",
                "--train-version",
                "1",
                "--test-version",
                "3",
                "--setting",
                "fully",
                "--model",
                "TACT-base",
                "--epochs",
                "1",
                "--max-triples",
                "15",
                "--scale",
                "0.05",
            ]
        )
        assert code == 0
        assert "fully" in capsys.readouterr().out

    def test_serve_dry_run(self, capsys):
        code = cli_main(["serve", "--dry-run", "--scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "RMPI-base" in out
        assert "max_batch_size=64" in out and "untrained" in out

    def test_serve_dry_run_honours_knobs(self, capsys):
        code = cli_main(
            [
                "serve",
                "--dry-run",
                "--scale",
                "0.05",
                "--model",
                "GraIL",
                "--max-batch-size",
                "16",
                "--max-wait-ms",
                "5",
                "--no-fused",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GraIL" in out and "max_batch_size=16" in out
        assert "fused scoring: False" in out

    def test_serve_dry_run_from_checkpoint(self, tmp_path, capsys):
        from repro.experiments import make_model
        from repro.kg import build_partial_benchmark
        from repro.train import save_checkpoint

        benchmark = build_partial_benchmark("NELL-995", 1, 0.05, 0)
        model = make_model("RMPI-base", benchmark.num_relations, seed=0)
        path = save_checkpoint(model, str(tmp_path / "served"))
        code = cli_main(
            ["serve", "--dry-run", "--scale", "0.05", "--checkpoint", path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out and path in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["bogus"])

    @pytest.mark.parametrize("command", ("run", "full"))
    def test_non_positive_workers_rejected(self, command):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            cli_main([command, "--workers", "-3"])
