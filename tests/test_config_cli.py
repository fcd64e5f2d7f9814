import csv
import hashlib
import json
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import studyforge.cli as cli_mod
import studyforge.config as config_mod
import studyforge.journal as journal_mod
import studyforge.reporting as reporting_mod
import studyforge.samplers as samplers_mod
from studyforge.cli import main
from studyforge.config import (
    ExperimentConfig,
    SamplerSpec,
    apply_overrides,
    config_from_mapping,
    config_hash,
    dump_config,
    parse_config,
    serialize_config,
)
from studyforge.errors import ConfigError
from studyforge.journal import Journal, read_records
from studyforge.manifest import LABELS, MANIFEST_HEADER
from studyforge.samplers import MAX_RESOLUTION, grid_enumerate
from studyforge.study import SearchSpace, Study, uniform

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
GRID_YAML = CONFIG_DIR.parent / "perfbench" / "configs" / "grid_sphere.yaml"
# sha256 of the journal `run` writes for GRID_YAML with output_dir=out
GRID_SPHERE_SHA256 = "6b8da7c210485d903af2252ea45c3319d86e5a89879d1791775e68b7f43ae773"

QUADRATIC_YAML = """\
objective: quadratic-1d
seed: 5
output_dir: "{out}"
space:
  x: {{kind: uniform-float, low: 0.0, high: 1.0}}
sampler:
  kind: random
policy:
  n_trials: 4
"""


def write_quadratic_config(tmp_path, **extra):
    out = tmp_path / "out"
    text = QUADRATIC_YAML.format(out=out)
    for line in extra.get("extra_lines", []):
        text += line + "\n"
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path, out


def empty_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    meta = {
        "space": {"x": {"kind": "uniform-float", "low": 0.0, "high": 1.0}},
        "direction": "minimize",
        "seed": 0,
    }
    with Journal(path, meta=meta):
        pass
    return path


class TestParseConfig:
    def test_default_config_file_parses_to_full_space(self):
        config = parse_config((CONFIG_DIR / "default.yaml").read_text())
        assert config.objective == "surrogate"
        assert config.direction == "maximize"
        assert config.space.names == [
            "lr",
            "dropout",
            "batch_size",
            "rotation",
            "scale",
            "shear",
            "translate",
            "hflip",
            "vflip",
        ]
        lr = config.space["lr"]
        assert lr.kind == "log-uniform-float" and (lr.low, lr.high) == (1e-4, 1e-3)
        assert config.space["batch_size"].choices == (8, 16, 32, 64, 128)
        assert config.sampler.kind == "tpe"
        assert config.policy.n_trials == 30
        assert config.pruner is None

    def test_pruner_section_enables_pruning(self):
        config = parse_config(
            "objective: surrogate\n"
            "space:\n  lr: {kind: log-uniform-float, low: 1.0e-4, high: 1.0e-3}\n"
            "pruner: {warmup_steps: 1, min_completed: 2}\n"
        )
        assert config.pruner.warmup_steps == 1
        assert config.pruner.min_completed == 2

    def test_unknown_top_level_key_has_dot_path(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
                "bogus: 1\n"
            )

    def test_unknown_nested_key_has_dot_path(self):
        with pytest.raises(ConfigError, match=r"policy\.jobs"):
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
                "policy: {jobs: 2}\n"
            )

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="objective"):
            parse_config("space:\n  x: {kind: uniform-float, low: 0, high: 1}\n")
        with pytest.raises(ConfigError, match="space"):
            parse_config("objective: quadratic-1d\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("space:\n  x: {kind: uniform-float, low: 0, high: 1}\n", "objective: missing required key"),
            ("objective: quadratic-1d\n", "space: missing required key"),
            (
                "objective: quadratic-1d\nspace:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
                "data: {ratios: [0.7, 0.2, 0.1]}\n",
                "data.manifest: missing required key",
            ),
        ],
    )
    def test_a_missing_required_key_fails_with_its_dot_path(self, text, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == message

    def test_epochs_must_be_positive(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config(
                "objective: surrogate\nepochs: 0\n"
                "space:\n  lr: {kind: log-uniform-float, low: 1.0e-4, high: 1.0e-3}\n"
            )

    def test_integer_fields_reject_strings_and_bools(self):
        base = (
            "objective: quadratic-1d\n"
            "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
        )
        with pytest.raises(ConfigError, match="seed"):
            parse_config(base + "seed: abc\n")
        with pytest.raises(ConfigError, match=r"policy\.n_trials"):
            parse_config(base + "policy: {n_trials: true}\n")

    def test_surrogate_bounds_enforced(self):
        def surrogate(space_body):
            return parse_config("objective: surrogate\nspace:\n" + space_body)

        with pytest.raises(ConfigError, match=r"space\.dropout"):
            surrogate("  dropout: {kind: uniform-float, low: 0.0, high: 0.5}\n")
        with pytest.raises(ConfigError, match=r"space\.scale"):
            surrogate("  scale: {kind: uniform-float, low: 0.0, high: 1.0}\n")
        with pytest.raises(ConfigError, match=r"space\.lr"):
            surrogate("  lr: {kind: uniform-float, low: 0.0, high: 1.0e-3}\n")
        with pytest.raises(ConfigError, match=r"space\.batch_size"):
            surrogate("  batch_size: {kind: uniform-float, low: 8, high: 128}\n")
        with pytest.raises(ConfigError, match=r"space\.momentum"):
            surrogate("  momentum: {kind: uniform-float, low: 0.0, high: 1.0}\n")
        # every choice a sampler can draw is held to the same rules as a range
        with pytest.raises(ConfigError, match=r"space\.lr: lr must be positive"):
            surrogate("  lr: {kind: choice, choices: [1.0e-3, -0.001]}\n")
        with pytest.raises(ConfigError, match=r"space\.dropout: bounds"):
            surrogate("  dropout: {kind: choice, choices: [0.0, 0.5]}\n")
        with pytest.raises(ConfigError, match=r"space\.rotation: bounds"):
            surrogate("  rotation: {kind: int-categorical, choices: [0, 400]}\n")
        with pytest.raises(ConfigError, match=r"space\.scale: scale upper bound"):
            surrogate("  scale: {kind: choice, choices: [0.0, 1.0]}\n")
        for choices in ("[0.1, fast]", "[true]", "[null]"):
            with pytest.raises(ConfigError, match=r"space\.translate: translate choices must be"):
                surrogate(f"  translate: {{kind: choice, choices: {choices}}}\n")
        with pytest.raises(ConfigError, match=r"space\.lr: lr choices must be numbers"):
            surrogate("  lr: {kind: boolean}\n")
        # flips are read as booleans, so only a choice of booleans suits them
        for spec in (
            "{kind: uniform-float, low: 0, high: 1}",
            '{kind: choice, choices: ["no", "yes"]}',
            "{kind: int-categorical, choices: [0, 5]}",
            "{kind: choice, choices: [2020-01-01, 2021-01-01]}",
            "{kind: choice, choices: [false, 1]}",
        ):
            with pytest.raises(
                ConfigError, match=r"^space\.hflip: hflip choices must be booleans$"
            ):
                surrogate(f"  hflip: {spec}\n")
        with pytest.raises(ConfigError, match=r"^space\.vflip: vflip choices must be booleans$"):
            surrogate("  vflip: {kind: choice, choices: [0, 1]}\n")
        for spec in ("{kind: boolean}", "{kind: choice, choices: [false, true]}"):
            assert surrogate(f"  vflip: {spec}\n").space["vflip"].choices == (False, True)
        config = surrogate(
            "  lr: {kind: choice, choices: [1.0e-4, 1.0e-3]}\n"
            "  dropout: {kind: int-categorical, choices: [0]}\n"
            "  scale: {kind: choice, choices: [0.0, 0.3]}\n"
            "  hflip: {kind: choice, choices: [true, false]}\n"
        )
        assert config.space["lr"].choices == (1.0e-4, 1.0e-3)

    def test_benchmark_arity_enforced(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n"
                "  x: {kind: uniform-float, low: 0, high: 1}\n"
                "  y: {kind: uniform-float, low: 0, high: 1}\n"
            )
        with pytest.raises(ConfigError, match="exactly two"):
            parse_config(
                "objective: rosenbrock-2d\n"
                "space:\n  x: {kind: uniform-float, low: -2, high: 2}\n"
            )

    def test_benchmark_space_must_be_continuous(self):
        with pytest.raises(ConfigError, match="continuous"):
            parse_config(
                "objective: sphere\n"
                "space:\n  x: {kind: int-categorical, choices: [1, 2]}\n"
            )

    def test_unknown_distribution_kind(self):
        with pytest.raises(ConfigError, match=r"space\.x\.kind"):
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n  x: {kind: gaussian, low: 0, high: 1}\n"
            )

    @pytest.mark.parametrize(
        "objective, space, thresholds, order",
        [
            ("surrogate", "lr: {kind: log-uniform-float, low: 1.0e-4, high: 1.0e-3}",
             "{save_threshold: 0.99, stop_threshold: 0.9}", ">="),
            ("quadratic-1d", "x: {kind: uniform-float, low: 0, high: 1}",
             "{save_threshold: 0.01, stop_threshold: 0.1}", "<="),
        ],
    )
    def test_threshold_order_checked_against_direction(self, objective, space, thresholds, order):
        text = f"objective: {objective}\nspace:\n  {space}\npolicy: {thresholds}\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == f"policy: stop_threshold must be {order} save_threshold"

    def test_data_ratios_validated(self):
        base = (
            "objective: surrogate\n"
            "space:\n  lr: {kind: log-uniform-float, low: 1.0e-4, high: 1.0e-3}\n"
        )
        with pytest.raises(ConfigError, match=r"data\.ratios"):
            parse_config(base + "data: {manifest: m.csv, ratios: [0.5, 0.5]}\n")
        with pytest.raises(ConfigError, match=r"data\.ratios"):
            parse_config(base + "data: {manifest: m.csv, ratios: [0.5, 0.4, 0.2]}\n")
        with pytest.raises(ConfigError, match=r"data\.manifest"):
            parse_config(base + "data: {ratios: [0.7, 0.2, 0.1]}\n")

    def test_exponent_float_without_a_dot_is_a_number(self):
        text = QUADRATIC_YAML.format(out="o").replace("low: 0.0", "low: 1e-4")
        assert parse_config(text).space["x"].low == 0.0001
        quoted = text.replace("low: 1e-4", 'low: "1e-4"')
        with pytest.raises(ConfigError, match="expected a number, got '1e-4'"):
            parse_config(quoted)

    def test_invalid_yaml_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            parse_config("objective: [unclosed\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # PyYAML alone keeps the last value: epochs == 3, without a word
            ("epochs: 20\n{space}epochs: 3\n", "duplicate key 'epochs' at line 5"),
            ('epochs: 20\n{space}"epochs": 3\n', "duplicate key 'epochs' at line 5"),
            ("policy: {{n_trials: 3}}\n{space}policy: {{n_trials: 4}}\n", "duplicate key 'policy' at line 5"),
            ("{space}policy:\n  n_trials: 3\n  n_trials: 4\n", "duplicate key 'n_trials' at line 6"),
            ("space:\n  x: {{kind: uniform-float, low: 0, low: 1, high: 2}}\n", "duplicate key 'low' at line 3"),
        ],
    )
    def test_duplicate_key_is_refused(self, text, message):
        space = "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config("objective: quadratic-1d\n" + text.format(space=space))
        assert str(excinfo.value) == "invalid YAML: " + message

    def test_a_space_bound_at_infinity_is_refused(self):
        text = QUADRATIC_YAML.format(out="o").replace("high: 1.0", "high: .inf")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == "space.x.high: expected a finite number, got inf"

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- a\n- b\n")

    @pytest.mark.parametrize(
        "section, message",
        [
            ("policy: 3", "expected a mapping at policy"),
            ("policy: {n_trials: 1.5}", "policy.n_trials: expected an integer, got 1.5"),
            ("policy: {max_parallel: two}", "policy.max_parallel: expected an integer, got 'two'"),
            ("policy: {save_threshold: high}", "policy.save_threshold: expected a number, got 'high'"),
            ("policy: {bogus: 1}", "policy.bogus: unknown key"),
            ("policy: {max_parallel: 0}", "policy: max_parallel must be >= 1"),
            ("pruner: [1]", "expected a mapping at pruner"),
            ("pruner: {warmup_steps: true}", "pruner.warmup_steps: expected an integer, got True"),
            ("pruner: {bogus: 1}", "pruner.bogus: unknown key"),
            ("pruner: {warmup_steps: -1}", "pruner: warmup_steps must be >= 0"),
            ("pruner: {min_completed: 0}", "pruner: min_completed must be >= 1"),
            ("synthetic: 7", "expected a mapping at synthetic"),
            ("synthetic: {n_per_class: 1.5}", "synthetic.n_per_class: expected an integer, got 1.5"),
            ("synthetic: {noise_std: loud}", "synthetic.noise_std: expected a number, got 'loud'"),
            ("synthetic: {bogus: 1}", "synthetic.bogus: unknown key"),
            ("synthetic: {n_per_class: 0}", "synthetic: n_per_class must be >= 1"),
            ("synthetic: {image_side: 1}", "synthetic: image_side must be >= 2"),
            ("synthetic: {noise_std: -1}", "synthetic: noise_std must be >= 0"),
            ("sampler: {tpe: 1}", "expected a mapping at sampler.tpe"),
            ("sampler: {tpe: {n_candidates: 2.0}}", "sampler.tpe.n_candidates: expected an integer, got 2.0"),
            ("sampler: {tpe: {gamma_fraction: x}}", "sampler.tpe.gamma_fraction: expected a number, got 'x'"),
            ("sampler: {tpe: {bogus: 1}}", "sampler.tpe.bogus: unknown key"),
            ("sampler: {tpe: {gamma_fraction: 1.5}}", "sampler.tpe: gamma_fraction must be in (0, 1]"),
            ("sampler: {tpe: {n_startup_trials: 0}}", "sampler.tpe: TPE counts must be positive"),
            # a NaN fails no comparison and an infinity meets >= 0, so the
            # sections' own rules would let both through
            ("synthetic: {noise_std: .nan}", "synthetic.noise_std: expected a finite number, got nan"),
            ("synthetic: {noise_std: .inf}", "synthetic.noise_std: expected a finite number, got inf"),
            ("sampler: {tpe: {prior_weight: .inf}}", "sampler.tpe.prior_weight: expected a finite number, got inf"),
            ("policy: {save_threshold: .nan}", "policy.save_threshold: expected a finite number, got nan"),
            ("policy: {stop_threshold: .nan}", "policy.stop_threshold: expected a finite number, got nan"),
            ("policy: {stop_threshold: -.inf}", "policy.stop_threshold: expected a finite number, got -inf"),
            # an int past the largest float converts to no finite number
            ("synthetic: {noise_std: 1" + "0" * 400 + "}", "synthetic.noise_std: expected a finite number, got inf"),
            ("policy: {n_trials: 3, n_trials: 4}", "invalid YAML: duplicate key 'n_trials' at line 4"),
            (
                "data: {manifest: m.csv, ratios: [0.8, 0.2, 0.0]}",
                "data.ratios: ratios must be three positive numbers",
            ),
        ],
    )
    def test_section_error_text(self, section, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
                + section
                + "\n"
            )
        assert str(excinfo.value) == message

    def test_unknown_objective_and_sampler(self):
        with pytest.raises(ConfigError, match="objective"):
            parse_config("objective: ackley\nspace:\n  x: {kind: uniform-float, low: 0, high: 1}\n")
        with pytest.raises(ConfigError, match=r"sampler\.kind"):
            parse_config(
                "objective: quadratic-1d\n"
                "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
                "sampler: {kind: annealing}\n"
            )


QUADRATIC_SPACE = "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"


class TestBuiltConfig:
    """A config built in code, or by ``dataclasses.replace``, is refused
    with the text the parse of the same config gives. Bounds are probed by
    building, never by running."""

    @pytest.mark.parametrize(
        "build, text, path",
        [
            (
                lambda: ExperimentConfig(
                    objective="quadratic-1d", space=SearchSpace({"x": uniform(0.0, 1.0)}), epochs=0
                ),
                "objective: quadratic-1d\nepochs: 0\n" + QUADRATIC_SPACE,
                "epochs",
            ),
            (
                lambda: ExperimentConfig(
                    objective="surrogate", space=SearchSpace({"momentum": uniform(0.0, 1.0)})
                ),
                "objective: surrogate\nspace:\n  momentum: {kind: uniform-float, low: 0, high: 1}\n",
                "space.momentum",
            ),
            (
                lambda: ExperimentConfig(
                    objective="quadratic-1d",
                    space=SearchSpace({"x": uniform(0.0, 1.0)}),
                    sampler=SamplerSpec(kind="grid", resolution=1),
                ),
                "objective: quadratic-1d\nsampler: {kind: grid, resolution: 1}\n" + QUADRATIC_SPACE,
                "sampler.resolution",
            ),
            (
                lambda: replace(parse_config((CONFIG_DIR / "default.yaml").read_text()), epochs=0),
                (CONFIG_DIR / "default.yaml").read_text().replace("\nepochs: 20\n", "\nepochs: 0\n"),
                "epochs",
            ),
        ],
        ids=["epochs", "surrogate-space", "grid-resolution", "replace-epochs"],
    )
    def test_a_built_config_is_checked_like_a_parsed_one(self, build, text, path):
        with pytest.raises(ConfigError) as parsed:
            parse_config(text)
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == str(parsed.value)
        assert str(built.value).startswith(f"{path}: ")


def another_value(value):
    """A different value that stays valid, for an int, float or unset field."""
    if value is None:
        return 0.5
    if isinstance(value, int):
        return value + 1
    return value / 2


def replace_at(obj, dotted: str, value):
    """``obj`` with the field at the dotted path set to ``value``."""
    head, _, rest = dotted.partition(".")
    return replace(obj, **{head: replace_at(getattr(obj, head), rest, value) if rest else value})


class TestRoundTrip:
    def test_default_config_round_trips(self):
        config = parse_config((CONFIG_DIR / "default.yaml").read_text())
        assert parse_config(dump_config(config)) == config

    def test_pruned_config_round_trips(self):
        config = parse_config((CONFIG_DIR / "pruned_surrogate.yaml").read_text())
        again = parse_config(dump_config(config))
        assert again == config
        assert again.pruner == config.pruner

    def test_serialize_omits_absent_sections(self):
        config = parse_config(
            "objective: quadratic-1d\nspace:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
        )
        raw = serialize_config(config)
        assert "pruner" not in raw
        assert "data" not in raw
        assert "save_threshold" not in raw["policy"]

    def test_serialized_key_paths_are_pinned(self, tmp_path):
        """Every key path a config with each section serializes to, so a
        walker that adds or drops a key changes this list."""
        (tmp_path / "m.csv").write_text("m")
        config = parse_config(
            "objective: quadratic-1d\nspace:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
            f"pruner: {{}}\ndata: {{manifest: {json.dumps(str(tmp_path / 'm.csv'))}}}\n"
        )

        def paths(node, prefix=""):
            for key, value in node.items():
                path = f"{prefix}.{key}" if prefix else key
                yield from paths(value, path) if isinstance(value, dict) else [path]

        assert sorted(paths(serialize_config(config))) == [
            "data.manifest", "data.ratios", "data.seed", "epochs", "objective", "output_dir",
            "policy.max_parallel", "policy.n_trials", "pruner.min_completed",
            "pruner.warmup_steps", "sampler.kind", "sampler.resolution",
            "sampler.tpe.gamma_cap", "sampler.tpe.gamma_fraction", "sampler.tpe.n_candidates",
            "sampler.tpe.n_startup_trials", "sampler.tpe.prior_weight", "seed",
            "space.x.high", "space.x.kind", "space.x.low", "synthetic.image_side",
            "synthetic.n_per_class", "synthetic.noise_std", "synthetic.seed", "task",
        ]

    def test_every_section_field_enters_the_hash(self, tmp_path):
        manifests = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in manifests:
            path.write_text(path.name)
        config = parse_config(
            "objective: quadratic-1d\nspace:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
            f"pruner: {{}}\ndata: {{manifest: {json.dumps(str(manifests[0]))}}}\n"
        )
        others = {
            "objective": "sphere",
            "task": "multiclass",
            "output_dir": "runs/other",
            "sampler.kind": "random",
            "data.manifest": str(manifests[1]),
            "data.ratios": (0.6, 0.2, 0.2),
        }
        changed = []
        for section in ("", "sampler", "sampler.tpe", "pruner", "policy", "synthetic", "data"):
            obj = config
            for name in filter(None, section.split(".")):
                obj = getattr(obj, name)
            for f in fields(obj):
                key = f"{section}.{f.name}" if section else f.name
                value = getattr(obj, f.name)
                if is_dataclass(value) or isinstance(value, SearchSpace):
                    continue  # a section of its own
                new = others[key] if key in others else another_value(value)
                other = replace_at(config, key, new)
                assert config_hash(other) != config_hash(config), key
                assert parse_config(dump_config(other)) == other, key
                changed.append(key)
        assert {"objective", "seed", "task", "epochs", "output_dir"} <= set(changed)
        assert "policy.save_threshold" in changed and "synthetic.noise_std" in changed


class TestApplyOverrides:
    def test_scalar_override_types(self):
        raw = {"objective": "quadratic-1d", "policy": {"n_trials": 4}}
        out = apply_overrides(raw, ["policy.n_trials=9", "seed=3"])
        assert out["policy"]["n_trials"] == 9
        assert out["seed"] == 3

    def test_yaml_typed_values(self):
        out = apply_overrides({}, ["a=true", "b=0.5", "c=hello", "d=[1, 2]"])
        assert out["a"] is True
        assert out["b"] == 0.5
        assert out["c"] == "hello"
        assert out["d"] == [1, 2]

    def test_creates_missing_intermediate_sections(self):
        out = apply_overrides({"objective": "surrogate"}, ["pruner.warmup_steps=1"])
        assert out["pruner"] == {"warmup_steps": 1}

    def test_malformed_overrides_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["novalue"])
        with pytest.raises(ConfigError, match="empty key segment"):
            apply_overrides({}, ["a..b=1"])
        with pytest.raises(ConfigError, match="descend"):
            apply_overrides({"seed": 3}, ["seed.x=1"])

    def test_exponent_floats_read_as_numbers(self):
        out = apply_overrides({}, ["a=1e-4", "b=1.5e3", 'c="1e-4"', "d=10"])
        assert out == {"a": 0.0001, "b": 1500.0, "c": "1e-4", "d": 10}

    def test_override_feeds_config_parsing(self):
        raw = {
            "objective": "quadratic-1d",
            "space": {"x": {"kind": "uniform-float", "low": 0.0, "high": 1.0}},
        }
        config = config_from_mapping(apply_overrides(raw, ["policy.n_trials=2"]))
        assert config.policy.n_trials == 2


def misplace_a_checkpoint(records, case):
    """Edit the records of a `pruned_surrogate.yaml` run, whose checkpoints
    need 0.9, or of a `quadratic.yaml` run, which has no save_threshold, by
    ``case``; the seq (once renumbered) and message `run --resume` must
    refuse them with."""
    first = next((r for r in records if r["kind"] == "checkpoint"), None)
    if case == "due checkpoint missing":
        records.remove(first)
        trial_id = first["trial_id"]
        return first["seq"] - 1, f"trial-end: trial {trial_id}'s due checkpoint is missing"
    ends = [r for r in records if r["kind"] == "trial-end" and r["state"] == "complete"]
    if case == "undue checkpoint":  # trial 0 is the best so far, but earns none
        end, reason = ends[0], "does not meet the save threshold"
        assert end["trial_id"] == 0 and end["final_value"] < 0.9
    else:  # no trial after the first checkpoint's can beat its 1.0
        end = next(r for r in ends if r["seq"] > first["seq"])
        reason = "does not improve on the best"
        assert first["value"] == 1.0
    trial_id = end["trial_id"]
    start = next(r for r in records if r["kind"] == "trial-start" and r["trial_id"] == trial_id)
    checkpoint = {"trial_id": trial_id, "value": end["final_value"], "best_params": start["params"]}
    records.insert(end["seq"] + 1, {"kind": "checkpoint", **checkpoint})
    return end["seq"] + 1, f"checkpoint: trial {trial_id} {reason}"


class TestCliRun:
    def test_run_writes_journal_best_and_reports(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "journal.jsonl") in printed
        assert (out / "journal.jsonl").exists()
        assert (out / "best.json").exists()
        assert (out / "trials.csv").exists()
        assert (out / "history.svg").exists()
        payload = json.loads((out / "best.json").read_text())
        assert set(payload) == {"params", "value"}
        assert set(payload["params"]) == {"x"}
        assert isinstance(payload["value"], float)

    def test_set_overrides_trial_budget(self, tmp_path):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path), "--set", "policy.n_trials=2"]) == 0
        records = read_records(out / "journal.jsonl")
        assert len([r for r in records if r["kind"] == "trial-start"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("journal.jsonl", "best.json", "trials.csv", "history.svg")
        }
        assert main(["run", str(config_path)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_failed_best_write_keeps_previous_best(self, tmp_path, monkeypatch, capsys):
        from studyforge import reporting

        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        before = (out / "best.json").read_bytes()
        real_replace = reporting.os.replace

        def refuse_best(src, dst):
            if str(dst).endswith("best.json"):
                raise OSError("injected: rename refused")
            real_replace(src, dst)

        monkeypatch.setattr(reporting.os, "replace", refuse_best)
        assert main(["run", str(config_path), "--set", "seed=6"]) == 1
        assert "injected" in capsys.readouterr().err
        assert (out / "best.json").read_bytes() == before
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_exponent_float_override_runs(self, tmp_path):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path), "--set", "space.x.low=1e-4"]) == 0
        assert read_records(out / "journal.jsonl")[0]["space"]["x"]["low"] == 0.0001

    def test_resume_of_a_finished_study_appends_nothing(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        before = (out / "journal.jsonl").read_bytes()
        assert main(["run", str(config_path), "--resume"]) == 0
        assert (out / "journal.jsonl").read_bytes() == before

    def test_resume_continues_a_cut_journal(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        whole = (out / "journal.jsonl").read_bytes()
        (out / "journal.jsonl").write_bytes(whole[: len(whole) // 2])
        assert main(["run", str(config_path), "--resume"]) == 0
        assert (out / "journal.jsonl").read_bytes() == whole

    def test_resume_refuses_another_config_and_keeps_its_journal(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        journal = out / "journal.jsonl"
        cut = journal.read_bytes()[:-10]
        journal.write_bytes(cut)
        argv = ["run", str(config_path), "--set", "policy.n_trials=5", "--resume"]
        assert main(argv) == 1
        assert "another config" in capsys.readouterr().err
        assert journal.read_bytes() == cut

    @pytest.mark.parametrize(
        "seq, edit",
        [
            (2, lambda r: r.update(trial_id="0")),
            (2, lambda r: r.pop("final_value")),
            (2, lambda r: r.update(metrics=[1, 2])),
            (2, lambda r: r.update(kind="intermediate", step=True, value=0.5)),
            (1, lambda r: r["params"].update(x=-1)),
            (0, lambda r: r["space"]["x"].update(low=False)),
            (0, lambda r: r["space"]["x"].update(high=True)),
            (0, lambda r: r["space"]["x"].update(high="1")),
            (0, lambda r: r["space"]["x"].update(choices=[1, 2])),
        ],
        ids=[
            "string trial_id",
            "trial-end without final_value",
            "metrics not an object",
            "boolean step",
            "x outside its domain",
            "boolean low",
            "boolean high",
            "string high",
            "choices on a uniform-float",
        ],
    )
    def test_resume_refuses_a_hand_edited_record_and_keeps_its_journal(
        self, tmp_path, capsys, seq, edit
    ):
        # the study-meta is seq 0, trial 0's trial-start seq 1, its trial-end seq 2
        argv = ["run", str(CONFIG_DIR / "quadratic.yaml"), "--set", f"output_dir={tmp_path}"]
        assert main(argv) == 0
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines()
        record = json.loads(lines[seq])
        assert record["kind"] == ("study-meta", "trial-start", "trial-end")[seq]
        edit(record)
        lines[seq] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        edited = journal.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: record seq={seq}: ")
        assert captured.err.count("\n") == 1
        assert journal.read_bytes() == edited

    @pytest.mark.parametrize(
        "config, case",
        [
            pytest.param("pruned_surrogate.yaml", case, id=case)
            for case in ("due checkpoint missing", "undue checkpoint", "no gain")
        ]
        # quadratic.yaml has no save_threshold, so no trial earns a checkpoint
        + [pytest.param("quadratic.yaml", "undue checkpoint", id="no save_threshold")],
    )
    def test_resume_refuses_a_checkpoint_out_of_place_and_keeps_its_journal(
        self, tmp_path, capsys, config, case
    ):
        argv = ["run", str(CONFIG_DIR / config), "--set", f"output_dir={tmp_path}"]
        assert main(argv) == 0
        journal = tmp_path / "journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        seq, message = misplace_a_checkpoint(records, case)
        renumbered = [json.dumps({**r, "seq": i}) + "\n" for i, r in enumerate(records)]
        journal.write_text("".join(renumbered))
        edited = journal.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: record seq={seq}: {message}\n"
        assert journal.read_bytes() == edited
        # best knows no save_threshold: it refuses only a checkpoint with no gain
        assert main(["best", str(journal)]) == (1 if case == "no gain" else 0)

    @pytest.mark.parametrize(
        "config, edit, key",
        [
            ("configs/quadratic.yaml", lambda r: r["space"]["x"].update(low=-1), "space"),
            ("configs/quadratic.yaml", lambda r: r.update(seed=8), "seed"),
            ("configs/quadratic.yaml", lambda r: r.update(direction="maximize"), "direction"),
            ("configs/quadratic.yaml", lambda r: r.update(note="hand-written"), "note"),
            (
                "perfbench/configs/tpe_sphere.yaml",
                lambda r: r.update(space=dict(reversed(r["space"].items()))),
                "space",
            ),
        ],
        ids=["low -1", "seed 8", "direction maximize", "added key", "space in another order"],
    )
    def test_resume_refuses_a_study_meta_this_config_does_not_write(
        self, tmp_path, capsys, config, edit, key
    ):
        # the study is rebuilt from the study-meta, so a replayable edit there
        # must not pass under the config_hash it still carries
        path = CONFIG_DIR.parent / config
        argv = ["run", str(path), "--set", f"output_dir={tmp_path}", "--set", "policy.n_trials=20"]
        assert main(argv) == 0
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines()[:21]  # study-meta and 10 trials
        meta = json.loads(lines[0])
        edit(meta)
        lines[0] = json.dumps(meta)
        journal.write_text("\n".join(lines) + "\n")
        edited = journal.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--resume"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: record seq=0: study-meta: {key} differs from this config's\n"
        )
        assert journal.read_bytes() == edited

    @pytest.mark.parametrize("command", ["run --resume", "best", "report"])
    @pytest.mark.parametrize("case, seq", [("interleaved", 2), ("checkpoint value", 3)])
    def test_a_journal_off_its_grammar_is_refused_in_one_line(
        self, tmp_path, capsys, command, case, seq
    ):
        """Every command that replays a journal refuses one whose trials
        interleave, or whose checkpoint is not what its trial earned."""
        argv = ["run", str(CONFIG_DIR / "quadratic.yaml"), "--set", f"output_dir={tmp_path}"]
        argv += ["--set", "policy.n_trials=6", "--set", "policy.save_threshold=0.5"]
        assert main(argv) == 0
        journal = tmp_path / "journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        # trial 0's trial-end is seq 2 and its checkpoint seq 3; trial 1 starts at seq 4
        assert [r["kind"] for r in records[2:5]] == ["trial-end", "checkpoint", "trial-start"]
        if case == "interleaved":
            records[2:5] = [records[4], *records[2:4]]
        else:
            records[3]["value"] = -5.0
        lines = [json.dumps({**r, "seq": i}) for i, r in enumerate(records)]
        journal.write_text("\n".join(lines) + "\n")
        edited = journal.read_bytes()
        capsys.readouterr()
        commands = {
            "run --resume": [*argv, "--resume"],
            "best": ["best", str(journal)],
            "report": ["report", str(journal), "--out", str(tmp_path / "report")],
        }
        assert main(commands[command]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: record seq={seq}: ")
        assert captured.err.count("\n") == 1
        assert journal.read_bytes() == edited

    def test_a_refused_seed_leaves_the_journal_in_place(self, tmp_path, capsys):
        argv = ["run", str(CONFIG_DIR / "quadratic.yaml"), "--set", f"output_dir={tmp_path}"]
        assert main(argv) == 0
        journal = tmp_path / "journal.jsonl"
        written = journal.read_bytes()
        capsys.readouterr()
        assert main([*argv, "--set", "seed=-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a 64-bit unsigned integer\n"
        assert journal.read_bytes() == written

    @pytest.mark.parametrize("resolution", [1, 0])
    def test_a_grid_without_two_points_per_axis_is_refused_before_a_journal(
        self, tmp_path, capsys, resolution
    ):
        out = tmp_path / "out"
        argv = ["run", str(GRID_YAML), "--set", f"sampler.resolution={resolution}"]
        assert main([*argv, "--set", f"output_dir={out}"]) == 1
        assert capsys.readouterr().err == (
            "error: sampler.resolution: resolution must be >= 2 for continuous parameter 'x0'\n"
        )
        assert not (out / "journal.jsonl").exists()

    def test_a_grid_resolution_past_the_bound_is_refused_before_a_journal(
        self, tmp_path, capsys, monkeypatch
    ):
        # parsed, never run: the bound is checked before any axis is built
        def refuse(*args, **kwargs):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(samplers_mod.np, "linspace", refuse)
        out = tmp_path / "out"
        argv = ["run", str(GRID_YAML), "--set", f"sampler.resolution={MAX_RESOLUTION + 1}"]
        assert main([*argv, "--set", f"output_dir={out}"]) == 1
        assert capsys.readouterr().err == (
            "error: sampler.resolution: resolution must be <= 100000, got 100001\n"
        )
        assert not out.exists()

    def test_a_grid_of_more_than_maxsize_cells_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", str(GRID_YAML), "--set", "sampler.resolution=100000"]
        assert main([*argv, "--set", "policy.n_trials=3", "--set", f"output_dir={out}"]) == 0
        cells = grid_enumerate(parse_config(GRID_YAML.read_text()).space, 100000)
        assert cells.size == 10**20 > sys.maxsize
        records = read_records(out / "journal.jsonl")
        starts = [r["params"] for r in records if r["kind"] == "trial-start"]
        assert starts == [cells[i] for i in range(3)]

    def test_env_seed_overrides_config(self, tmp_path, monkeypatch):
        config_path, out = write_quadratic_config(tmp_path)
        monkeypatch.setenv("STUDYFORGE_SEED", "77")
        assert main(["run", str(config_path)]) == 0
        assert read_records(out / "journal.jsonl")[0]["seed"] == 77

    def test_env_seed_wins_over_a_set_seed(self, tmp_path, monkeypatch):
        config_path, out = write_quadratic_config(tmp_path)
        monkeypatch.setenv("STUDYFORGE_SEED", "77")
        assert main(["run", str(config_path), "--set", "seed=3"]) == 0
        assert read_records(out / "journal.jsonl")[0]["seed"] == 77

    @pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("1.5", "1.5")])
    def test_a_bad_env_seed_fails_with_its_dot_path(self, tmp_path, monkeypatch, capsys, value, shown):
        config_path, out = write_quadratic_config(tmp_path)
        monkeypatch.setenv("STUDYFORGE_SEED", value)
        assert main(["run", str(config_path)]) == 1
        assert capsys.readouterr().err == f"error: seed: expected an integer, got {shown}\n"
        assert not out.exists()

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.yaml")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_yaml_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("objective: [unclosed\n")
        assert main(["run", str(path)]) == 1
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, overrides",
        [
            # QUADRATIC_YAML already sets seed and policy
            (["seed: 6"], []),
            (["policy: {n_trials: 3}"], []),
            ([], ["policy={n_trials: 3, n_trials: 4}"]),
            (["synthetic: {noise_std: .nan}"], []),
        ],
    )
    def test_a_refused_config_writes_no_journal(self, tmp_path, capsys, lines, overrides):
        path, out = write_quadratic_config(tmp_path, extra_lines=lines)
        argv = ["run", str(path)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_config_error_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "objective: quadratic-1d\n"
            "space:\n  x: {kind: uniform-float, low: 0, high: 1}\n"
            "policy: {n_trials: 0}\n"
        )
        assert main(["run", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCliBest:
    def test_best_prints_sorted_json(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        main(["run", str(config_path)])
        capsys.readouterr()
        assert main(["best", str(out / "journal.jsonl")]) == 0
        line = capsys.readouterr().out.strip()
        payload = json.loads(line)
        assert set(payload) == {"params", "value"}
        assert line.index('"params"') < line.index('"value"')

    def test_best_matches_best_json(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        main(["run", str(config_path)])
        capsys.readouterr()
        main(["best", str(out / "journal.jsonl")])
        stdout = capsys.readouterr().out
        assert stdout == (out / "best.json").read_text()

    def test_best_exits_nonzero_without_completed_trials(self, tmp_path, capsys):
        journal = empty_journal(tmp_path)
        assert main(["best", str(journal)]) == 1
        assert "no completed trials" in capsys.readouterr().err

    def test_best_missing_journal(self, tmp_path, capsys):
        assert main(["best", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCliReport:
    def test_report_defaults_next_to_journal(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        main(["run", str(config_path)])
        (out / "trials.csv").unlink()
        capsys.readouterr()
        assert main(["report", str(out / "journal.jsonl")]) == 0
        assert (out / "trials.csv").exists()

    def test_report_md_format_to_custom_dir(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        main(["run", str(config_path)])
        target = tmp_path / "reports"
        capsys.readouterr()
        assert main(
            ["report", str(out / "journal.jsonl"), "--format", "md", "--out", str(target)]
        ) == 0
        assert (target / "trials.md").exists()
        assert (target / "history.svg").exists()

    def test_report_warns_on_empty_journal(self, tmp_path, capsys):
        journal = empty_journal(tmp_path)
        assert main(["report", str(journal)]) == 0
        assert "warning: journal has no completed trials" in capsys.readouterr().err

    def test_report_rows_match_trials(self, tmp_path, capsys):
        config_path, out = write_quadratic_config(tmp_path)
        main(["run", str(config_path)])
        main(["report", str(out / "journal.jsonl")])
        with open(out / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial_id", "x", "state", "final_value"]
        assert len(rows) == 1 + 4


def write_demo_manifest(tmp_path, negatives=10, positives_per_label=4):
    lines = [",".join(MANIFEST_HEADER)]
    i = 0
    for label, count in [
        (LABELS[0], negatives),
        (LABELS[1], positives_per_label),
        (LABELS[2], positives_per_label),
        (LABELS[3], positives_per_label),
    ]:
        for _ in range(count):
            lines.append(f"s{i:04d},images/s{i:04d}.pgm,\"{label}\",1")
            i += 1
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCliSplit:
    def test_multiclass_split_writes_three_csvs(self, tmp_path, capsys):
        manifest = write_demo_manifest(tmp_path)
        out = tmp_path / "splits"
        assert main(["split", str(manifest), "--seed", "2", "--out", str(out)]) == 0
        for name in ("train.csv", "val.csv", "test.csv", "split_manifest.txt"):
            assert (out / name).exists()
        text = (out / "split_manifest.txt").read_text()
        assert "seed=2" in text and "mode=multiclass" in text and "total=22" in text

    def test_binary_split_balances_the_pool(self, tmp_path):
        manifest = write_demo_manifest(tmp_path, negatives=10, positives_per_label=4)
        out = tmp_path / "splits"
        assert main(
            ["split", str(manifest), "--seed", "0", "--mode", "binary", "--out", str(out)]
        ) == 0
        total = 0
        neg = 0
        for name in ("train.csv", "val.csv", "test.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            total += len(rows)
            neg += sum(1 for r in rows if r[2] == LABELS[0])
        assert total == 20  # 10 negatives + 10 sampled positives
        assert neg == 10

    def test_same_seed_same_bytes(self, tmp_path):
        manifest = write_demo_manifest(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["split", str(manifest), "--seed", "5", "--out", str(out_a)])
        main(["split", str(manifest), "--seed", "5", "--out", str(out_b)])
        for name in ("train.csv", "val.csv", "test.csv", "split_manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("binary", "0b27aa33ac8642b1121024bbe9a2d4e000a1276cffbd29723b7be705776d2290"),
            ("multiclass", "fa27368ed61e51da5fe24bd04737746823fe2ac15fc2a06cb87431864dce263e"),
        ],
    )
    def test_split_outputs_are_pinned(self, tmp_path, mode, digest):
        manifest = write_demo_manifest(tmp_path, negatives=9, positives_per_label=5)
        with open(manifest, "a") as fh:
            for i, label in enumerate(LABELS):
                fh.write(f"m{i},images/m{i}.pgm,\"{label}\",{i + 2}\n")
        out = tmp_path / "splits"
        assert main(["split", str(manifest), "--seed", "4", "--mode", mode, "--out", str(out)]) == 0
        h = hashlib.sha256()
        for name in ("train.csv", "val.csv", "test.csv", "split_manifest.txt"):
            h.update((out / name).read_bytes())
        assert h.hexdigest() == digest

    def test_split_missing_manifest(self, tmp_path, capsys):
        assert main(["split", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestConfigHashPins:
    """config_hash of each shipped config, as it was before the grid
    resolution got its upper bound: a bound refuses values, it does not
    change the identity of a config that was valid."""

    REPO = Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                "configs/default.yaml",
                "bec480f4d1c83b80c5a2da1cf940801c7a093c29d8552b3c7dcc93630e4e99ef",
            ),
            (
                "configs/pruned_surrogate.yaml",
                "83dc62aebeaafd36f0cee46b31b87446ef871b96d50f5e7ae57a000326f9efea",
            ),
            (
                "configs/quadratic.yaml",
                "8e82e3ea96a88485c0b0309300ce740b72bc305c8fc9626204c8f9dd11136358",
            ),
            (
                "perfbench/configs/grid_sphere.yaml",
                "b4ebe182f5b9f7eed5360554dcc4aff09e711f205d0399f80e1f8c615c20887f",
            ),
            (
                "perfbench/configs/tpe_sphere.yaml",
                "20164922ec648e5c29f8742c2e32c51633231bc7d4275aa2e0babb5b53553679",
            ),
        ],
    )
    def test_config_hash_is_pinned(self, config, digest):
        assert config_hash(parse_config((self.REPO / config).read_text())) == digest


class TestJournalPins:
    """sha256 of whole journals written by `run`, recorded before the TPE
    history moved into `Study.tell`: the ask must still draw every float and
    every RNG value the scan-per-ask code drew. The output directory is
    relative, because config_hash (in the journal) hashes its spelling."""

    REPO = Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize(
        "config, overrides, direction, digest",
        [
            (
                "perfbench/configs/tpe_sphere.yaml",
                ["policy.n_trials=150"],
                "minimize",
                "42c6aee10aa3676e527aac16801017e94f1706e147fcde7f05fdaa0da0d7cb80",
            ),
            (
                "perfbench/configs/tpe_sphere.yaml",
                ["policy.n_trials=150"],
                "maximize",
                "b13126d14f89f30347f6f26a8d8734ca9a53a8b2c8a80b04c9131de484d92d26",
            ),
            (
                "configs/pruned_surrogate.yaml",
                [],
                "maximize",
                "354872ab5198c8536f5953049029f048efd740cd137ab891eb576b420335d342",
            ),
            # six continuous parameters among three discrete ones: pins the
            # RNG order of draws that interleave the continuous rows of one
            # Parzen fit with discrete choices (recorded with one fit per
            # parameter per ask)
            (
                "configs/default.yaml",
                ["epochs=1"],
                "maximize",
                "6ffd0a85028c8e48e69c0f33695e10ae9b7c3ea3f5ffc5698af34fdc32bd2028",
            ),
            # all 1,000 trials: bad sets of up to 975, where two candidates
            # scoring within ~1e-12 would be the first to tell the ask's
            # quadratic-form scorer from the reference (recorded before it)
            (
                "perfbench/configs/tpe_sphere.yaml",
                [],
                "minimize",
                "68666b827c4b753d5df32ca0ad4ffbb2132ee675b0d09cded25608726898dc6e",
            ),
            # the first 300 of 10^4 grid cells (recorded while an ask still
            # built the whole product)
            ("perfbench/configs/grid_sphere.yaml", [], "minimize", GRID_SPHERE_SHA256),
        ],
    )
    def test_journal_is_pinned(self, tmp_path, monkeypatch, config, overrides, direction, digest):
        # the sphere only minimizes; flipping the objective's direction runs
        # the same study through the maximizing split of the TPE history
        monkeypatch.setattr(config_mod, "direction_for_objective", lambda objective: direction)
        monkeypatch.chdir(tmp_path)
        argv = ["run", str(self.REPO / config), "--set", "output_dir=out"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        raw = (tmp_path / "out" / "journal.jsonl").read_bytes()
        assert json.loads(raw.split(b"\n", 1)[0])["direction"] == direction
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_a_grid_run_builds_no_generator(self, tmp_path, monkeypatch):
        def refuse(self, trial_id, lane=0):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(Study, "rng_for", refuse)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(GRID_YAML), "--set", "output_dir=out"]) == 0
        raw = (tmp_path / "out" / "journal.jsonl").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == GRID_SPHERE_SHA256


class TestReportReplay:
    """`report` and `best` replay the journal once each, and write the bytes
    they wrote when `report` replayed it twice."""

    REPO = Path(__file__).resolve().parent.parent

    @pytest.fixture
    def replays(self, monkeypatch):
        """Counts of journal parses and study rebuilds, under every name the
        commands call them by."""
        counts = {"parse": 0, "rebuild": 0}
        real_parse = journal_mod._parse
        real_rebuild = journal_mod.study_from_records

        def parse(raw):
            counts["parse"] += 1
            return real_parse(raw)

        def rebuild(records):
            counts["rebuild"] += 1
            return real_rebuild(records)

        monkeypatch.setattr(journal_mod, "_parse", parse)
        for module in (cli_mod, reporting_mod):
            monkeypatch.setattr(module, "study_from_records", rebuild)
        return counts

    @pytest.mark.parametrize(
        "command",
        [["report"], ["report", "--format", "md"], ["best"]],
    )
    def test_each_command_replays_the_journal_once(self, tmp_path, capsys, replays, command):
        config_path, out = write_quadratic_config(tmp_path)
        assert main(["run", str(config_path)]) == 0
        replays.update(parse=0, rebuild=0)
        journal = str(out / "journal.jsonl")
        assert main([command[0], journal, *command[1:]]) == 0
        assert replays == {"parse": 1, "rebuild": 1}

    def test_run_replays_nothing(self, tmp_path, capsys, replays, monkeypatch):
        # the reports of a run come from the study it journaled
        reads = []
        real_read = reporting_mod.read_records
        monkeypatch.setattr(
            reporting_mod, "read_records", lambda path: reads.append(path) or real_read(path)
        )
        argv = ["run", str(CONFIG_DIR / "quadratic.yaml"), "--set", f"output_dir={tmp_path}"]
        assert main(argv) == 0
        assert (tmp_path / "trials.csv").exists()
        assert (len(reads), replays["rebuild"], replays["parse"]) == (0, 0, 0)

    def test_report_of_a_journal_without_completed_trials_replays_once(
        self, tmp_path, capsys, replays
    ):
        journal = empty_journal(tmp_path)
        assert main(["report", str(journal)]) == 0
        assert "warning: journal has no completed trials" in capsys.readouterr().err
        assert replays == {"parse": 1, "rebuild": 1}

    @pytest.mark.parametrize(
        "config, overrides, resume",
        [
            ("configs/quadratic.yaml", [], False),
            ("configs/pruned_surrogate.yaml", [], False),
            ("perfbench/configs/grid_sphere.yaml", ["policy.n_trials=50"], False),
            ("perfbench/configs/grid_sphere.yaml", ["policy.n_trials=50"], True),
            ("perfbench/configs/tpe_sphere.yaml", ["policy.n_trials=150"], False),
            # cut inside the trial after the best one: the resumed run's
            # confusion.csv and f1.csv come from the replay of the kept prefix
            ("configs/default.yaml", ["epochs=1"], True),
        ],
    )
    def test_run_writes_the_files_report_writes(
        self, tmp_path, capsys, config, overrides, resume
    ):
        run_dir = tmp_path / "run"
        argv = ["run", str(self.REPO / config), "--set", f"output_dir={run_dir}"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        journal = run_dir / "journal.jsonl"
        if resume:
            whole = journal.read_bytes()
            best = journal_mod.resume_study(journal).best_trial().trial_id
            at = whole.find(f'"kind": "trial-start", "trial_id": {best + 1},'.encode())
            assert at > 0
            for path in run_dir.iterdir():
                path.unlink()
            journal.write_bytes(whole[: at + 30])
            assert main([*argv, "--resume"]) == 0
            assert journal.read_bytes() == whole
        assert main(["report", str(journal), "--out", str(tmp_path / "report")]) == 0
        rebuilt = {p.name: p.read_bytes() for p in (tmp_path / "report").iterdir()}
        written = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        assert written.pop("journal.jsonl") and written.pop("best.json")
        assert rebuilt == written
        if config == "configs/default.yaml":
            assert {"confusion.csv", "f1.csv"} <= rebuilt.keys()

    # sha256 of every file `report` writes (in both formats) and of `best`'s
    # stdout, recorded while `report` still replayed the journal twice
    PINS = {
        "tpe_sphere": {
            "csv/history.svg": "dae85b49973596df846be4ccd118522646bdba5102203e79db7401f5d06478c2",
            "csv/trials.csv": "178c029d815e0b58ab5114b700c120772e837659d39c02dd46debb1966be45e1",
            "md/history.svg": "dae85b49973596df846be4ccd118522646bdba5102203e79db7401f5d06478c2",
            "md/trials.md": "f58d4df4e5c4910ef424385b7ab02b29315fd3af3de852331d7c3642379dfef1",
            "best": "a5fc44a1ee0aacac106204a14315c2587c975ecff872d23b6caf08897d211d0c",
        },
        "pruned_surrogate": {
            "csv/confusion.csv": "cd2d003fba24a8ad75e984ac1f7d682ad254a50ac5cc3e240511cfa357da9b7c",
            "csv/f1.csv": "00fbedfe65de3985a74259f9b55e5c0f98d645d17e5a2151088c80b2e929ab06",
            "csv/history.svg": "c812a3b140d469cac67ca08d4e65f7d56c96ae6ceba6ef4b4929559ed2d4e34e",
            "csv/summary_batch_size.csv": "cc14e3e0e9ee0b7082c079c4314815ce458b03e4910654e7e726ddc82548fb73",
            "csv/trials.csv": "e602bacf2e78ce09f76e8fd190ccd8f8d1e566d5844dc1ccb5bb65eae9f0cc24",
            "md/confusion.csv": "cd2d003fba24a8ad75e984ac1f7d682ad254a50ac5cc3e240511cfa357da9b7c",
            "md/f1.csv": "00fbedfe65de3985a74259f9b55e5c0f98d645d17e5a2151088c80b2e929ab06",
            "md/history.svg": "c812a3b140d469cac67ca08d4e65f7d56c96ae6ceba6ef4b4929559ed2d4e34e",
            "md/summary_batch_size.md": "bbde827b90add96d41e654f1c7b960a77fa72a89321ff280fff082999f097de0",
            "md/trials.md": "2ca3415312e9f1b617b8f22eaebd3c10174baae13db2d98e311a6b43756e64f8",
            "best": "4fd44408200b34f27c9e0c380a74ff62519aa2106c77f5bb638e92cd8085d481",
        },
    }

    @pytest.mark.parametrize(
        "name, config, overrides",
        [
            ("tpe_sphere", "perfbench/configs/tpe_sphere.yaml", ["policy.n_trials=150"]),
            ("pruned_surrogate", "configs/pruned_surrogate.yaml", []),
        ],
    )
    def test_report_and_best_outputs_are_pinned(self, tmp_path, capsys, name, config, overrides):
        argv = ["run", str(self.REPO / config), "--set", f"output_dir={tmp_path / 'run'}"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        journal = str(tmp_path / "run" / "journal.jsonl")
        digests = {}
        for fmt in ("csv", "md"):
            target = tmp_path / fmt
            assert main(["report", journal, "--format", fmt, "--out", str(target)]) == 0
            for path in target.iterdir():
                digests[f"{fmt}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        capsys.readouterr()
        assert main(["best", journal]) == 0
        digests["best"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == self.PINS[name]
