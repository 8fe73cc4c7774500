"""Flat key=value experiment configs with dotted sections.

Example:

    seed = 7
    out_dir = runs/demo
    dataset.kind = synthetic
    dataset.synthetic.num_classes = 12
    dataset.synthetic.examples_per_class = 60
    schedule.layout = custom
    schedule.first = 3
    schedule.per_task = 3
    train.strategy = de_kws
    train.lr = 0.01
    train.epochs_per_task = 10
    train.buffer_capacity = 200

Lines are `key = value`; `#` starts a comment. `train.*` keys are
TrainConfig's fields except seed and `dataset.synthetic.*` keys five of
SyntheticSpec's; each takes its field's type and default. Unknown keys, bad
types and contradictions are rejected with the offending line: a nonzero
alpha, beta or buffer under finetune or joint (TrainConfig makes those
replay-free), alpha or beta under naive_rehearsal, schedule.first or
per_task under a named layout. The owning dataclass rejects a non-finite or
non-positive lr and a non-finite or negative alpha, beta, noise_amplitude or
amplitude_jitter.
"""

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .dataset import NAMED_LAYOUTS, SyntheticSpec
from .engine import STRATEGIES, TrainConfig
from .errors import InvalidConfigError, InvalidInputError

_SCHEDULE_LAYOUTS = (*NAMED_LAYOUTS, "custom")

# The SyntheticSpec fields a config sets; tone pairs and clip shape stay default.
_SYNTHETIC_FIELDS = ("num_classes", "examples_per_class", "noise_amplitude",
                     "amplitude_jitter", "seed")

_KNOWN_KEYS = {
    "seed": int,
    "out_dir": str,
    "dataset.kind": str,
    "dataset.train_fraction": float,
    "dataset.gsc.root": str,
    "schedule.layout": str,
    "schedule.first": int,
    "schedule.per_task": int,
    **{f"dataset.synthetic.{f.name}": f.type for f in dataclasses.fields(SyntheticSpec)
       if f.name in _SYNTHETIC_FIELDS},
    **{f"train.{f.name}": f.type for f in dataclasses.fields(TrainConfig) if f.name != "seed"},
}


def _section(values: dict, prefix: str) -> dict:
    """The parsed values under prefix, keyed by field name."""
    return {key[len(prefix) + 1:]: value for key, value in values.items()
            if key.startswith(prefix + ".")}


@dataclass
class ExperimentConfig:
    seed: int
    out_dir: str | None
    dataset_kind: str
    train_fraction: float
    gsc_root: str | None
    synthetic: SyntheticSpec | None
    schedule_layout: str
    schedule_first: int | None
    schedule_per_task: int | None
    train: TrainConfig

    def effective_dict(self) -> dict:
        """Every resolved field but out_dir, including defaults, for the
        report and checkpoint echo; a run's files do not depend on where
        they are written."""
        return {
            "seed": self.seed,
            "dataset.kind": self.dataset_kind,
            "dataset.train_fraction": self.train_fraction,
            "dataset.gsc.root": self.gsc_root,
            "dataset.synthetic": (
                None if self.synthetic is None else dataclasses.asdict(self.synthetic)
            ),
            "schedule.layout": self.schedule_layout,
            "schedule.first": self.schedule_first,
            "schedule.per_task": self.schedule_per_task,
            "train": dataclasses.asdict(self.train),
        }


def _parse_lines(text: str, source: str) -> tuple[dict, dict]:
    values: dict = {}
    lines_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(
                f"{source}:{lineno}: expected `key = value`, got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise InvalidConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidConfigError(
                f"{source}:{lineno}: duplicate key {key!r} "
                f"(first set on line {lines_of[key]})"
            )
        caster = _KNOWN_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError:
            raise InvalidConfigError(
                f"{source}:{lineno}: field {key!r} expects "
                f"{caster.__name__}, got {value!r}"
            ) from None
        lines_of[key] = lineno
    return values, lines_of


def parse_experiment_config(text: str, source: str = "<config>",
                            seed_override: int | None = None,
                            out_override: str | None = None) -> ExperimentConfig:
    values, lines_of = _parse_lines(text, source)

    def where(key: str) -> str:
        return f"{source}:{lines_of[key]}" if key in lines_of else source

    seed = seed_override if seed_override is not None else values.get("seed", 0)
    out_dir = out_override if out_override is not None else values.get("out_dir")

    kind = values.get("dataset.kind")
    if kind not in ("synthetic", "gsc"):
        raise InvalidConfigError(
            f"{where('dataset.kind')}: dataset.kind must be 'synthetic' or "
            f"'gsc', got {kind!r}"
        )
    gsc_root = values.get("dataset.gsc.root")
    synthetic = None
    if kind == "gsc":
        if gsc_root is None:
            raise InvalidConfigError(f"{source}: dataset.gsc.root is required")
        if not Path(gsc_root).is_dir():
            raise InvalidConfigError(
                f"{where('dataset.gsc.root')}: dataset root {gsc_root!r} "
                f"does not exist"
            )
        if any(k.startswith("dataset.synthetic.") for k in values):
            raise InvalidConfigError(
                f"{source}: dataset.kind = gsc contradicts dataset.synthetic.* keys"
            )
    else:
        if gsc_root is not None:
            raise InvalidConfigError(
                f"{where('dataset.gsc.root')}: dataset.kind = synthetic "
                f"contradicts dataset.gsc.root"
            )
        try:
            synthetic = SyntheticSpec(**{"seed": seed,
                                         **_section(values, "dataset.synthetic")})
        except InvalidInputError as exc:
            raise InvalidConfigError(f"{source}: {exc}") from None

    layout = values.get("schedule.layout", "6task")
    if layout not in _SCHEDULE_LAYOUTS:
        raise InvalidConfigError(
            f"{where('schedule.layout')}: schedule.layout must be one of "
            f"{_SCHEDULE_LAYOUTS}, got {layout!r}"
        )
    for key in ("schedule.first", "schedule.per_task"):
        if key in values and layout != "custom":
            raise InvalidConfigError(
                f"{where(key)}: {key} applies to the custom layout only, "
                f"not schedule.layout = {layout}"
            )

    strategy = values.get("train.strategy")
    if strategy is not None and strategy not in STRATEGIES:
        raise InvalidConfigError(
            f"{where('train.strategy')}: train.strategy must be one of "
            f"{STRATEGIES}, got {strategy!r}"
        )
    if strategy == "naive_rehearsal":
        for key in ("train.alpha", "train.beta"):
            if key in values:
                raise InvalidConfigError(
                    f"{where(key)}: {key} is unused by naive_rehearsal; remove it"
                )
    section = _section(values, "train")
    try:
        train = TrainConfig(seed=seed, **section)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{source}: {exc}") from None
    # A value TrainConfig changed is one the replay-free rule zeroed.
    for name, value in section.items():
        if getattr(train, name) != value:
            raise InvalidConfigError(
                f"{where('train.' + name)}: train.{name} = {value} contradicts "
                f"train.strategy = {train.strategy} (must be 0 or unset)"
            )

    fraction = values.get("dataset.train_fraction", 0.8)
    if not 0.0 < fraction < 1.0:
        raise InvalidConfigError(
            f"{where('dataset.train_fraction')}: train_fraction must be in "
            f"(0, 1), got {fraction}"
        )

    return ExperimentConfig(
        seed=seed,
        out_dir=out_dir,
        dataset_kind=kind,
        train_fraction=fraction,
        gsc_root=gsc_root,
        synthetic=synthetic,
        schedule_layout=layout,
        schedule_first=values.get("schedule.first"),
        schedule_per_task=values.get("schedule.per_task"),
        train=train,
    )


def read_experiment_config(path, seed_override: int | None = None,
                           out_override: str | None = None) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise InvalidConfigError(f"config file not found: {path}")
    return parse_experiment_config(
        path.read_text(), source=str(path),
        seed_override=seed_override, out_override=out_override,
    )
