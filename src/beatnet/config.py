"""Run configuration: a flat INI file with one section per pipeline stage.

Every knob has a default matching the protocol this package implements;
:func:`render_snapshot` materializes all of them (defaults included)
into the text written to each run directory, so a run records exactly
what it used even where the user's file was silent. Each value is read
by the type of its default: floats (which may be written as ratios,
"2/3", and must be finite), integers, strings, and comma-separated
lists.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import BeatnetError, UsageError
from .loss import W_BEAT, W_NOBEAT, ClassWeights
from .metrics import BOOTSTRAP_FRACTION, BOOTSTRAP_REPS
from .nn import BN_EPS, BN_MOMENTUM, ConvBlockSpec, NetworkConfig
from .optim import EPS, LR, RHO
from .segments import MAX_RECORD_SECONDS, WINDOW_SECONDS
from .train import TrainConfig
from .wfdb_io import DEFAULT_BEAT_SYMBOLS, resolve_beat_codes


def parse_fraction(text: str) -> float:
    """Parse a finite float like "0.25" or a ratio like "2/3"."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as a number or ratio: "
                         f"{exc}") from exc
    if not math.isfinite(value):
        raise UsageError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Settings:
    """Typed view of one configuration file (or pure defaults)."""

    # [data]
    max_record_seconds: float = MAX_RECORD_SECONDS
    train_fraction: float = 2 / 3
    beat_codes: tuple = DEFAULT_BEAT_SYMBOLS
    # [network]
    conv_channels: tuple = (8, 16, 32, 64)
    conv_kernels: tuple = (7, 5, 5, 3)
    fc_sizes: tuple = (128, 32, 2)
    dropout_p: float = 0.5
    bn_eps: float = BN_EPS
    bn_momentum: float = BN_MOMENTUM
    # [train]
    epochs: int = 10
    batch_size: int = 64
    lr: float = LR
    w_nobeat: float = W_NOBEAT
    w_beat: float = W_BEAT
    rho: float = RHO
    eps: float = EPS
    reduction: str = "mean"
    seed: int = 0
    # [evaluate]
    bootstrap_reps: int = BOOTSTRAP_REPS
    bootstrap_fraction: float = BOOTSTRAP_FRACTION

    def network_config(self) -> NetworkConfig:
        if len(self.conv_channels) != 4 or len(self.conv_kernels) != 4:
            raise UsageError("conv_channels and conv_kernels need exactly "
                             "4 entries each")
        ins = (1,) + self.conv_channels[:3]
        blocks = tuple(ConvBlockSpec(i, o, k) for i, o, k in
                       zip(ins, self.conv_channels, self.conv_kernels))
        return NetworkConfig(
            conv_blocks=blocks, fc_sizes=self.fc_sizes,
            dropout_p=self.dropout_p, bn_eps=self.bn_eps,
            bn_momentum=self.bn_momentum)

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            weights=ClassWeights(self.w_nobeat, self.w_beat), lr=self.lr,
            seed=self.seed,
            network=self.network_config(), rho=self.rho, eps=self.eps,
            reduction=self.reduction)


# Section -> keys, in snapshot order; every key is a Settings field.
_SCHEMA = {
    "data": ("max_record_seconds", "train_fraction", "beat_codes"),
    "network": ("conv_channels", "conv_kernels", "fc_sizes", "dropout_p",
                "bn_eps", "bn_momentum"),
    "train": ("epochs", "batch_size", "lr", "w_nobeat", "w_beat", "rho",
              "eps", "reduction", "seed"),
    "evaluate": ("bootstrap_reps", "bootstrap_fraction"),
}
_DEFAULTS = Settings()


def _parse_value(key: str, raw: str):
    """Read ``raw`` as the type of ``key``'s default."""
    default = getattr(_DEFAULTS, key)
    if isinstance(default, float):
        return parse_fraction(raw)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, str):
        return raw.strip()
    tokens = [tok.strip() for tok in raw.split(",")]
    if isinstance(default[0], int):
        return tuple(int(tok) for tok in tokens)
    symbols = tuple(tok for tok in tokens if tok)
    if not symbols:
        raise UsageError("the list names no entry")
    return symbols


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def load_settings(path: str | Path | None = None) -> Settings:
    """Read settings from an INI file; ``None`` gives pure defaults.

    Unknown sections or keys are usage errors, not silent no-ops, so a
    typo cannot quietly fall back to a default.
    """
    if path is None:
        return Settings()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config {path}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown section [{section}] in config "
                             f"{path} (expected {sorted(_SCHEMA)})")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise UsageError(f"unknown key {key!r} in section "
                                 f"[{section}] of config {path}")
            try:
                values[key] = _parse_value(key, raw)
            except (ValueError, UsageError) as exc:
                raise UsageError(f"bad value for {key} in config {path}: "
                                 f"{exc}") from exc
    try:
        settings = Settings(**values)
        settings.train_config()  # runs the network and training checks
        resolve_beat_codes(settings.beat_codes)  # known mnemonics only
        if not settings.max_record_seconds >= WINDOW_SECONDS:
            raise UsageError(f"max_record_seconds must be >= "
                             f"{WINDOW_SECONDS} (one window), got "
                             f"{settings.max_record_seconds}")
        if not 0 < settings.train_fraction < 1:
            raise UsageError(f"train_fraction must be in (0, 1), got "
                             f"{settings.train_fraction}")
        if settings.bootstrap_reps < 2:
            raise UsageError(f"bootstrap_reps must be >= 2, got "
                             f"{settings.bootstrap_reps}")
        if not 0 < settings.bootstrap_fraction <= 1:
            raise UsageError(f"bootstrap_fraction must be in (0, 1], got "
                             f"{settings.bootstrap_fraction}")
    except (ValueError, BeatnetError) as exc:
        raise UsageError(f"bad value in config {path}: {exc}") from exc
    return settings


def section_items(settings: Settings, section: str) -> list[tuple[str, str]]:
    """(key, value text) pairs of one section, as the snapshot writes
    them."""
    return [(key, _format_value(getattr(settings, key)))
            for key in _SCHEMA[section]]


def render_snapshot(settings: Settings) -> str:
    """INI text with every effective value materialized.

    The output parses back into an equal Settings object.
    """
    blocks = []
    for section in _SCHEMA:
        lines = [f"[{section}]"]
        lines.extend(f"{key} = {text}"
                     for key, text in section_items(settings, section))
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
