"""Run configuration: a flat INI file with one section per pipeline stage.

Every knob has a default matching the protocol this package implements;
:func:`render_snapshot` materializes all of them (defaults included)
into the text written to each run directory, so a run records exactly
what it used even where the user's file was silent. Each value is read
by the type of its default: floats (which may be written as ratios,
"2/3"), integers, strings, and comma-separated lists.

:class:`Settings` checks every value when it is constructed, so a file
read by :func:`load_settings`, a ``Settings(...)`` built in code and one
changed with ``dataclasses.replace`` all pass the same checks.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, UsageError
from .loss import W_BEAT, W_NOBEAT, ClassWeights
from .metrics import BOOTSTRAP_FRACTION, BOOTSTRAP_REPS
from .nn import NetworkConfig
from .optim import EPS, LR, RHO, AdaDeltaState
from .segments import MAX_RECORD_SECONDS, WINDOW_SECONDS
from .wfdb_io import DEFAULT_BEAT_SYMBOLS, resolve_beat_codes


def parse_fraction(text: str) -> float:
    """Parse a float like "0.25" or a ratio like "2/3"."""
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
    return value


_DEFAULT_NETWORK = NetworkConfig()


@dataclass(frozen=True)
class Settings:
    """The run configuration: every value a run depends on besides its
    data, as read from one configuration file (or pure defaults).

    ``epochs`` may be 0, which runs no updates and returns the initial
    parameters.
    """

    # [data]
    max_record_seconds: float = MAX_RECORD_SECONDS
    train_fraction: float = 2 / 3
    beat_codes: tuple = DEFAULT_BEAT_SYMBOLS
    # [network], with the defaults of the class that owns the geometry
    conv_channels: tuple = _DEFAULT_NETWORK.conv_channels
    conv_kernels: tuple = _DEFAULT_NETWORK.conv_kernels
    fc_sizes: tuple = _DEFAULT_NETWORK.fc_sizes
    dropout_p: float = _DEFAULT_NETWORK.dropout_p
    bn_eps: float = _DEFAULT_NETWORK.bn_eps
    bn_momentum: float = _DEFAULT_NETWORK.bn_momentum
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

    def __post_init__(self):
        """Check every value; the types that own a value check it, and
        every message names the key or keys it is about."""
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"{key} must be a finite number, got "
                                 f"{value}")
        for key, low in (("epochs", 0), ("batch_size", 1), ("seed", 0),
                         ("bootstrap_reps", 2)):
            if getattr(self, key) < low:
                raise UsageError(f"{key} must be >= {low}, got "
                                 f"{getattr(self, key)}")
        if self.reduction not in ("mean", "sum"):
            raise UsageError(f"unknown reduction {self.reduction!r}")
        if not self.max_record_seconds >= WINDOW_SECONDS:
            raise UsageError(f"max_record_seconds must be >= "
                             f"{WINDOW_SECONDS} (one window), got "
                             f"{self.max_record_seconds}")
        if not 0 < self.train_fraction < 1:
            raise UsageError(f"train_fraction must be in (0, 1), got "
                             f"{self.train_fraction}")
        if not 0 < self.bootstrap_fraction <= 1:
            raise UsageError(f"bootstrap_fraction must be in (0, 1], got "
                             f"{self.bootstrap_fraction}")
        try:
            self.network_config()
            ClassWeights(self.w_nobeat, self.w_beat)
            AdaDeltaState(rho=self.rho, eps=self.eps, lr=self.lr)
        except (ValueError, DataError) as exc:
            raise UsageError(str(exc)) from exc
        try:
            resolve_beat_codes(self.beat_codes)
        except (ValueError, DataError) as exc:
            raise UsageError(f"beat_codes: {exc}") from exc

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(**{key: getattr(self, key)
                                for key in _SCHEMA["network"]})


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
    return tuple(tok for tok in tokens if tok)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def load_settings(path: str | Path | None = None) -> Settings:
    """Read settings from an INI file; ``None`` gives pure defaults.

    Unknown sections (``[DEFAULT]`` included) or keys are usage errors,
    not silent no-ops, so a typo cannot quietly fall back to a default.
    """
    if path is None:
        return Settings()
    # No section header can be empty, so "[DEFAULT]" is an ordinary,
    # unknown section rather than defaults copied into every other one.
    parser = configparser.ConfigParser(interpolation=None,
                                       default_section="")
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
        return Settings(**values)
    except UsageError as exc:
        raise UsageError(f"bad value in config {path}: {exc}") from exc


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
