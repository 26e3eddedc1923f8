"""Run configuration: a flat INI file with one section per pipeline stage.

Every knob has a default matching the protocol this package implements;
:func:`render_snapshot` materializes all of them (defaults included)
into the text written to each run directory, so a run records exactly
what it used even where the user's file was silent. Fractions may be
written as ratios ("2/3").
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import BeatnetError, UsageError
from .loss import W_BEAT, W_NOBEAT, ClassWeights
from .metrics import BOOTSTRAP_FRACTION, BOOTSTRAP_REPS
from .nn import BN_EPS, BN_MOMENTUM, ConvBlockSpec, NetworkConfig
from .optim import EPS, LR, RHO
from .segments import MAX_RECORD_SECONDS
from .train import TrainConfig
from .wfdb_io import DEFAULT_BEAT_SYMBOLS


def parse_fraction(text: str) -> float:
    """Parse "0.25" or a ratio like "2/3"."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse fraction {text!r}: {exc}") from exc


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be comma-separated integers, got "
                         f"{text!r}") from exc


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
    pool_kernel: int = 2
    input_length: int = 250
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
            dropout_p=self.dropout_p, pool_kernel=self.pool_kernel,
            input_length=self.input_length, bn_eps=self.bn_eps,
            bn_momentum=self.bn_momentum)

    def train_config(self, seed: int | None = None,
                     freeze_conv: bool = False) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            weights=ClassWeights(self.w_nobeat, self.w_beat), lr=self.lr,
            seed=self.seed if seed is None else seed,
            freeze_conv=freeze_conv, network=self.network_config(),
            rho=self.rho, eps=self.eps, reduction=self.reduction)


_SCHEMA = {
    "data": ("max_record_seconds", "train_fraction", "beat_codes"),
    "network": ("conv_channels", "conv_kernels", "fc_sizes", "dropout_p",
                "pool_kernel", "input_length", "bn_eps", "bn_momentum"),
    "train": ("epochs", "batch_size", "lr", "w_nobeat", "w_beat", "rho",
              "eps", "reduction", "seed"),
    "evaluate": ("bootstrap_reps", "bootstrap_fraction"),
}


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
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"malformed config {path}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise UsageError(f"unknown config section [{section}] "
                             f"(expected {sorted(_SCHEMA)})")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise UsageError(f"unknown key {key!r} in section "
                                 f"[{section}]")
            values[key] = raw
    try:
        settings = _settings_from_strings(values)
        settings.train_config()  # runs the network and training checks
        if not settings.max_record_seconds > 0:
            raise UsageError(f"max_record_seconds must be > 0, got "
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


def _settings_from_strings(v: dict) -> Settings:
    kwargs = {}
    if "max_record_seconds" in v:
        kwargs["max_record_seconds"] = float(v["max_record_seconds"])
    if "train_fraction" in v:
        kwargs["train_fraction"] = parse_fraction(v["train_fraction"])
    if "beat_codes" in v:
        symbols = tuple(tok.strip() for tok in v["beat_codes"].split(",")
                        if tok.strip())
        if not symbols:
            raise UsageError("beat_codes must name at least one annotation "
                             "mnemonic")
        kwargs["beat_codes"] = symbols
    if "conv_channels" in v:
        kwargs["conv_channels"] = _parse_ints(v["conv_channels"],
                                              "conv_channels")
    if "conv_kernels" in v:
        kwargs["conv_kernels"] = _parse_ints(v["conv_kernels"],
                                             "conv_kernels")
    if "fc_sizes" in v:
        kwargs["fc_sizes"] = _parse_ints(v["fc_sizes"], "fc_sizes")
    for key in ("dropout_p", "bn_eps", "bn_momentum", "lr", "w_nobeat",
                "w_beat", "rho", "eps"):
        if key in v:
            kwargs[key] = float(v[key])
    for key in ("pool_kernel", "input_length", "epochs", "batch_size",
                "seed", "bootstrap_reps"):
        if key in v:
            kwargs[key] = int(v[key])
    if "reduction" in v:
        kwargs["reduction"] = v["reduction"].strip()
    if "bootstrap_fraction" in v:
        kwargs["bootstrap_fraction"] = parse_fraction(v["bootstrap_fraction"])
    return Settings(**kwargs)


def render_snapshot(settings: Settings, seed: int | None = None) -> str:
    """INI text with every effective value materialized.

    ``seed`` (e.g. a --seed override) replaces the [train] seed when
    given. The output parses back into an equal Settings object.
    """
    eff_seed = settings.seed if seed is None else seed

    def ints(values) -> str:
        return ",".join(str(x) for x in values)

    lines = [
        "[data]",
        f"max_record_seconds = {settings.max_record_seconds!r}",
        f"train_fraction = {settings.train_fraction!r}",
        f"beat_codes = {','.join(settings.beat_codes)}",
        "",
        "[network]",
        f"conv_channels = {ints(settings.conv_channels)}",
        f"conv_kernels = {ints(settings.conv_kernels)}",
        f"fc_sizes = {ints(settings.fc_sizes)}",
        f"dropout_p = {settings.dropout_p!r}",
        f"pool_kernel = {settings.pool_kernel}",
        f"input_length = {settings.input_length}",
        f"bn_eps = {settings.bn_eps!r}",
        f"bn_momentum = {settings.bn_momentum!r}",
        "",
        "[train]",
        f"epochs = {settings.epochs}",
        f"batch_size = {settings.batch_size}",
        f"lr = {settings.lr!r}",
        f"w_nobeat = {settings.w_nobeat!r}",
        f"w_beat = {settings.w_beat!r}",
        f"rho = {settings.rho!r}",
        f"eps = {settings.eps!r}",
        f"reduction = {settings.reduction}",
        f"seed = {eff_seed}",
        "",
        "[evaluate]",
        f"bootstrap_reps = {settings.bootstrap_reps}",
        f"bootstrap_fraction = {settings.bootstrap_fraction!r}",
        "",
    ]
    return "\n".join(lines)
