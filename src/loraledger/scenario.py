"""Scenario configuration: defaults, config-file parsing, validation.

Config files are flat ``key = value`` lines with ``#`` comments.  Command-line
flags override file values, which override built-in defaults.  Experiment
presets (duration, device behavior, authorized fraction) fill in last, and
only for fields the user left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


class ConfigError(Exception):
    """The scenario description is unusable; exit code 2 territory."""


EXPERIMENT_JOIN_LOAD = 1
EXPERIMENT_APP_LOAD = 2
EXPERIMENT_MIXED_TRUST = 3

DEFAULT_DURATION_S = {
    EXPERIMENT_JOIN_LOAD: 7200,
    EXPERIMENT_APP_LOAD: 360,
    EXPERIMENT_MIXED_TRUST: 360,
}


@dataclass(frozen=True)
class ScenarioConfig:
    experiment: int = EXPERIMENT_APP_LOAD
    mode: str = "edge"
    n_devices: int = 100
    n_gateways: int = 4
    n_servers: int = 2
    authorized_fraction: float | None = None  # preset: 1.0 (exp 1, 2) or 0.5 (exp 3)
    seed: int = 0
    duration_s: int | None = None  # preset per experiment
    warmup_s: int | None = None  # preset: min(60, duration // 6)
    payload_bytes: int = 20
    join_interval_s: tuple[int, int] = (600, 7200)
    join_timeout_s: int = 300
    uplink_interval_s: tuple[int, int] = (13, 17)
    uplink_timeout_s: int = 30
    air_latency_ms: int = 400
    backhaul_latency_ms: tuple[int, int] = (5, 20)
    loss_rate: float = 0.0
    consensus_mode: str = "solo"
    consensus_p: int = 0
    batch_timeout_ms: int = 2000
    max_message_count: int = 200
    network_orderer: str = "server"  # "server" | "gateway": who hosts the network channel
    join_processing_delay_ms: int = 0
    time_compress: int = 1
    severed_gateways: tuple[int, ...] = ()
    net_id: bytes = b"\x00\x00\x13"


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % text) from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError("expected a number, got %r" % text) from None


def _parse_str(text: str) -> str:
    return text


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError("expected 'lo,hi', got %r" % text)
    return (_parse_int(parts[0]), _parse_int(parts[1]))


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_int(p.strip()) for p in text.split(","))


def _parse_hex_bytes(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise ConfigError("expected hex bytes, got %r" % text) from None


# config-file key -> (dataclass field, parser)
KEY_MAP = {
    "experiment": ("experiment", _parse_int),
    "mode": ("mode", _parse_str),
    "devices": ("n_devices", _parse_int),
    "gateways": ("n_gateways", _parse_int),
    "servers": ("n_servers", _parse_int),
    "authorized_fraction": ("authorized_fraction", _parse_float),
    "seed": ("seed", _parse_int),
    "duration_s": ("duration_s", _parse_int),
    "warmup_s": ("warmup_s", _parse_int),
    "payload_bytes": ("payload_bytes", _parse_int),
    "join.interval_s": ("join_interval_s", _parse_int_pair),
    "join.timeout_s": ("join_timeout_s", _parse_int),
    "uplink.interval_s": ("uplink_interval_s", _parse_int_pair),
    "uplink.timeout_s": ("uplink_timeout_s", _parse_int),
    "link.air_latency_ms": ("air_latency_ms", _parse_int),
    "link.backhaul_latency_ms": ("backhaul_latency_ms", _parse_int_pair),
    "link.loss_rate": ("loss_rate", _parse_float),
    "consensus.mode": ("consensus_mode", _parse_str),
    "consensus.p": ("consensus_p", _parse_int),
    "consensus.batch_timeout_ms": ("batch_timeout_ms", _parse_int),
    "consensus.max_message_count": ("max_message_count", _parse_int),
    "consensus.network_orderer": ("network_orderer", _parse_str),
    "gateway.join_processing_delay_ms": ("join_processing_delay_ms", _parse_int),
    "time_compress": ("time_compress", _parse_int),
    "severed_gateways": ("severed_gateways", _parse_int_list),
    "net_id": ("net_id", _parse_hex_bytes),
}


def parse_config_file(path: str) -> dict[str, object]:
    """Read ``key = value`` lines into dataclass-field overrides."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from None
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        entry = KEY_MAP.get(key)
        if entry is None:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        field_name, parser = entry
        try:
            overrides[field_name] = parser(value.strip())
        except ConfigError as exc:
            raise ConfigError("%s:%d: %s" % (path, lineno, exc)) from None
    return overrides


def build_config(
    file_overrides: dict[str, object] | None = None,
    flag_overrides: dict[str, object] | None = None,
) -> ScenarioConfig:
    """Layer defaults, file values, flags; then apply experiment presets."""
    values: dict[str, object] = {}
    values.update(file_overrides or {})
    values.update({k: v for k, v in (flag_overrides or {}).items() if v is not None})
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError("unknown config fields: %s" % ", ".join(sorted(unknown)))
    config = replace(ScenarioConfig(), **values)
    if config.duration_s is None:
        preset = DEFAULT_DURATION_S.get(config.experiment)
        config = replace(config, duration_s=preset)
    if config.warmup_s is None and config.duration_s is not None and config.duration_s > 0:
        config = replace(config, warmup_s=min(60, config.duration_s // 6))
    if config.authorized_fraction is None:
        preset_fraction = 0.5 if config.experiment == EXPERIMENT_MIXED_TRUST else 1.0
        config = replace(config, authorized_fraction=preset_fraction)
    validate_config(config)
    return config


def validate_config(config: ScenarioConfig) -> None:
    if config.experiment not in (1, 2, 3):
        raise ConfigError("experiment must be 1, 2, or 3")
    if config.mode not in ("edge", "traditional"):
        raise ConfigError("mode must be 'edge' or 'traditional'")
    if config.n_devices <= 0:
        raise ConfigError("devices must be positive")
    if config.n_gateways <= 0 or config.n_servers <= 0:
        raise ConfigError("gateway and server counts must be positive")
    if config.n_gateways > 256:
        # a device address's first byte is its gateway's index
        raise ConfigError("at most 256 gateways: one device address prefix each")
    if config.n_devices % config.n_gateways != 0:
        raise ConfigError(
            "devices (%d) must divide evenly across gateways (%d)"
            % (config.n_devices, config.n_gateways)
        )
    if not 0.0 <= config.authorized_fraction <= 1.0:
        raise ConfigError("authorized_fraction must be within [0, 1]")
    if config.experiment in (EXPERIMENT_JOIN_LOAD, EXPERIMENT_APP_LOAD):
        if config.authorized_fraction != 1.0:
            raise ConfigError("experiments 1 and 2 require authorized_fraction = 1.0")
    per_gateway = config.n_devices // config.n_gateways
    authorized_per_gateway = per_gateway * config.authorized_fraction
    if abs(authorized_per_gateway - round(authorized_per_gateway)) > 1e-9:
        raise ConfigError(
            "authorized_fraction %g does not split %d devices per gateway evenly"
            % (config.authorized_fraction, per_gateway)
        )
    if config.duration_s is None or config.duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    if config.warmup_s is None or config.warmup_s < 0 or config.warmup_s >= config.duration_s:
        raise ConfigError("warmup_s must be within [0, duration)")
    if not 6 <= config.payload_bytes <= 242:
        raise ConfigError("payload_bytes must be within [6, 242]")
    for name, pair in (
        ("join.interval_s", config.join_interval_s),
        ("uplink.interval_s", config.uplink_interval_s),
        ("link.backhaul_latency_ms", config.backhaul_latency_ms),
    ):
        if len(pair) != 2 or pair[0] <= 0 or pair[0] > pair[1]:
            raise ConfigError("%s must satisfy 0 < lo <= hi" % name)
    if config.join_timeout_s <= 0 or config.uplink_timeout_s <= 0:
        raise ConfigError("timeouts must be positive")
    if config.air_latency_ms <= 0:
        raise ConfigError("air latency must be positive")
    if not 0.0 <= config.loss_rate < 1.0:
        raise ConfigError("loss_rate must be within [0, 1)")
    if config.consensus_mode not in ("solo", "pbft"):
        raise ConfigError("consensus.mode must be 'solo' or 'pbft'")
    if config.consensus_p < 0:
        raise ConfigError("consensus.p must be non-negative")
    if config.consensus_mode == "pbft":
        network_voters = (
            config.n_gateways + config.n_servers
            if config.mode == "edge"
            else config.n_servers
        )
        threshold = 2 * config.consensus_p + 1
        if threshold > min(network_voters, config.n_servers):
            raise ConfigError(
                "vote threshold 2p+1 = %d exceeds the smallest voter set" % threshold
            )
    if config.batch_timeout_ms <= 0 or config.max_message_count <= 0:
        raise ConfigError("batch parameters must be positive")
    if config.network_orderer not in ("server", "gateway"):
        raise ConfigError("consensus.network_orderer must be 'server' or 'gateway'")
    if config.network_orderer == "gateway" and config.mode == "traditional":
        raise ConfigError(
            "consensus.network_orderer = gateway needs edge mode: "
            "traditional gateways keep no network ledger"
        )
    if config.join_processing_delay_ms < 0:
        raise ConfigError("join_processing_delay_ms must be non-negative")
    if config.time_compress < 1:
        raise ConfigError("time_compress must be >= 1")
    for index in config.severed_gateways:
        if not 0 <= index < config.n_gateways:
            raise ConfigError("severed gateway index %d out of range" % index)
    if len(config.net_id) != 3:
        raise ConfigError("net_id must be exactly 3 bytes of hex")
