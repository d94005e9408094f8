"""Scenario orchestration: build the world, drive the load, report the numbers.

Three canned load shapes:

  1. join load: every device repeatedly performs the over-the-air activation
     handshake on a slow randomized timer (no application traffic),
  2. application load: sessions are pre-established and every device pushes
     encrypted readings on a 13..17 s timer,
  3. mixed trust: same as 2 but only a configured fraction of devices is
     registered; the rest self-mint sessions nobody vouches for.

Every run ends with a drain phase: devices stop issuing new work and the
simulation runs a grace period so in-flight frames land and pending batches
cut.  That makes committed-ledger comparisons across deployment modes exact
instead of racy.

Determinism contract: one seed, one trace.  All randomness is drawn from
named engine streams, and device behavior streams depend only on the device,
never the deployment mode, so edge and traditional runs see identical radio
schedules.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass, replace

from .crypto import (
    KeyDirectory,
    ROLE_GATEWAY,
    ROLE_SERVER,
    RootKey,
    derive_session_keys,
    generate_keypair,
    hash_bytes,
)
from .consensus import BatchConfig, ConsensusConfig
from .joinserver import JoinServer
from .ledger import KIND_APPLICATION, KIND_NETWORK, assemble_block, make_network_tx
from .metrics import (
    MetricsRecorder,
    latency_stats,
    report_text,
    write_links_csv,
    write_requests_csv,
)
from .nodes import (
    BEHAVIOR_JOIN_LOOP,
    BEHAVIOR_UPLINK_LOOP,
    DeviceProfile,
    EndDevice,
    Gateway,
    LedgerNode,
    MODE_EDGE,
    MODE_TRADITIONAL,
    NetworkServer,
)
from .scenario import (
    EXPERIMENT_JOIN_LOAD,
    EXPERIMENT_MIXED_TRUST,
    ScenarioConfig,
    validate_config,
)
from .simnet import (
    Engine,
    LatencyModel,
    LINK_CLASS_AIR,
    LINK_CLASS_BACKHAUL,
    US_PER_MS,
    US_PER_S,
    named_stream,
)

DRAIN_GRACE_S = 10
JOIN_CEILING_MS = 5000.0


@dataclass
class World:
    config: ScenarioConfig
    engine: Engine
    recorder: MetricsRecorder
    key_directory: KeyDirectory
    consensus: ConsensusConfig
    devices: list[EndDevice]
    gateways: list[Gateway]
    servers: list[NetworkServer]

    @property
    def duration_us(self) -> int:
        return self.config.duration_s * US_PER_S // self.config.time_compress

    @property
    def warmup_us(self) -> int:
        return self.config.warmup_s * US_PER_S // self.config.time_compress

    def authorized_devices(self) -> list[EndDevice]:
        return [d for d in self.devices if d.authorized]

    def replicas(self, channel: str) -> list[LedgerNode]:
        """The nodes that keep ``channel``'s ledger, gateways first."""
        return [node for node in self.gateways + self.servers if channel in node.channels]

    def home(self, index: int) -> tuple[Gateway, int]:
        """The gateway covering device ``index``, and the device's ordinal there."""
        ordinal, k = divmod(index, self.config.n_gateways)
        return self.gateways[k], ordinal

    def join_server(self, gateway: Gateway) -> JoinServer:
        """The JS answering joins heard by ``gateway``: its own at the edge, else srv0's."""
        return (gateway if self.config.mode == MODE_EDGE else self.servers[0]).core


def device_app_key(dev_eui: bytes) -> bytes:
    """Identity material is fixed per device, independent of seed and mode."""
    return hash_bytes(b"device-app-key:" + dev_eui)[:16]


def _scaled_us(seconds: int, compress: int) -> int:
    return max(seconds * US_PER_S // compress, 1)


def _device_profile(config: ScenarioConfig) -> DeviceProfile:
    if config.experiment == EXPERIMENT_JOIN_LOAD:
        behavior = BEHAVIOR_JOIN_LOOP
        lo, hi = config.join_interval_s
    else:
        behavior = BEHAVIOR_UPLINK_LOOP
        lo, hi = config.uplink_interval_s
    k = config.time_compress
    return DeviceProfile(
        behavior=behavior,
        interval_lo_us=_scaled_us(lo, k),
        interval_hi_us=_scaled_us(hi, k),
        join_timeout_us=_scaled_us(config.join_timeout_s, k),
        uplink_timeout_us=_scaled_us(config.uplink_timeout_s, k),
        payload_bytes=config.payload_bytes,
    )


def build_world(config: ScenarioConfig) -> World:
    engine = Engine(config.seed)
    recorder = MetricsRecorder()
    directory = KeyDirectory()

    gw_ids = ["gw%d" % k for k in range(config.n_gateways)]
    srv_ids = ["srv%d" % k for k in range(config.n_servers)]
    keypairs = {}
    for entity_id in gw_ids + srv_ids:
        kp = generate_keypair(entity_id, config.seed)
        keypairs[entity_id] = kp
        role = ROLE_GATEWAY if entity_id.startswith("gw") else ROLE_SERVER
        directory.add(entity_id, kp.public_key, role)

    if config.mode == MODE_EDGE:
        network_maintainers = tuple(gw_ids + srv_ids)
    else:
        network_maintainers = tuple(srv_ids)
    network_host = gw_ids[0] if config.network_orderer == "gateway" else srv_ids[0]
    consensus = ConsensusConfig(
        mode=config.consensus_mode,
        p=config.consensus_p,
        batch=BatchConfig(
            batch_timeout_ms=config.batch_timeout_ms,
            max_message_count=config.max_message_count,
        ),
        orderer_hosts={KIND_NETWORK: network_host, KIND_APPLICATION: srv_ids[0]},
        maintainers={KIND_NETWORK: network_maintainers, KIND_APPLICATION: tuple(srv_ids)},
    )

    common = dict(
        mode=config.mode,
        engine=engine,
        key_directory=directory,
        consensus=consensus,
        net_id=config.net_id,
    )
    join_delay_us = config.join_processing_delay_ms * US_PER_MS
    gateways = [
        Gateway(e, k, keypair=keypairs[e], join_processing_delay_us=join_delay_us, **common)
        for k, e in enumerate(gw_ids)
    ]
    servers = [NetworkServer(e, k, keypair=keypairs[e], **common) for k, e in enumerate(srv_ids)]
    infra = {node.entity_id: node for node in gateways + servers}

    # full backhaul mesh among infrastructure nodes
    backhaul_lo_us = config.backhaul_latency_ms[0] * US_PER_MS
    backhaul_hi_us = config.backhaul_latency_ms[1] * US_PER_MS
    for src in infra.values():
        for dst in infra.values():
            if src is dst:
                continue
            link = engine.add_link(
                "%s->%s" % (src.entity_id, dst.entity_id),
                src.entity_id,
                dst.entity_id,
                LINK_CLASS_BACKHAUL,
                LatencyModel.uniform(backhaul_lo_us, backhaul_hi_us),
            )
            src.attach_route(dst.entity_id, link)
    for gw in gateways:
        gw.uplink_server = srv_ids[0]
    for srv in servers:
        srv.gateways = tuple(gw_ids)

    world = World(
        config=config,
        engine=engine,
        recorder=recorder,
        key_directory=directory,
        consensus=consensus,
        devices=[],
        gateways=gateways,
        servers=servers,
    )
    profile = _device_profile(config)
    air_latency = LatencyModel.fixed(config.air_latency_ms * US_PER_MS)
    per_gateway = config.n_devices // config.n_gateways
    authorized_per_gateway = round(per_gateway * config.authorized_fraction)
    severed = set(config.severed_gateways)
    for i in range(config.n_devices):
        device_id = "dev%04d" % i
        dev_eui = struct.pack("<Q", i + 1)
        app_eui = struct.pack("<Q", 0x1A2B3C4D)
        app_key = RootKey(device_app_key(dev_eui))  # shared by the device and its registration
        gw, ordinal = world.home(i)
        authorized = ordinal < authorized_per_gateway
        device = EndDevice(
            device_id=device_id,
            index=i,
            dev_eui=dev_eui,
            app_eui=app_eui,
            app_key=app_key,
            engine=engine,
            profile=profile,
            recorder=recorder,
            authorized=authorized,
        )
        loss = 1.0 if gw.index in severed else config.loss_rate
        up = engine.add_link(
            "%s->%s" % (device_id, gw.entity_id),
            device_id,
            gw.entity_id,
            LINK_CLASS_AIR,
            air_latency,
            loss_rate=loss,
        )
        down = engine.add_link(
            "%s->%s" % (gw.entity_id, device_id),
            gw.entity_id,
            device_id,
            LINK_CLASS_AIR,
            air_latency,
            loss_rate=loss,
        )
        device.attach_uplink(up)
        gw.add_coverage(dev_eui, device_id, down)
        if authorized:
            world.join_server(gw).register_device(dev_eui, app_key, device_id)
        world.devices.append(device)
    return world


def bootstrap_sessions(world: World) -> None:
    """Pre-establish sessions for authorized devices and commit them on-chain.

    Keys and nonces come from per-device ``bootstrap:<device>`` streams,
    seeded as the engine seeds its own but not kept once drawn.  The join server
    opens each session as it opens a join's, spending the DevNonce and
    taking the address from its allocator, which hands a gateway's
    authorized devices (its first ordinals, visited in order) the slots
    ``ordinal + 1``, so both deployment modes end up with byte-identical
    device sessions.
    Each context is then sealed and signed by its join server
    (``make_network_tx``), from that server's own stream, in device order.
    Blocks are appended to every network replica directly; no simulated
    traffic is involved.
    """
    config = world.config
    creators: dict[str, list] = {}
    for device in world.authorized_devices():
        gw, _ = world.home(device.index)
        creator = world.join_server(gw)
        boot = named_stream(world.engine.seed, "bootstrap:%s" % device.device_id)
        dev_nonce = boot.randbytes(2)
        app_nonce = boot.randbytes(3)
        nwk_s_key, app_s_key = derive_session_keys(
            device.app_key, app_nonce, config.net_id, dev_nonce
        )
        context = creator.open_session(device.dev_eui, dev_nonce, app_nonce, nwk_s_key, gw.index)
        device.install_session(context.dev_addr, nwk_s_key, app_s_key)
        tx = make_network_tx(world.key_directory, creator.keypair, context, 0, creator.rng)
        creators.setdefault(tx.requester, []).append(tx)

    replicas = [node.ledgers[KIND_NETWORK] for node in world.replicas(KIND_NETWORK)]
    if not replicas:
        return
    height = 0
    tip = None
    for creator_id in sorted(creators):
        block = assemble_block(creators[creator_id], height, 0, tip)
        for ledger in replicas:
            ledger.append_block(block, world.key_directory)
        height += 1
        tip = block


def _kickoff(world: World) -> None:
    config = world.config
    if config.experiment == EXPERIMENT_JOIN_LOAD:
        window_us = _scaled_us(config.join_interval_s[0], config.time_compress)
    else:
        window_us = _scaled_us(config.uplink_interval_s[1], config.time_compress)
    for device in world.devices:
        if config.experiment == EXPERIMENT_MIXED_TRUST and not device.authorized:
            device.self_mint_session()
        offset = device.rng.randrange(0, window_us)
        device.start(offset)


def quiesce(world: World) -> None:
    """Stop new device actions, then let in-flight work settle and commit."""
    for device in world.devices:
        device.muted = True
    world.engine.run_until(world.engine.now_us + DRAIN_GRACE_S * US_PER_S)


def committed_app_payloads(world: World) -> Counter:
    ledger = world.servers[0].ledgers[KIND_APPLICATION]
    return Counter(tx.payload for block in ledger.blocks for tx in block.txs)


def committed_network_tx_count(world: World) -> int:
    ledger = world.replicas(KIND_NETWORK)[0].ledgers[KIND_NETWORK]
    return sum(len(block.txs) for block in ledger.blocks)


def _link_bytes(world: World, src_prefix: str, dst_prefix: str) -> int:
    return sum(
        link.bytes_sent
        for link in world.engine.links.values()
        if link.src.startswith(src_prefix) and link.dst.startswith(dst_prefix)
    )


def summarize(world: World) -> dict:
    config = world.config
    recorder = world.recorder
    summary: dict[str, object] = {}
    summary["experiment"] = config.experiment
    summary["mode"] = config.mode
    summary["devices"] = config.n_devices
    summary["gateways"] = config.n_gateways
    summary["servers"] = config.n_servers
    summary["authorized_fraction"] = config.authorized_fraction
    summary["seed"] = config.seed
    summary["duration_s"] = config.duration_s
    summary["warmup_s"] = config.warmup_s
    summary["time_compress"] = config.time_compress
    summary["events_processed"] = world.engine.events_processed

    joins = recorder.columns("join")
    summary.update(("join." + key, value) for key, value in latency_stats(joins).items())
    if joins.latencies_us:
        within = sum(1 for latency in joins.latencies_us if latency <= JOIN_CEILING_MS * 1000)
        summary["join.within_5s_fraction"] = within / len(joins.latencies_us)
    else:
        summary["join.within_5s_fraction"] = None

    uplinks = recorder.columns("uplink")
    summary.update(("uplink." + key, value) for key, value in latency_stats(uplinks).items())
    window_lo = world.warmup_us
    window_hi = world.duration_us
    steady = sum(1 for at_us in uplinks.completed_us if window_lo <= at_us <= window_hi)
    window_s = (window_hi - window_lo) / US_PER_S
    summary["uplink.steady_completed"] = steady
    summary["uplink.steady_throughput_per_s"] = steady / window_s if window_s > 0 else None

    summary["bytes.gateway_to_server"] = _link_bytes(world, "gw", "srv")
    summary["bytes.server_to_gateway"] = _link_bytes(world, "srv", "gw")
    summary["bytes.device_to_gateway"] = _link_bytes(world, "dev", "gw")
    summary["bytes.gateway_to_device"] = _link_bytes(world, "gw", "dev")
    summary["bytes.backhaul_total"] = sum(
        link.bytes_sent
        for link in world.engine.links.values()
        if link.link_class == LINK_CLASS_BACKHAUL
    )

    for node in world.gateways + world.servers:
        summary["work.%s" % node.entity_id] = node.work_units
    summary["work.gateways_total"] = sum(gw.work_units for gw in world.gateways)
    summary["work.servers_total"] = sum(srv.work_units for srv in world.servers)

    for gw in world.gateways:
        summary["filtered.%s" % gw.entity_id] = gw.filtered_frames
    summary["filtered.servers_total"] = sum(s.filtered_frames for s in world.servers)

    network_heights = [n.ledgers[KIND_NETWORK].height for n in world.replicas(KIND_NETWORK)]
    app_heights = [n.ledgers[KIND_APPLICATION].height for n in world.replicas(KIND_APPLICATION)]
    summary["ledger.network.height"] = network_heights[0] if network_heights else 0
    summary["ledger.network.txs"] = committed_network_tx_count(world)
    summary["ledger.app.height"] = app_heights[0] if app_heights else 0
    summary["ledger.app.txs"] = sum(committed_app_payloads(world).values())
    summary["ledger.heights_equal"] = len(set(network_heights)) <= 1 and len(
        set(app_heights)
    ) <= 1
    summary["consensus.invalid_blocks"] = sum(
        n.invalid_blocks for n in world.gateways + world.servers
    )
    summary["consensus.failed_rounds"] = sum(
        n.failed_rounds for n in world.gateways + world.servers
    )
    return summary


@dataclass
class RunResult:
    config: ScenarioConfig
    world: World
    summary: dict

    def emit(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        write_requests_csv(os.path.join(out_dir, "requests.csv"), self.world.recorder)
        write_links_csv(
            os.path.join(out_dir, "links.csv"), list(self.world.engine.links.values())
        )
        with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write(report_text(self.summary))


def run_experiment(config: ScenarioConfig) -> RunResult:
    world = build_world(config)
    if config.experiment != EXPERIMENT_JOIN_LOAD:
        bootstrap_sessions(world)
    _kickoff(world)
    world.engine.run_until(world.duration_us)
    quiesce(world)
    return RunResult(config=config, world=world, summary=summarize(world))


@dataclass
class CompareResult:
    edge: RunResult
    traditional: RunResult
    comparison: dict

    def emit(self, out_dir: str) -> None:
        self.edge.emit(os.path.join(out_dir, "edge"))
        self.traditional.emit(os.path.join(out_dir, "traditional"))
        with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as fh:
            fh.write(report_text(self.comparison))


def compare_modes(config: ScenarioConfig) -> CompareResult:
    edge_config = replace(config, mode=MODE_EDGE)
    traditional_config = replace(config, mode=MODE_TRADITIONAL)
    validate_config(edge_config)
    validate_config(traditional_config)
    edge = run_experiment(edge_config)
    traditional = run_experiment(traditional_config)
    e, t = edge.summary, traditional.summary

    comparison: dict[str, object] = {}
    comparison["devices"] = config.n_devices
    comparison["experiment"] = config.experiment
    comparison["seed"] = config.seed
    edge_bytes = e["bytes.gateway_to_server"]
    trad_bytes = t["bytes.gateway_to_server"]
    comparison["bytes.gateway_to_server.edge"] = edge_bytes
    comparison["bytes.gateway_to_server.traditional"] = trad_bytes
    comparison["bytes.saved"] = trad_bytes - edge_bytes
    comparison["bytes.reduction_pct"] = (
        100.0 * (trad_bytes - edge_bytes) / trad_bytes if trad_bytes else None
    )
    comparison["work.servers.edge"] = e["work.servers_total"]
    comparison["work.servers.traditional"] = t["work.servers_total"]
    comparison["work.servers.edge_over_traditional_pct"] = (
        100.0 * e["work.servers_total"] / t["work.servers_total"]
        if t["work.servers_total"]
        else None
    )
    comparison["work.gateways.edge"] = e["work.gateways_total"]
    comparison["work.gateways.traditional"] = t["work.gateways_total"]
    edge_thr = e["uplink.steady_throughput_per_s"]
    trad_thr = t["uplink.steady_throughput_per_s"]
    comparison["uplink.steady_throughput_per_s.edge"] = edge_thr
    comparison["uplink.steady_throughput_per_s.traditional"] = trad_thr
    comparison["uplink.throughput_delta_pct"] = (
        100.0 * (edge_thr - trad_thr) / trad_thr if trad_thr else None
    )
    comparison["app_payloads.multisets_equal"] = committed_app_payloads(
        edge.world
    ) == committed_app_payloads(traditional.world)
    return CompareResult(edge=edge, traditional=traditional, comparison=comparison)
