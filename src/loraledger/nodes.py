"""Node state machines: end devices, gateways, and network servers.

Gateways and servers are ``consensus.Replica`` subclasses: the ordering and
commit protocol lives there, and ``LedgerNode`` gives it the engine's clock,
backhaul routes and timers.

Two deployment modes share these classes.  The join server (JS), which
answers joins, and the network controller (NC), which verifies and ACKs
uplinks, exist once, on ``LedgerNode``, and run on whichever node hosts them:
each gateway in edge mode, the first network server in traditional mode.
Edge gateways forward only (device address, frame counter, encrypted
payload) upstream and keep a replica of the network ledger; traditional
gateways are transparent pipes, with full frames crossing the backhaul in
both directions.  The modes differ in three ways only:

  1. a new device address takes the index of the gateway the join came
     through as its prefix,
  2. a downlink frame goes out over the node's own radio (gateway) or as a
     ``DownlinkFrameForward`` to that gateway (server),
  3. a verified uplink is forwarded as an ``UplinkNotice`` (gateway) or
     wrapped into an application transaction (server).

Application payloads stay encrypted under the device's application session
key end to end; gateways and servers never derive or hold that key, so no
state machine here can observe application plaintext.

Each class maps payload types to handlers in a class-level table, and binds
the one dispatcher, ``_dispatch``, as its ``handle``: it runs the handler of
the delivered payload's type.

Work units are a coarse CPU proxy: frame parse or encapsulation costs 1, MIC
verification or computation 2, a world-state context query 1, and building a
ledger transaction 3.  Backhaul envelope handling and block validation are
not charged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .consensus import Channel, ConsensusConfig, Replica
from .crypto import (
    KEY_LEN,
    BadKeyError,
    DecryptionError,
    KeyDirectory,
    KeyPair,
    RootKey,
    derive_session_keys,
    pk_decrypt,
)
from .frames import (
    DEV_ADDR_LEN,
    DEV_NONCE_LEN,
    DIR_DOWN,
    DIR_UP,
    MAX_FCNT,
    MAX_FRM_PAYLOAD,
    DataFrame,
    EncryptedJoinAccept,
    JoinRequest,
    MalformedFrameError,
    MicMismatchError,
    SessionKeys,
    build_data_frame,
    build_join_accept,
    build_join_request,
    encrypt_payload,
    decrypt_payload,
    open_join_accept,
    parse_frame,
    verify_data_mic,
    verify_join_request,
)
from .ledger import (
    KIND_APPLICATION,
    KIND_NETWORK,
    SessionContext,
    WorldEntry,
    make_app_tx,
    make_network_tx,
)
from .simnet import Engine, Link, US_PER_MS

MODE_EDGE = "edge"
MODE_TRADITIONAL = "traditional"

WU_PARSE = 1
WU_MIC = 2
WU_QUERY = 1
WU_TX_BUILD = 3

UNAUTHORIZED_ADDR_PREFIX = 0xFF
#: the top half of each prefix's 24-bit address counter is kept for ABP devices,
#: so the join allocator, which hands out the counters below it, never meets one
ABP_COUNTER_MIN = 0x800000
APP_FPORT = 1  # every application uplink and downlink; ACKs go on port 0


# ---------------------------------------------------------------------------
# backhaul messages (sizes documented in docs/wire.md)


@dataclass(frozen=True)
class UplinkNotice:
    """Edge gateway -> server: one verified uplink, trimmed to essentials."""

    dev_addr: bytes
    fcnt: int
    payload: bytes

    def wire_size(self) -> int:
        return 1 + 4 + 2 + 2 + len(self.payload)


@dataclass(frozen=True)
class FrameForward:
    """Traditional gateway -> server: the full frame plus the gateway's identity."""

    gateway_id: str
    frame: bytes

    def wire_size(self) -> int:
        return 1 + 8 + 2 + len(self.frame)


@dataclass(frozen=True)
class DownlinkData:
    """Edge server -> gateway: encrypted payload only; the gateway builds the frame."""

    dev_addr: bytes
    fcnt: int
    payload: bytes

    def wire_size(self) -> int:
        return 1 + 4 + 2 + 2 + len(self.payload)


@dataclass(frozen=True)
class DownlinkFrameForward:
    """Server -> gateway: a ready frame plus a radio routing token.

    A gateway also schedules one to itself to send a join accept late.
    """

    frame: bytes
    device_id: str

    def wire_size(self) -> int:
        return 1 + 8 + 2 + len(self.frame)


# ---------------------------------------------------------------------------
# timers


@dataclass(frozen=True)
class TimerNextAction:
    pass


# the timer holds no fields, so every device schedules this one
_NEXT_ACTION = TimerNextAction()


@dataclass(frozen=True)
class TimerJoinTimeout:
    pass


class TimerUplinkTimeout(int):
    """An uplink's ACK timer: the uplink's request id, as a type of its own."""

    __slots__ = ()


def format_dev_addr(prefix: int, counter: int) -> bytes:
    """Creator-index prefix byte plus a 3-byte little-endian counter."""
    if not 0 <= prefix <= 0xFF:
        raise ValueError("prefix out of range")
    if not 1 <= counter <= 0xFFFFFF:
        raise ValueError("address counter exhausted")
    return bytes([prefix]) + struct.pack("<I", counter)[:3]


def _dispatch(node, payload) -> None:
    """Run the handler that ``node``'s class maps the payload's type to."""
    handler = node._HANDLERS.get(type(payload))
    if handler is None:
        raise TypeError("%s cannot handle %r" % (type(node).__name__, payload))
    handler(node, payload)


@dataclass
class Registration:
    """What the join server keeps for one registered device."""

    app_key: RootKey  # the device's own object, shared with it
    device_id: str
    dev_addr: bytes | None = None  # assigned once, kept across rejoins
    spent_nonces: set[bytes] = field(default_factory=set)


@dataclass(slots=True)
class NcSession:
    """What the network controller tracks for one device address."""

    context: SessionContext
    device_id: str | None  # radio route for ACKs and downlinks; None if out of coverage
    last_fcnt_up: int = -1
    next_fcnt_down: int = 0  # counts the NC's ACKs only; see docs/wire.md
    keys: SessionKeys = field(init=False, repr=False)  # the context's data-frame keys

    def __post_init__(self) -> None:
        self.keys = SessionKeys(self.context.dev_addr, self.context.nwk_s_key)


class LedgerNode(Replica):
    """A gateway or server: a consensus replica on the engine, plus the JS and NC.

    It gives the replica its clock, backhaul routes and timers.  The join
    server and network controller run on the node that hosts them in the
    deployment mode.  Subclasses supply the steps where the modes differ:
    ``_address_prefix``, ``_downlink`` and ``_ingest``.
    """

    def __init__(
        self,
        entity_id: str,
        index: int,
        mode: str,
        keypair: KeyPair,
        engine: Engine,
        key_directory: KeyDirectory,
        consensus: ConsensusConfig,
        net_id: bytes,
    ) -> None:
        super().__init__(entity_id, keypair, key_directory, consensus)
        self.index = index
        self.mode = mode
        self.engine = engine
        self.net_id = net_id
        self.rng = engine.stream("node:%s" % entity_id)
        self.routes: dict[str, Link] = {}
        self.work_units = 0
        # join server and network controller state
        self.registry: dict[bytes, Registration] = {}  # by device EUI
        self._addr_counters: dict[int, int] = {}  # last address counter, by prefix
        self.sessions: dict[bytes, NcSession] = {}
        self.held_keys: dict[str, bytes] = {}
        self.coverage: dict[bytes, str] = {}  # device EUI -> device id; gateways only
        self.filtered_frames = 0
        self.acks_sent = 0
        self.joins_accepted = 0
        engine.register(entity_id, self.handle)

    @property
    def now_ms(self) -> int:
        return self.engine.now_us // US_PER_MS

    def attach_route(self, peer_id: str, link: Link) -> None:
        self.routes[peer_id] = link

    def _send(self, peer_id: str, message) -> None:
        self.engine.send(self.routes[peer_id], message, message.wire_size())

    def _to_peers(self, channel: Channel, message) -> None:
        if channel.peers:  # sized once: a block's size serializes the whole block
            size = message.wire_size()
            for peer in channel.peers:
                self.engine.send(self.routes[peer], message, size)

    def _set_timer(self, at_ms: int, tick) -> None:
        delay_us = at_ms * US_PER_MS - self.engine.now_us
        self.engine.schedule(max(delay_us, 0), self.entity_id, tick)

    # -- join server and network controller --

    def register_device(self, dev_eui: bytes, app_key: RootKey, device_id: str) -> None:
        self.registry[dev_eui] = Registration(app_key, device_id)

    def _next_address(self, prefix: int) -> tuple[bytes, int]:
        """The prefix's next join address and its counter, claiming neither.

        Joins take the counters below ``ABP_COUNTER_MIN`` in order, and only
        this node's join server hands out its prefixes' join addresses, so
        the next counter is always free.
        """
        counter = self._addr_counters.get(prefix, 0) + 1
        if counter >= ABP_COUNTER_MIN:
            raise ValueError("join address counter exhausted")
        return format_dev_addr(prefix, counter), counter

    def _address_free(self, dev_addr: bytes) -> bool:
        """No session here and no context on this node's network ledger use ``dev_addr``."""
        return dev_addr not in self.sessions and self._committed_context(dev_addr) is None

    def _committed_context(self, dev_addr: bytes) -> WorldEntry | None:
        """This node's committed context for an address; None without a network replica."""
        network = self.channels.get(KIND_NETWORK)  # None on a traditional gateway
        return None if network is None else network.ledger.query_context(dev_addr)

    def open_session(
        self, dev_eui: bytes, dev_nonce: bytes, app_nonce: bytes, nwk_s_key: bytes, prefix: int
    ) -> SessionContext:
        """Spend a registered device's DevNonce, address it and serve its new session.

        The context checks every field before anything is spent, so a refused
        call leaves the nonce unspent and no address assigned.
        """
        registration = self.registry[dev_eui]
        dev_addr, counter = registration.dev_addr, None
        if dev_addr is None:
            dev_addr, counter = self._next_address(prefix)
        context = SessionContext(
            dev_eui=dev_eui,
            app_key=registration.app_key.key,
            dev_addr=dev_addr,
            nwk_s_key=nwk_s_key,
            dev_nonce=dev_nonce,
            app_nonce=app_nonce,
        )
        registration.spent_nonces.add(dev_nonce)
        if counter is not None:
            registration.dev_addr, self._addr_counters[prefix] = dev_addr, counter
        self.sessions[dev_addr] = NcSession(context, registration.device_id)
        return context

    def receive_key_handover(self, entity_id: str, private_key: bytes) -> None:
        """Out-of-band private-key copy from a failing gateway."""
        if len(private_key) != KEY_LEN:
            raise BadKeyError("private key must be %d bytes" % KEY_LEN)
        self.held_keys[entity_id] = private_key

    def _publish_context(self, context: SessionContext) -> None:
        """Sign a new session's context and submit it to the network ledger."""
        self.work_units += WU_TX_BUILD
        tx = make_network_tx(self.directory, self.keypair, context, self.now_ms, self.rng)
        self.submit_tx(KIND_NETWORK, tx)

    def _on_frame(self, data: bytes, via: str) -> None:
        """Classify one device frame that arrived through gateway ``via``."""
        self.work_units += WU_PARSE
        try:
            frame = parse_frame(data)
        except MalformedFrameError:
            self.filtered_frames += 1
            return
        if isinstance(frame, JoinRequest):
            self._js_join(frame, via)
        elif isinstance(frame, DataFrame) and frame.direction == DIR_UP and frame.payload:
            self._nc_uplink(frame, data, via)
        else:
            self.filtered_frames += 1  # includes uplinks with nothing to put on a ledger

    def _js_join(self, frame: JoinRequest, via: str) -> None:
        registration = self.registry.get(frame.dev_eui)
        if registration is None:
            self.filtered_frames += 1
            return
        app_key, device_id = registration.app_key, registration.device_id
        self.work_units += WU_MIC
        if (
            not verify_join_request(frame, app_key)
            or frame.dev_nonce in registration.spent_nonces
        ):
            self.filtered_frames += 1
            return
        app_nonce = self.rng.randbytes(3)
        # the application session key is derived only by the device
        nwk_s_key, _ = derive_session_keys(app_key, app_nonce, self.net_id, frame.dev_nonce)
        context = self.open_session(
            frame.dev_eui, frame.dev_nonce, app_nonce, nwk_s_key, self._address_prefix(via)
        )
        self._publish_context(context)
        # the accept goes out concurrently with consensus, not after it
        self.work_units += WU_PARSE + WU_MIC
        accept = build_join_accept(app_key, app_nonce, self.net_id, context.dev_addr)
        self.joins_accepted += 1
        self._send_join_accept(via, device_id, accept)

    def _send_join_accept(self, via: str, device_id: str, accept: bytes) -> None:
        self._downlink(via, device_id, accept)

    def _session(self, dev_addr: bytes) -> NcSession | None:
        """The session for an address, adopting a committed context this node can open."""
        session = self.sessions.get(dev_addr)
        if session is not None:
            return session
        entry = self._committed_context(dev_addr)
        if entry is None:
            return None
        if entry.requester == self.entity_id:
            private_key = self.keypair.private_key
        elif entry.requester in self.held_keys:
            private_key = self.held_keys[entry.requester]
        else:
            return None
        try:
            context = SessionContext.from_bytes(pk_decrypt(private_key, entry.envelope))
        except (DecryptionError, ValueError):
            return None
        session = NcSession(context, self.coverage.get(context.dev_eui))
        self.sessions[dev_addr] = session
        return session

    def _nc_uplink(self, frame: DataFrame, data: bytes, via: str) -> None:
        """Serve one parsed uplink; ``data`` is its wire form, which the MIC check reads."""
        self.work_units += WU_QUERY
        session = self._session(frame.dev_addr)
        if session is None:
            self.filtered_frames += 1
            return
        self.work_units += WU_MIC
        if not verify_data_mic(session.keys, data):
            self.filtered_frames += 1
            return
        if frame.fcnt <= session.last_fcnt_up:
            self.filtered_frames += 1
            return
        session.last_fcnt_up = frame.fcnt
        if session.device_id is not None:
            self._send_data_down(via, session, session.next_fcnt_down, 0, b"")
            session.next_fcnt_down += 1
            self.acks_sent += 1
        self._ingest(frame)

    def _send_data_down(
        self, via: str, session: NcSession, fcnt: int, fport: int, payload: bytes
    ) -> None:
        """Build, integrity-tag and send one downlink data frame (ACK or application)."""
        self.work_units += WU_PARSE + WU_MIC
        data = build_data_frame(session.keys, fcnt, fport, payload, DIR_DOWN)
        self._downlink(via, session.device_id, data)


class Gateway(LedgerNode):
    """LoRa gateway; in edge mode it runs the join server and network controller."""

    def __init__(self, *args, join_processing_delay_us: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.join_processing_delay_us = join_processing_delay_us
        self.device_links: dict[str, Link] = {}
        self.uplink_server: str | None = None
        self.forwarded_uplinks = 0

    def add_coverage(self, dev_eui: bytes, device_id: str, link: Link) -> None:
        self.coverage[dev_eui] = device_id
        self.device_links[device_id] = link

    handle = _dispatch

    def _transmit(self, device_id: str, data: bytes) -> None:
        link = self.device_links.get(device_id)
        if link is not None:
            self.engine.send(link, data, len(data))

    def _on_air_frame(self, data: bytes) -> None:
        if self.mode == MODE_TRADITIONAL:
            # transparent forwarding: no parse, no verification, no work units
            self.forwarded_uplinks += 1
            self._send(self.uplink_server, FrameForward(gateway_id=self.entity_id, frame=data))
            return
        self._on_frame(data, self.entity_id)

    def _address_prefix(self, via: str) -> int:
        return self.index

    def _downlink(self, via: str, device_id: str, frame: bytes) -> None:
        self._transmit(device_id, frame)

    def _send_join_accept(self, via: str, device_id: str, accept: bytes) -> None:
        if self.join_processing_delay_us > 0:
            self.engine.schedule(
                self.join_processing_delay_us,
                self.entity_id,
                DownlinkFrameForward(frame=accept, device_id=device_id),
            )
        else:
            self._transmit(device_id, accept)

    def _ingest(self, frame: DataFrame) -> None:
        """Edge mode: only the verified essentials go upstream."""
        self.forwarded_uplinks += 1
        self._send(
            self.uplink_server,
            UplinkNotice(dev_addr=frame.dev_addr, fcnt=frame.fcnt, payload=frame.payload),
        )

    def _on_downlink_data(self, msg: DownlinkData) -> None:
        self.work_units += WU_QUERY
        session = self._session(msg.dev_addr)
        # a counter or payload no frame can carry is dropped; without a radio
        # route the frame is built but goes nowhere
        framable = 0 <= msg.fcnt <= MAX_FCNT and len(msg.payload) <= MAX_FRM_PAYLOAD
        if session is not None and framable:
            self._send_data_down(self.entity_id, session, msg.fcnt, APP_FPORT, msg.payload)

    def _on_downlink_frame_forward(self, msg: DownlinkFrameForward) -> None:
        self._transmit(msg.device_id, msg.frame)

    _HANDLERS = {
        bytes: _on_air_frame,
        DownlinkData: _on_downlink_data,
        DownlinkFrameForward: _on_downlink_frame_forward,
        **Replica._HANDLERS,
    }


class NetworkServer(LedgerNode):
    """Maintains both ledgers; in traditional mode also runs the JS and NC."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gateways: tuple[str, ...] = ()  # gateway ids by index, the address prefix
        self.next_app_fcnt_down: dict[bytes, int] = {}
        self.ingested = 0

    handle = _dispatch

    def _ingest(self, uplink: UplinkNotice | DataFrame) -> None:
        """Wrap a verified uplink's payload as-is and submit it."""
        if not uplink.payload:
            self.filtered_frames += 1  # a notice with nothing to put on the ledger
            return
        self.work_units += WU_TX_BUILD
        tx = make_app_tx(self.directory, self.keypair, uplink.payload, self.now_ms)
        self.ingested += 1
        self.submit_tx(KIND_APPLICATION, tx)

    def _on_frame_forward(self, fwd: FrameForward) -> None:
        if fwd.gateway_id not in self.gateways:
            self.filtered_frames += 1  # only a wired gateway may forward frames
            return
        self._on_frame(fwd.frame, fwd.gateway_id)

    def _address_prefix(self, via: str) -> int:
        return self.gateways.index(via)

    def _downlink(self, via: str, device_id: str, frame: bytes) -> None:
        self._send(via, DownlinkFrameForward(frame=frame, device_id=device_id))

    _HANDLERS = {
        UplinkNotice: _ingest,
        FrameForward: _on_frame_forward,
        **Replica._HANDLERS,
    }

    # -- operator-facing operations --

    def abp_provision(self, context: SessionContext, device_id: str) -> None:
        """Install an operator-supplied session; address collisions are rejected.

        ABP addresses keep the serving gateway's index as their prefix, since
        ``downlink`` routes by it, and take a counter from the prefix's top
        half (``ABP_COUNTER_MIN`` and up), where no join address lies: an
        edge gateway cannot see a provisioned context until it commits.
        """
        counter = int.from_bytes(context.dev_addr[1:], "little")
        if counter < ABP_COUNTER_MIN:
            raise ValueError(
                "device address %s is outside the ABP range" % context.dev_addr.hex()
            )
        # an address not yet committed is in sessions; every other one is on the ledger
        if not self._address_free(context.dev_addr):
            raise ValueError("device address %s already in use" % context.dev_addr.hex())
        registration = self.registry.get(context.dev_eui)
        if registration is not None:
            registration.dev_addr = context.dev_addr  # a later join keeps this address
        self.sessions[context.dev_addr] = NcSession(context, device_id)
        self._publish_context(context)

    def reserve_fcnt_down(self, dev_addr: bytes) -> int:
        """Hand out the next application downlink counter, kept apart from the NC's ACKs."""
        fcnt = self.next_app_fcnt_down.get(dev_addr, 0)
        self.next_app_fcnt_down[dev_addr] = fcnt + 1
        return fcnt

    def downlink(self, dev_addr: bytes, encrypted_payload: bytes, fcnt: int) -> None:
        """Push application data (already session-key encrypted) toward a device.

        Edge mode ships only the encrypted payload to the gateway, which
        builds and integrity-tags the frame; traditional mode builds the full
        frame here.
        """
        if len(dev_addr) != DEV_ADDR_LEN:
            raise ValueError("device address must be %d bytes" % DEV_ADDR_LEN)
        if not 0 <= fcnt <= MAX_FCNT:
            raise ValueError("frame counter %d out of range" % fcnt)
        if len(encrypted_payload) > MAX_FRM_PAYLOAD:
            raise ValueError("payload exceeds %d bytes" % MAX_FRM_PAYLOAD)
        self.work_units += WU_QUERY
        if dev_addr[0] >= len(self.gateways):
            raise ValueError("no gateway serves address %s" % dev_addr.hex())
        gateway_id = self.gateways[dev_addr[0]]
        if self.mode == MODE_EDGE:
            if self._committed_context(dev_addr) is None:
                raise ValueError("unknown device address %s" % dev_addr.hex())
            self._send(
                gateway_id,
                DownlinkData(dev_addr=dev_addr, fcnt=fcnt, payload=encrypted_payload),
            )
            return
        session = self._session(dev_addr)
        if session is None:
            raise ValueError("unknown device address %s" % dev_addr.hex())
        if session.device_id is None:
            raise ValueError("no radio route for address %s" % dev_addr.hex())
        self._send_data_down(gateway_id, session, fcnt, APP_FPORT, encrypted_payload)


# ---------------------------------------------------------------------------
# end devices


BEHAVIOR_JOIN_LOOP = "join-loop"
BEHAVIOR_UPLINK_LOOP = "uplink-loop"

#: the head of a device's reading: device index (u32) and frame counter (u16)
_READING_HEAD = struct.Struct("<IH")


@dataclass(frozen=True)
class DeviceProfile:
    behavior: str
    interval_lo_us: int
    interval_hi_us: int
    join_timeout_us: int
    uplink_timeout_us: int
    payload_bytes: int = 20

    def __post_init__(self) -> None:
        if self.behavior not in (BEHAVIOR_JOIN_LOOP, BEHAVIOR_UPLINK_LOOP):
            raise ValueError("unknown behavior %r" % self.behavior)
        if not 0 < self.interval_lo_us <= self.interval_hi_us:
            raise ValueError("interval bounds must satisfy 0 < lo <= hi")
        if not 6 <= self.payload_bytes <= 242:
            raise ValueError("payload size must be within [6, 242]")


@dataclass(frozen=True)
class JoinAttempt:
    """A device's one open join: its request record, timeout timer and DevNonce."""

    request_id: int
    timer: int
    dev_nonce: bytes


@dataclass(slots=True)
class DeviceSession:
    keys: SessionKeys
    fcnt_up: int = 0
    last_fcnt_down: int = -1  # the NC's ACKs
    last_app_fcnt_down: int = -1  # application downlinks


class EndDevice:
    """Class-A style device: joins, then uplinks on a timer, expecting ACKs."""

    def __init__(
        self,
        device_id: str,
        index: int,
        dev_eui: bytes,
        app_eui: bytes,
        app_key: RootKey,
        engine: Engine,
        profile: DeviceProfile,
        recorder,
        authorized: bool = True,
    ) -> None:
        self.device_id = device_id
        self.index = index
        self.dev_eui = dev_eui
        self.app_eui = app_eui
        self.app_key = app_key
        self.engine = engine
        self.profile = profile
        # the profile is frozen: what its events read of it is read once, here
        self._interval_lo_us = profile.interval_lo_us
        self._interval_stop_us = profile.interval_hi_us + 1
        self._uplink_timeout_us = profile.uplink_timeout_us
        self._uplink_loop = profile.behavior == BEHAVIOR_UPLINK_LOOP
        self._filler = b"\xa5" * (profile.payload_bytes - _READING_HEAD.size)
        self.recorder = recorder
        self.authorized = authorized
        self.rng = engine.stream("device:%s" % device_id)
        self.uplink: Link | None = None
        self.session: DeviceSession | None = None
        self._join: JoinAttempt | None = None
        self.muted = False
        self.received_downlinks: list[bytes] = []
        self.skipped_sends = 0
        self._used_dev_nonces: set[bytes] = set()
        self._pending_uplinks: dict[int, int] = {}  # request id -> timeout timer, oldest first
        engine.register(device_id, self.handle)

    @property
    def state(self) -> str:
        """``joining`` while a join is open, else ``joined`` with a session, else ``idle``."""
        if self._join is not None:
            return "joining"
        return "idle" if self.session is None else "joined"

    # -- wiring --

    def attach_uplink(self, link: Link) -> None:
        self.uplink = link

    def install_session(self, dev_addr: bytes, nwk_s_key: bytes, app_s_key: bytes) -> None:
        """Adopt a session from a join accept or from out of band (bootstrap, provisioning).

        The address and keys are checked here, so a bad one is refused now
        rather than when the first frame is built.
        """
        self.session = DeviceSession(SessionKeys(dev_addr, nwk_s_key, app_s_key))

    def self_mint_session(self) -> None:
        """What an outsider does: invent an address and keys nobody vouches for."""
        dev_addr = bytes([UNAUTHORIZED_ADDR_PREFIX]) + self.rng.randbytes(3)
        self.install_session(dev_addr, self.rng.randbytes(16), self.rng.randbytes(16))

    def start(self, initial_delay_us: int) -> None:
        self.engine.schedule(initial_delay_us, self.device_id, _NEXT_ACTION)

    # -- behavior --

    def _draw_interval_us(self) -> int:
        return self.rng.randrange(self._interval_lo_us, self._interval_stop_us)

    handle = _dispatch

    def _on_next_action(self, _timer: TimerNextAction) -> None:
        if self.muted:
            return
        if self._uplink_loop:
            self.send_uplink()
            self.engine.schedule(self._draw_interval_us(), self.device_id, _NEXT_ACTION)
        else:
            self.begin_join()

    def _fresh_dev_nonce(self) -> bytes:
        while True:
            nonce = self.rng.randbytes(2)
            if nonce not in self._used_dev_nonces:
                self._used_dev_nonces.add(nonce)
                return nonce

    def begin_join(self) -> None:
        if self._join is not None or self.uplink is None:
            return
        if len(self._used_dev_nonces) == 1 << 8 * DEV_NONCE_LEN:  # every nonce is spent
            self.skipped_sends += 1
            return
        dev_nonce = self._fresh_dev_nonce()
        data = build_join_request(self.app_key, self.app_eui, self.dev_eui, dev_nonce)
        request_id = self.recorder.issue("join", self.device_id, self.engine.now_us)
        timer = self.engine.schedule(
            self.profile.join_timeout_us, self.device_id, TimerJoinTimeout()
        )
        self._join = JoinAttempt(request_id, timer, dev_nonce)
        self.engine.send(self.uplink, data, len(data))

    def send_uplink(self) -> None:
        session = self.session
        if session is None or self.uplink is None or session.fcnt_up > MAX_FCNT:
            self.skipped_sends += 1
            return
        fcnt, keys, engine = session.fcnt_up, session.keys, self.engine
        ciphertext = encrypt_payload(keys, fcnt, DIR_UP, self.payload_plaintext(fcnt))
        data = build_data_frame(keys, fcnt, APP_FPORT, ciphertext, DIR_UP)
        request_id = self.recorder.issue("uplink", self.device_id, engine.now_us)
        self._pending_uplinks[request_id] = engine.schedule(
            self._uplink_timeout_us, self.device_id, TimerUplinkTimeout(request_id)
        )
        session.fcnt_up = fcnt + 1
        engine.send(self.uplink, data, len(data))

    def payload_plaintext(self, fcnt: int) -> bytes:
        """Deterministic reading: device index, counter, fixed filler."""
        return _READING_HEAD.pack(self.index, fcnt & 0xFFFF) + self._filler

    # -- frame handling --

    def _on_air_frame(self, data: bytes) -> None:
        try:
            frame = parse_frame(data)
        except MalformedFrameError:
            return
        if isinstance(frame, EncryptedJoinAccept):
            self._on_join_accept(data)
        elif isinstance(frame, DataFrame) and frame.direction == DIR_DOWN:
            self._on_downlink(frame, data)

    def _on_join_accept(self, data: bytes) -> None:
        join = self._join
        if join is None:
            return
        try:
            accept = open_join_accept(data, self.app_key)
        except (MalformedFrameError, MicMismatchError):
            return
        nwk_s_key, app_s_key = derive_session_keys(
            self.app_key, accept.app_nonce, accept.net_id, join.dev_nonce
        )
        self.install_session(accept.dev_addr, nwk_s_key, app_s_key)
        self._join = None
        self.engine.cancel(join.timer)
        self.recorder.complete(join.request_id, self.engine.now_us)
        if not self._uplink_loop:
            self.engine.schedule(self._draw_interval_us(), self.device_id, _NEXT_ACTION)

    def _on_join_timeout(self, _timer: TimerJoinTimeout) -> None:
        # an accepted join cancels its timer and no join opens while one is
        # open, so the timer that fires is the open attempt's
        join, self._join = self._join, None
        self.recorder.fail(join.request_id, self.engine.now_us)
        if not self._uplink_loop:
            self.engine.schedule(self._draw_interval_us(), self.device_id, _NEXT_ACTION)

    def _on_uplink_timeout(self, request_id: TimerUplinkTimeout) -> None:
        if self._pending_uplinks.pop(request_id, None) is not None:
            self.recorder.fail(request_id, self.engine.now_us)

    def _on_downlink(self, frame: DataFrame, data: bytes) -> None:
        """Take one parsed downlink; ``data`` is its wire form, which the MIC check reads."""
        session = self.session
        if session is None or frame.dev_addr != session.keys.dev_addr:
            return
        if not verify_data_mic(session.keys, data):
            return
        if len(frame.payload) == 0:
            if frame.fcnt <= session.last_fcnt_down:
                return
            session.last_fcnt_down = frame.fcnt
            # an ACK settles the newest outstanding uplink (LoRaWAN 1.0.3
            # section 4.3.1.2); older ones time out as failures
            if self._pending_uplinks:
                request_id, timer = self._pending_uplinks.popitem()
                self.engine.cancel(timer)
                self.recorder.complete(request_id, self.engine.now_us)
            return
        if frame.fcnt <= session.last_app_fcnt_down:
            return
        session.last_app_fcnt_down = frame.fcnt
        plaintext = decrypt_payload(session.keys, frame.fcnt, DIR_DOWN, frame.payload)
        self.received_downlinks.append(plaintext)

    _HANDLERS = {
        bytes: _on_air_frame,
        TimerNextAction: _on_next_action,
        TimerJoinTimeout: _on_join_timeout,
        TimerUplinkTimeout: _on_uplink_timeout,
    }
