"""Node state machines: end devices, gateways, and network servers.

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

Each class maps payload types to handlers in a class-level table, and its
``handle`` runs the handler of the delivered payload's type.

Work units are a coarse CPU proxy: frame parse or encapsulation costs 1, MIC
verification or computation 2, a world-state context query 1, and building a
ledger transaction 3.  Backhaul envelope handling and block validation are
not charged.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass

from .consensus import (
    COMMITTED,
    FAILED,
    ConsensusConfig,
    SoloOrderer,
    VoteRejectedError,
    VoteRound,
    make_vote,
)
from .crypto import (
    DecryptionError,
    KeyDirectory,
    KeyPair,
    derive_session_keys,
    pk_decrypt,
)
from .frames import (
    DIR_DOWN,
    DIR_UP,
    DataFrame,
    EncryptedJoinAccept,
    JoinRequest,
    MalformedFrameError,
    MicMismatchError,
    build_data_frame,
    build_join_accept,
    build_join_request,
    encrypt_payload,
    decrypt_payload,
    open_join_accept,
    parse_frame,
    serialize_frame,
    verify_data_mic,
    verify_join_request,
)
from .ledger import (
    KIND_APPLICATION,
    KIND_NETWORK,
    Block,
    InvalidBlockError,
    Ledger,
    SessionContext,
    Transaction,
    assemble_block,
    block_hash,
    context_metadata,
    make_app_tx,
    make_network_tx,
    validate_block,
    validate_body,
)
from .simnet import Engine, Link, US_PER_MS

MODE_EDGE = "edge"
MODE_TRADITIONAL = "traditional"

WU_PARSE = 1
WU_MIC = 2
WU_QUERY = 1
WU_TX_BUILD = 3

UNAUTHORIZED_ADDR_PREFIX = 0xFF


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


@dataclass(frozen=True)
class TxSubmit:
    channel: str
    tx: Transaction

    def wire_size(self) -> int:
        return 1 + 1 + 2 + len(self.tx.to_bytes())


@dataclass(frozen=True)
class BlockAnnounce:
    channel: str
    block: Block

    def wire_size(self) -> int:
        return 1 + 1 + 4 + len(self.block.to_bytes())


@dataclass(frozen=True)
class BlockProposal:
    channel: str
    proposer: str
    block: Block

    def wire_size(self) -> int:
        return 1 + 1 + 2 + len(self.proposer.encode("utf-8")) + 4 + len(self.block.to_bytes())


@dataclass(frozen=True)
class VoteMessage:
    channel: str
    voter: str
    block_hash: bytes
    verdict: bool
    signature: bytes

    def wire_size(self) -> int:
        return 1 + 1 + 2 + len(self.voter.encode("utf-8")) + 32 + 1 + 64


@dataclass(frozen=True)
class CommitNotice:
    channel: str
    block_hash: bytes

    def wire_size(self) -> int:
        return 1 + 1 + 32


# ---------------------------------------------------------------------------
# timers


@dataclass(frozen=True)
class OrdererTick:
    channel: str


@dataclass(frozen=True)
class TimerNextAction:
    pass


@dataclass(frozen=True)
class TimerJoinTimeout:
    join_seq: int


@dataclass(frozen=True)
class TimerUplinkTimeout:
    request_id: int


def format_dev_addr(prefix: int, counter: int) -> bytes:
    """Creator-index prefix byte plus a 3-byte little-endian counter."""
    if not 0 <= prefix <= 0xFF:
        raise ValueError("prefix out of range")
    if not 1 <= counter <= 0xFFFFFF:
        raise ValueError("address counter exhausted")
    return bytes([prefix]) + struct.pack("<I", counter)[:3]


class JoinState:
    """Join-server bookkeeping: registrations, nonce replay, stable addresses."""

    def __init__(self) -> None:
        self.registered: dict[bytes, tuple] = {}
        self.used_dev_nonces: dict[bytes, set[bytes]] = {}
        self.addr_by_eui: dict[bytes, bytes] = {}
        self._counters: dict[int, int] = {}

    def register(self, dev_eui: bytes, entry: tuple) -> None:
        self.registered[dev_eui] = entry

    def lookup(self, dev_eui: bytes):
        return self.registered.get(dev_eui)

    def nonce_fresh(self, dev_eui: bytes, dev_nonce: bytes) -> bool:
        used = self.used_dev_nonces.setdefault(dev_eui, set())
        if dev_nonce in used:
            return False
        used.add(dev_nonce)
        return True

    def allocate(self, dev_eui: bytes, prefix: int) -> bytes:
        """Same device, same address across rejoins; new devices get the next slot."""
        addr = self.addr_by_eui.get(dev_eui)
        if addr is None:
            counter = self._counters.get(prefix, 0) + 1
            self._counters[prefix] = counter
            addr = format_dev_addr(prefix, counter)
            self.addr_by_eui[dev_eui] = addr
        return addr

    def reserve(self, prefix: int, count: int) -> None:
        """Keep future allocations clear of externally assigned slots."""
        self._counters[prefix] = max(self._counters.get(prefix, 0), count)


@dataclass
class NcSession:
    """What the network controller tracks for one device address."""

    context: SessionContext
    device_id: str | None  # radio route for ACKs and downlinks; None if out of coverage
    last_fcnt_up: int = -1
    next_fcnt_down: int = 0  # counts the NC's ACKs only; see docs/wire.md


class LedgerNode:
    """A gateway or server: ledger replicas and consensus, plus the JS and NC.

    The join server and network controller run on the node that hosts them in
    the deployment mode.  Subclasses supply the steps where the modes differ:
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
        self.entity_id = entity_id
        self.index = index
        self.mode = mode
        self.keypair = keypair
        self.engine = engine
        self.directory = key_directory
        self.consensus = consensus
        self.net_id = net_id
        self.rng = engine.stream("node:%s" % entity_id)
        self.routes: dict[str, Link] = {}
        self.ledgers: dict[str, Ledger] = {}
        self.orderers: dict[str, SoloOrderer] = {}
        self.work_units = 0
        self.invalid_blocks = 0
        self.failed_rounds = 0
        self.rejected_votes = 0
        # voter side: proposals received, keyed by (channel, block hash)
        self._proposals: dict[tuple[str, bytes], Block] = {}
        # proposer side: the one open round per channel, with its block
        self._rounds: dict[str, tuple[VoteRound, Block]] = {}
        # backhaul messages are not FIFO, so tolerate reordered deliveries
        self._reorder: dict[str, dict[int, Block]] = {}
        self._commit_wanted: set[tuple[str, bytes]] = set()
        self._batch_queue: dict[str, list] = {}
        # join server and network controller state
        self.js = JoinState()
        self.sessions: dict[bytes, NcSession] = {}
        self.pending_contexts: dict[bytes, SessionContext] = {}
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

    def attach_ledger(self, channel: str, ledger: Ledger) -> None:
        self.ledgers[channel] = ledger

    def host_orderer(self, channel: str) -> None:
        self.orderers[channel] = SoloOrderer(self.consensus.batch)

    def _send(self, peer_id: str, message) -> None:
        self.engine.send(self.routes[peer_id], message, message.wire_size())

    # -- ordering and commit --

    def submit_tx(self, channel: str, tx: Transaction) -> None:
        host = self.consensus.orderer_hosts[channel]
        if host == self.entity_id:
            self._orderer_submit(channel, tx)
        else:
            self._send(host, TxSubmit(channel=channel, tx=tx))

    def _orderer_submit(self, channel: str, tx: Transaction) -> None:
        orderer = self.orderers[channel]
        started_batch = orderer.pending_count == 0
        batch = orderer.submit(tx, self.now_ms)
        if batch is not None:
            self._propose(channel, batch)
        elif started_batch:
            delay_us = orderer.deadline_ms * US_PER_MS - self.engine.now_us
            self.engine.schedule(max(delay_us, 0), self.entity_id, OrdererTick(channel))

    def _on_orderer_tick(self, tick: OrdererTick) -> None:
        batch = self.orderers[tick.channel].on_timer(self.now_ms)
        if batch is not None:
            self._propose(tick.channel, batch)

    def _maintainer_peers(self, channel: str) -> list[str]:
        return [m for m in self.consensus.maintainers[channel] if m != self.entity_id]

    def _propose(self, channel: str, batch: list) -> None:
        if channel in self._rounds:
            # one outstanding proposal per channel keeps block heights linear
            self._batch_queue.setdefault(channel, []).append(batch)
            return
        ledger = self.ledgers[channel]
        block = assemble_block(batch, ledger.height, self.now_ms, ledger.tip)
        if self.consensus.mode == "solo":
            self._commit_block(channel, block)
            for peer in self._maintainer_peers(channel):
                self._send(peer, BlockAnnounce(channel=channel, block=block))
            return
        digest = block_hash(block)
        voters = tuple(self.consensus.maintainers[channel])
        vote_round = VoteRound(digest, voters, self.consensus.p, self.directory)
        self._rounds[channel] = (vote_round, block)
        verdict = validate_block(block, ledger.tip, self.directory, channel)
        vote_round.collect_vote(self.entity_id, verdict, make_vote(self.keypair, digest, verdict))
        for peer in self._maintainer_peers(channel):
            self._send(peer, BlockProposal(channel=channel, proposer=self.entity_id, block=block))
        self._settle_round(channel)

    def _commit_block(self, channel: str, block: Block) -> None:
        ledger = self.ledgers[channel]
        if block.zeta > ledger.height:
            # hold only a block that could ever be appended
            if validate_body(block, self.directory, channel):
                self._reorder.setdefault(channel, {})[block.zeta] = block
            else:
                self.invalid_blocks += 1
            return
        if block.zeta < ledger.height:
            return  # stale duplicate of something already on chain
        try:
            ledger.append_block(block, self.directory)
        except InvalidBlockError:
            self.invalid_blocks += 1
            return
        # a failed round's proposal for this height can never commit now
        for key, proposal in list(self._proposals.items()):
            if key[0] == channel and proposal.zeta < ledger.height:
                del self._proposals[key]
        if channel == KIND_NETWORK:
            for tx in block.txs:
                if tx.requester == self.entity_id:
                    self.pending_contexts.pop(context_metadata(tx.payload)[0], None)
        held = self._reorder.get(channel)
        if held:
            successor = held.pop(ledger.height, None)
            if successor is not None:
                self._commit_block(channel, successor)

    def _settle_round(self, channel: str) -> None:
        vote_round, block = self._rounds[channel]
        state = vote_round.check()
        if state == COMMITTED:
            del self._rounds[channel]
            self._commit_block(channel, block)
            for peer in self._maintainer_peers(channel):
                self._send(peer, CommitNotice(channel=channel, block_hash=vote_round.block_hash))
        elif state == FAILED:
            del self._rounds[channel]
            self.failed_rounds += 1
        else:
            return
        queued = self._batch_queue.get(channel)
        if queued:
            self._propose(channel, queued.pop(0))

    def _on_proposal(self, msg: BlockProposal) -> None:
        digest = block_hash(msg.block)
        self._proposals[(msg.channel, digest)] = msg.block
        ledger = self.ledgers[msg.channel]
        verdict = validate_block(msg.block, ledger.tip, self.directory, msg.channel)
        self._send(
            msg.proposer,
            VoteMessage(
                channel=msg.channel,
                voter=self.entity_id,
                block_hash=digest,
                verdict=verdict,
                signature=make_vote(self.keypair, digest, verdict),
            ),
        )
        if (msg.channel, digest) in self._commit_wanted:
            # the commit notice overtook this proposal on the backhaul
            self._commit_wanted.discard((msg.channel, digest))
            self._proposals.pop((msg.channel, digest), None)
            self._commit_block(msg.channel, msg.block)

    def _on_vote(self, msg: VoteMessage) -> None:
        vote_round, _ = self._rounds.get(msg.channel, (None, None))
        if vote_round is None or vote_round.block_hash != msg.block_hash:
            return  # no open round for this block: it has settled
        try:
            vote_round.collect_vote(msg.voter, msg.verdict, msg.signature)
        except VoteRejectedError:
            self.rejected_votes += 1
        self._settle_round(msg.channel)

    def _on_commit_notice(self, msg: CommitNotice) -> None:
        block = self._proposals.pop((msg.channel, msg.block_hash), None)
        if block is not None:
            self._commit_block(msg.channel, block)
        else:
            self._commit_wanted.add((msg.channel, msg.block_hash))

    # consensus-plane payload type -> handler(node, payload); subclasses extend it
    _HANDLERS = {
        OrdererTick: _on_orderer_tick,
        TxSubmit: lambda node, msg: node._orderer_submit(msg.channel, msg.tx),
        BlockAnnounce: lambda node, msg: node._commit_block(msg.channel, msg.block),
        BlockProposal: _on_proposal,
        VoteMessage: _on_vote,
        CommitNotice: _on_commit_notice,
    }

    # -- join server and network controller --

    def register_device(self, dev_eui: bytes, app_key: bytes, device_id: str) -> None:
        self.js.register(dev_eui, (app_key, device_id))

    def install_session(self, context: SessionContext, device_id: str) -> None:
        """Adopt an out-of-band established session (bootstrap or provisioning)."""
        self.sessions[context.dev_addr] = NcSession(context, device_id)
        self.js.addr_by_eui[context.dev_eui] = context.dev_addr
        self.js.nonce_fresh(context.dev_eui, context.dev_nonce)

    def receive_key_handover(self, entity_id: str, private_key: bytes) -> None:
        """Out-of-band private-key copy from a failing gateway."""
        self.held_keys[entity_id] = private_key

    def _publish_context(self, context: SessionContext, device_id: str) -> None:
        """Serve a new session at once and submit its context to the network ledger."""
        self.sessions[context.dev_addr] = NcSession(context, device_id)
        self.js.addr_by_eui[context.dev_eui] = context.dev_addr
        self.pending_contexts[context.dev_addr] = context
        self.work_units += WU_TX_BUILD
        tx = make_network_tx(self.keypair, context, self.now_ms, self.rng)
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
        elif isinstance(frame, DataFrame) and frame.direction == DIR_UP:
            self._nc_uplink(frame, via)
        else:
            self.filtered_frames += 1

    def _js_join(self, frame: JoinRequest, via: str) -> None:
        entry = self.js.lookup(frame.dev_eui)
        if entry is None:
            self.filtered_frames += 1
            return
        app_key, device_id = entry
        self.work_units += WU_MIC
        if not verify_join_request(frame, app_key):
            self.filtered_frames += 1
            return
        if not self.js.nonce_fresh(frame.dev_eui, frame.dev_nonce):
            self.filtered_frames += 1
            return
        dev_addr = self.js.allocate(frame.dev_eui, self._address_prefix(via))
        app_nonce = self.rng.randbytes(3)
        # the application session key is derived only by the device
        nwk_s_key, _ = derive_session_keys(app_key, app_nonce, self.net_id, frame.dev_nonce)
        context = SessionContext(
            dev_eui=frame.dev_eui,
            app_key=app_key,
            dev_addr=dev_addr,
            nwk_s_key=nwk_s_key,
            dev_nonce=frame.dev_nonce,
            app_nonce=app_nonce,
        )
        self._publish_context(context, device_id)
        # the accept goes out concurrently with consensus, not after it
        self.work_units += WU_PARSE + WU_MIC
        accept = build_join_accept(app_key, app_nonce, self.net_id, dev_addr)
        self.joins_accepted += 1
        self._send_join_accept(via, device_id, accept)

    def _send_join_accept(self, via: str, device_id: str, accept: bytes) -> None:
        self._downlink(via, device_id, accept)

    def _session(self, dev_addr: bytes) -> NcSession | None:
        """The session for an address, adopting a committed context this node can open."""
        session = self.sessions.get(dev_addr)
        if session is not None:
            return session
        entry = self.ledgers[KIND_NETWORK].query_context(dev_addr)
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

    def _nc_uplink(self, frame: DataFrame, via: str) -> None:
        self.work_units += WU_QUERY
        session = self._session(frame.dev_addr)
        if session is None:
            self.filtered_frames += 1
            return
        self.work_units += WU_MIC
        if not verify_data_mic(frame, session.context.nwk_s_key):
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
        context = session.context
        frame = build_data_frame(
            context.nwk_s_key, context.dev_addr, fcnt, fport, payload, DIR_DOWN
        )
        self._downlink(via, session.device_id, serialize_frame(frame))


class Gateway(LedgerNode):
    """LoRa gateway; in edge mode it runs the join server and network controller."""

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
        join_processing_delay_us: int = 0,
    ) -> None:
        super().__init__(entity_id, index, mode, keypair, engine, key_directory, consensus, net_id)
        self.join_processing_delay_us = join_processing_delay_us
        self.device_links: dict[str, Link] = {}
        self.uplink_server: str | None = None
        self.forwarded_uplinks = 0

    def add_coverage(self, dev_eui: bytes, device_id: str, link: Link) -> None:
        self.coverage[dev_eui] = device_id
        self.device_links[device_id] = link

    def handle(self, payload) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            raise TypeError("gateway cannot handle %r" % (payload,))
        handler(self, payload)

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
        if session is not None:
            # without a radio route the frame is built but goes nowhere
            self._send_data_down(self.entity_id, session, msg.fcnt, 1, msg.payload)

    _HANDLERS = {
        bytes: _on_air_frame,
        bytearray: lambda gateway, data: gateway._on_air_frame(bytes(data)),
        DownlinkData: _on_downlink_data,
        DownlinkFrameForward: lambda gateway, msg: gateway._transmit(msg.device_id, msg.frame),
        **LedgerNode._HANDLERS,
    }


class NetworkServer(LedgerNode):
    """Maintains both ledgers; in traditional mode also runs the JS and NC."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gateway_by_index: dict[int, str] = {}
        self.next_app_fcnt_down: dict[bytes, int] = {}
        self.ingested = 0

    def wire_gateway(self, index: int, gateway_id: str) -> None:
        self.gateway_by_index[index] = gateway_id

    def handle(self, payload) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            raise TypeError("server cannot handle %r" % (payload,))
        handler(self, payload)

    def _ingest(self, uplink: UplinkNotice | DataFrame) -> None:
        """Wrap a verified uplink's payload as-is and submit it."""
        self.work_units += WU_TX_BUILD
        tx = make_app_tx(self.keypair, uplink.payload, self.now_ms)
        self.ingested += 1
        self.submit_tx(KIND_APPLICATION, tx)

    def _address_prefix(self, via: str) -> int:
        for index, entity in self.gateway_by_index.items():
            if entity == via:
                return index
        raise KeyError("unknown gateway %r" % via)

    def _downlink(self, via: str, device_id: str, frame: bytes) -> None:
        self._send(via, DownlinkFrameForward(frame=frame, device_id=device_id))

    _HANDLERS = {
        UplinkNotice: _ingest,
        FrameForward: lambda server, fwd: server._on_frame(fwd.frame, fwd.gateway_id),
        **LedgerNode._HANDLERS,
    }

    # -- operator-facing operations --

    def abp_provision(self, context: SessionContext, device_id: str) -> None:
        """Install an operator-supplied session; address collisions are rejected."""
        if (
            self.ledgers[KIND_NETWORK].query_context(context.dev_addr) is not None
            or context.dev_addr in self.pending_contexts
        ):
            raise ValueError("device address %s already in use" % context.dev_addr.hex())
        self._publish_context(context, device_id)

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
        self.work_units += WU_QUERY
        gateway_id = self.gateway_by_index.get(dev_addr[0])
        if gateway_id is None:
            raise ValueError("no gateway serves address %s" % dev_addr.hex())
        if self.mode == MODE_EDGE:
            if self.ledgers[KIND_NETWORK].query_context(dev_addr) is None:
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
        self._send_data_down(gateway_id, session, fcnt, 1, encrypted_payload)


# ---------------------------------------------------------------------------
# end devices


BEHAVIOR_JOIN_LOOP = "join-loop"
BEHAVIOR_UPLINK_LOOP = "uplink-loop"
BEHAVIOR_IDLE = "idle"


@dataclass(frozen=True)
class DeviceProfile:
    behavior: str
    interval_lo_us: int
    interval_hi_us: int
    join_timeout_us: int
    uplink_timeout_us: int
    payload_bytes: int = 20
    fport: int = 1

    def __post_init__(self) -> None:
        if self.behavior not in (BEHAVIOR_JOIN_LOOP, BEHAVIOR_UPLINK_LOOP, BEHAVIOR_IDLE):
            raise ValueError("unknown behavior %r" % self.behavior)
        if not 0 < self.interval_lo_us <= self.interval_hi_us:
            raise ValueError("interval bounds must satisfy 0 < lo <= hi")
        if not 6 <= self.payload_bytes <= 242:
            raise ValueError("payload size must be within [6, 242]")


@dataclass
class DeviceSession:
    dev_addr: bytes
    nwk_s_key: bytes
    app_s_key: bytes
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
        app_key: bytes,
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
        self.recorder = recorder
        self.authorized = authorized
        self.rng = engine.stream("device:%s" % device_id)
        self.uplink: Link | None = None
        self.session: DeviceSession | None = None
        self.state = "idle"  # idle | joining | joined
        self.muted = False
        self.received_downlinks: list[bytes] = []
        self.skipped_sends = 0
        self._join_seq = 0
        self._join_request_id: int | None = None
        self._join_timer: int | None = None
        self._join_dev_nonce: bytes | None = None
        self._used_dev_nonces: set[bytes] = set()
        self._pending_uplinks: "OrderedDict[int, int]" = OrderedDict()
        engine.register(device_id, self.handle)

    # -- wiring --

    def attach_uplink(self, link: Link) -> None:
        self.uplink = link

    def install_session(self, dev_addr: bytes, nwk_s_key: bytes, app_s_key: bytes) -> None:
        """Adopt a session established out of band (bootstrap / provisioning)."""
        self.session = DeviceSession(dev_addr=dev_addr, nwk_s_key=nwk_s_key, app_s_key=app_s_key)
        self.state = "joined"

    def self_mint_session(self) -> None:
        """What an outsider does: invent an address and keys nobody vouches for."""
        dev_addr = bytes([UNAUTHORIZED_ADDR_PREFIX]) + self.rng.randbytes(3)
        self.install_session(dev_addr, self.rng.randbytes(16), self.rng.randbytes(16))

    def start(self, initial_delay_us: int) -> None:
        self.engine.schedule(initial_delay_us, self.device_id, TimerNextAction())

    # -- behavior --

    def _draw_interval_us(self) -> int:
        return self.rng.randint(self.profile.interval_lo_us, self.profile.interval_hi_us)

    def handle(self, payload) -> None:
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            raise TypeError("device cannot handle %r" % (payload,))
        handler(self, payload)

    def _next_action(self) -> None:
        if self.muted:
            return
        if self.profile.behavior == BEHAVIOR_JOIN_LOOP:
            self.begin_join()
        elif self.profile.behavior == BEHAVIOR_UPLINK_LOOP:
            self.send_uplink()
            self.engine.schedule(self._draw_interval_us(), self.device_id, TimerNextAction())

    def _fresh_dev_nonce(self) -> bytes:
        while True:
            nonce = self.rng.randbytes(2)
            if nonce not in self._used_dev_nonces:
                self._used_dev_nonces.add(nonce)
                return nonce

    def begin_join(self) -> None:
        if self.state == "joining" or self.uplink is None:
            return
        self._join_seq += 1
        dev_nonce = self._fresh_dev_nonce()
        frame = build_join_request(self.app_key, self.app_eui, self.dev_eui, dev_nonce)
        self._join_dev_nonce = dev_nonce
        self._join_request_id = self.recorder.issue("join", self.device_id, self.engine.now_us)
        self._join_timer = self.engine.schedule(
            self.profile.join_timeout_us, self.device_id, TimerJoinTimeout(self._join_seq)
        )
        self.state = "joining"
        data = serialize_frame(frame)
        self.engine.send(self.uplink, data, len(data))

    def send_uplink(self) -> None:
        if self.session is None or self.uplink is None:
            self.skipped_sends += 1
            return
        session = self.session
        if session.fcnt_up > 0xFFFF:
            self.skipped_sends += 1
            return
        plaintext = self.payload_plaintext(session.fcnt_up)
        ciphertext = encrypt_payload(
            session.app_s_key, session.dev_addr, session.fcnt_up, DIR_UP, plaintext
        )
        frame = build_data_frame(
            session.nwk_s_key,
            session.dev_addr,
            session.fcnt_up,
            self.profile.fport,
            ciphertext,
            DIR_UP,
        )
        request_id = self.recorder.issue("uplink", self.device_id, self.engine.now_us)
        timer = self.engine.schedule(
            self.profile.uplink_timeout_us, self.device_id, TimerUplinkTimeout(request_id)
        )
        self._pending_uplinks[request_id] = timer
        session.fcnt_up += 1
        data = serialize_frame(frame)
        self.engine.send(self.uplink, data, len(data))

    def payload_plaintext(self, fcnt: int) -> bytes:
        """Deterministic reading: device index, counter, fixed filler."""
        head = struct.pack("<IH", self.index, fcnt & 0xFFFF)
        filler_len = self.profile.payload_bytes - len(head)
        return head + b"\xa5" * filler_len

    # -- frame handling --

    def _on_air_frame(self, data: bytes) -> None:
        try:
            frame = parse_frame(data)
        except MalformedFrameError:
            return
        if isinstance(frame, EncryptedJoinAccept):
            self._on_join_accept(data)
        elif isinstance(frame, DataFrame) and frame.direction == DIR_DOWN:
            self._on_downlink(frame)

    def _on_join_accept(self, data: bytes) -> None:
        if self.state != "joining":
            return
        try:
            accept = open_join_accept(data, self.app_key)
        except (MalformedFrameError, MicMismatchError):
            return
        nwk_s_key, app_s_key = derive_session_keys(
            self.app_key, accept.app_nonce, accept.net_id, self._join_dev_nonce
        )
        self.session = DeviceSession(
            dev_addr=accept.dev_addr, nwk_s_key=nwk_s_key, app_s_key=app_s_key
        )
        self.state = "joined"
        if self._join_timer is not None:
            self.engine.cancel(self._join_timer)
            self._join_timer = None
        if self._join_request_id is not None:
            self.recorder.complete(self._join_request_id, self.engine.now_us)
            self._join_request_id = None
        if self.profile.behavior == BEHAVIOR_JOIN_LOOP:
            self.engine.schedule(self._draw_interval_us(), self.device_id, TimerNextAction())

    def _on_join_timeout(self, join_seq: int) -> None:
        if self.state != "joining" or join_seq != self._join_seq:
            return
        self.state = "joined" if self.session is not None else "idle"
        self._join_timer = None
        if self._join_request_id is not None:
            self.recorder.fail(self._join_request_id, self.engine.now_us)
            self._join_request_id = None
        if self.profile.behavior == BEHAVIOR_JOIN_LOOP:
            self.engine.schedule(self._draw_interval_us(), self.device_id, TimerNextAction())

    def _on_uplink_timeout(self, request_id: int) -> None:
        timer = self._pending_uplinks.pop(request_id, None)
        if timer is None:
            return
        self.recorder.fail(request_id, self.engine.now_us)

    def _on_downlink(self, frame: DataFrame) -> None:
        session = self.session
        if session is None or frame.dev_addr != session.dev_addr:
            return
        if not verify_data_mic(frame, session.nwk_s_key):
            return
        if len(frame.payload) == 0:
            if frame.fcnt <= session.last_fcnt_down:
                return
            session.last_fcnt_down = frame.fcnt
            # an ACK settles the oldest outstanding uplink
            if self._pending_uplinks:
                request_id, timer = self._pending_uplinks.popitem(last=False)
                self.engine.cancel(timer)
                self.recorder.complete(request_id, self.engine.now_us)
            return
        if frame.fcnt <= session.last_app_fcnt_down:
            return
        session.last_app_fcnt_down = frame.fcnt
        plaintext = decrypt_payload(
            session.app_s_key, session.dev_addr, frame.fcnt, DIR_DOWN, frame.payload
        )
        self.received_downlinks.append(plaintext)

    _HANDLERS = {
        bytes: _on_air_frame,
        bytearray: lambda device, data: device._on_air_frame(bytes(data)),
        TimerNextAction: lambda device, _: device._next_action(),
        TimerJoinTimeout: lambda device, timer: device._on_join_timeout(timer.join_seq),
        TimerUplinkTimeout: lambda device, timer: device._on_uplink_timeout(timer.request_id),
    }
