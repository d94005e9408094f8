"""The join server (JS), which answers joins, and the network controller (NC),
which verifies and ACKs uplinks, with no I/O (https://sans-io.readthedocs.io/).

Inputs are a parsed frame and its received bytes, operator calls and the
node's committed contexts.  Outputs are values: a join's context to publish,
radio route and accept, an uplink's radio route and ACK, or a refusal.  The
host, ``nodes.LedgerNode``, does the sends, ledger writes and work units.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from random import Random

from .crypto import (
    BadKeyError,
    DecryptionError,
    KeyDirectory,
    KeyPair,
    RootKey,
    derive_session_keys,
    pk_decrypt,
    public_key_of,
)
from .frames import (
    DIR_DOWN,
    DataFrame,
    JoinRequest,
    SessionKeys,
    build_data_frame,
    build_join_accept,
    verify_data_mic,
    verify_join_request,
)
from .ledger import Ledger, SessionContext, Transaction

#: the top half of each prefix's 24-bit address counter is kept for ABP devices,
#: so the join allocator, which hands out the counters below it, never meets one
ABP_COUNTER_MIN = 0x800000

UNKNOWN = "unknown"  # a refusal: no registration or session to check the frame against
REFUSED = "refused"  # a refusal: a bad MIC, a spent DevNonce or a replayed counter


def format_dev_addr(prefix: int, counter: int) -> bytes:
    """Creator-index prefix byte plus a 3-byte little-endian counter."""
    if not 0 <= prefix <= 0xFF:
        raise ValueError("prefix out of range")
    if not 1 <= counter <= 0xFFFFFF:
        raise ValueError("address counter exhausted")
    return bytes([prefix]) + struct.pack("<I", counter)[:3]


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


class JoinServer:
    """One node's JS and NC.

    ``network`` is the node's network ledger replica, None on a traditional
    gateway.  ``rng`` is the node's own stream, which app nonces are drawn
    from here and the contexts the host publishes are sealed with.
    """

    def __init__(
        self,
        entity_id: str,
        keypair: KeyPair,
        directory: KeyDirectory,
        net_id: bytes,
        rng: Random,
        network: Ledger | None,
    ) -> None:
        self.entity_id = entity_id
        self.keypair = keypair
        self.directory = directory
        self.net_id = net_id
        self.rng = rng
        self.network = network
        self.registry: dict[bytes, Registration] = {}  # by device EUI
        self._addr_counters: dict[int, int] = {}  # last address counter, by prefix
        self.sessions: dict[bytes, NcSession] = {}
        self.held_keys: dict[str, bytes] = {}
        self.coverage: dict[bytes, str] = {}  # device EUI -> device id; gateways only
        self.next_app_fcnt_down: dict[bytes, int] = {}
        self.joins_accepted = 0
        self.acks_sent = 0

    def register_device(self, dev_eui: bytes, app_key: RootKey, device_id: str) -> None:
        self.registry[dev_eui] = Registration(app_key, device_id)

    def committed_context(self, dev_addr: bytes) -> Transaction | None:
        """The committed transaction whose sealed context names an address; None
        when there is none or the node keeps no network replica."""
        return None if self.network is None else self.network.query_context(dev_addr)

    def open_session(
        self, dev_eui: bytes, dev_nonce: bytes, app_nonce: bytes, nwk_s_key: bytes, prefix: int
    ) -> SessionContext:
        """Spend a registered device's DevNonce, address it and serve its new session.

        A new address takes ``prefix``, the index of the gateway the join came
        through.  The context checks every field before anything is spent, so
        a refused call leaves the nonce unspent and no address assigned.
        """
        registration = self.registry[dev_eui]
        dev_addr, counter = registration.dev_addr, None
        if dev_addr is None:
            # joins take the counters below ABP_COUNTER_MIN in order, and only this
            # join server hands out its prefixes' join addresses, so the next is free
            counter = self._addr_counters.get(prefix, 0) + 1
            if counter >= ABP_COUNTER_MIN:
                raise ValueError("join address counter exhausted")
            dev_addr = format_dev_addr(prefix, counter)
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
        """Out-of-band private-key copy from a failing gateway; refused unless its
        public key is the registered one, since its sessions open only with it."""
        registered = self.directory.public_key(entity_id) if entity_id in self.directory else None
        if public_key_of(private_key) != registered:
            raise BadKeyError("not the registered key pair of %r" % entity_id)
        self.held_keys[entity_id] = private_key

    def join(self, frame: JoinRequest, prefix: int) -> tuple[SessionContext, str, bytes] | str:
        """Answer a join request heard by the gateway whose index is ``prefix``.

        Returns the new session's context, to publish, the accept's radio
        route (a device id) and the accept; else ``UNKNOWN`` or ``REFUSED``.
        """
        registration = self.registry.get(frame.dev_eui)
        if registration is None:
            return UNKNOWN
        app_key = registration.app_key
        if not verify_join_request(frame, app_key) or frame.dev_nonce in registration.spent_nonces:
            return REFUSED
        app_nonce = self.rng.randbytes(3)
        # the application session key is derived only by the device
        nwk_s_key, _ = derive_session_keys(app_key, app_nonce, self.net_id, frame.dev_nonce)
        context = self.open_session(frame.dev_eui, frame.dev_nonce, app_nonce, nwk_s_key, prefix)
        accept = build_join_accept(app_key, app_nonce, self.net_id, context.dev_addr)
        self.joins_accepted += 1
        return context, registration.device_id, accept

    def session(self, dev_addr: bytes) -> NcSession | None:
        """The session for an address, adopting a committed context this node can open."""
        session = self.sessions.get(dev_addr)
        if session is not None:
            return session
        tx = self.committed_context(dev_addr)
        if tx is None:
            return None
        if tx.requester == self.entity_id:
            private_key = self.keypair.private_key
        elif tx.requester in self.held_keys:
            private_key = self.held_keys[tx.requester]
        else:
            return None
        try:
            context = SessionContext.from_bytes(pk_decrypt(private_key, tx.payload))
        except (DecryptionError, ValueError):
            return None
        session = NcSession(context, self.coverage.get(context.dev_eui))
        self.sessions[dev_addr] = session
        return session

    def uplink(self, frame: DataFrame, data: bytes) -> tuple[str, bytes] | str | None:
        """Check one parsed uplink; ``data`` is its wire form, which the MIC check reads.

        Returns the ACK's radio route and the ACK, None for a device out of
        coverage, which gets no ACK, else ``UNKNOWN`` or ``REFUSED``.
        """
        session = self.session(frame.dev_addr)
        if session is None:
            return UNKNOWN
        if not verify_data_mic(session.keys, data) or frame.fcnt <= session.last_fcnt_up:
            return REFUSED
        session.last_fcnt_up = frame.fcnt
        if session.device_id is None:
            return None
        ack = build_data_frame(session.keys, session.next_fcnt_down, 0, b"", DIR_DOWN)
        session.next_fcnt_down += 1
        self.acks_sent += 1
        return session.device_id, ack

    def abp_provision(self, context: SessionContext, device_id: str, n_gateways: int) -> None:
        """Serve an operator-supplied session, whose context the host publishes.

        ABP addresses keep the serving gateway's index as their prefix, since
        downlinks route by it, and take a counter from the prefix's top half
        (``ABP_COUNTER_MIN`` and up), where no join address lies: an edge
        gateway cannot see a provisioned context until it commits.  Any other
        address, or one in use, is refused, and nothing changes.
        """
        dev_addr = context.dev_addr
        if dev_addr[0] >= n_gateways:
            raise ValueError("no gateway serves address %s" % dev_addr.hex())
        if int.from_bytes(dev_addr[1:], "little") < ABP_COUNTER_MIN:
            raise ValueError("device address %s is outside the ABP range" % dev_addr.hex())
        # an address not yet committed is in sessions; every other one is on the ledger
        if dev_addr in self.sessions or self.committed_context(dev_addr) is not None:
            raise ValueError("device address %s already in use" % dev_addr.hex())
        registration = self.registry.get(context.dev_eui)
        if registration is not None:
            registration.dev_addr = dev_addr  # a later join keeps this address
        self.sessions[dev_addr] = NcSession(context, device_id)

    def reserve_fcnt_down(self, dev_addr: bytes) -> int:
        """Hand out the next application downlink counter, kept apart from the NC's ACKs."""
        fcnt = self.next_app_fcnt_down.get(dev_addr, 0)
        self.next_app_fcnt_down[dev_addr] = fcnt + 1
        return fcnt
