"""The join server and network controller with no engine: two edge gateways'
cores and ``srv0``'s, each on its own network ledger replica, sharing the blocks
committed from the contexts they publish."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger.crypto import (
    ROLE_GATEWAY,
    ROLE_SERVER,
    BadKeyError,
    KeyDirectory,
    RootKey,
    generate_keypair,
)
from loraledger.frames import build_join_request, open_join_accept, parse_frame
from loraledger.joinserver import ABP_COUNTER_MIN, REFUSED, UNKNOWN, JoinServer, format_dev_addr
from loraledger.ledger import KIND_NETWORK, Ledger, SessionContext, assemble_block, make_network_tx

NET_ID = b"\x00\x00\x13"
GATEWAYS = ("gw0", "gw1")
ENTITIES = GATEWAYS + ("srv0",)
N_DEVICES = 4
# join slots, the ABP range's first slots, and one ABP slot below the range
COUNTERS = (1, 2, ABP_COUNTER_MIN - 1, ABP_COUNTER_MIN, ABP_COUNTER_MIN + 1)


class Network:
    """Each device is registered with, and covered by, both gateways' join servers."""

    def __init__(self) -> None:
        self.directory = KeyDirectory()
        self.keypairs = {e: generate_keypair(e, 1) for e in ENTITIES}
        self.cores = {}
        for e, keypair in self.keypairs.items():
            role = ROLE_GATEWAY if e in GATEWAYS else ROLE_SERVER
            self.directory.add(e, keypair.public_key, role)
            self.cores[e] = JoinServer(
                e, keypair, self.directory, NET_ID, random.Random(e), Ledger(KIND_NETWORK)
            )
        self.euis = [bytes([k + 1]) * 8 for k in range(N_DEVICES)]
        self.app_keys = [RootKey(bytes([k + 1]) * 16) for k in range(N_DEVICES)]
        for gw in GATEWAYS:
            for k, (eui, app_key) in enumerate(zip(self.euis, self.app_keys)):
                self.cores[gw].register_device(eui, app_key, "dev%d" % k)
                self.cores[gw].coverage[eui] = "dev%d" % k
        self.pending = []  # published contexts not yet in a block

    def publish(self, entity_id: str, context: SessionContext) -> None:
        core = self.cores[entity_id]
        tx = make_network_tx(self.directory, self.keypairs[entity_id], context, 0, core.rng)
        self.pending.append(tx)

    def commit(self) -> None:
        if not self.pending:
            return
        network = self.cores["srv0"].network
        block = assemble_block(self.pending, network.height, 0, network.tip)
        for core in self.cores.values():
            core.network.append_block(block, self.directory)
        self.pending = []

    def state(self) -> dict:
        """What a refused operation must leave as it was, on every core."""
        return {
            e: (
                {eui: (r.dev_addr, frozenset(r.spent_nonces)) for eui, r in core.registry.items()},
                dict(core._addr_counters),
                dict(core.sessions),
                dict(core.held_keys),
            )
            for e, core in self.cores.items()
        }


def _abp_context(eui: bytes, dev_addr: bytes) -> SessionContext:
    return SessionContext(
        dev_eui=eui,
        app_key=bytes(16),
        dev_addr=dev_addr,
        nwk_s_key=bytes(16),
        dev_nonce=b"\x00\x09",
        app_nonce=b"\x09\x08\x07",
    )


_operations = st.lists(
    st.one_of(
        # through gateway, device, DevNonce (few, so some replay), signed with its own key?
        st.tuples(
            st.just("join"), st.integers(0, 1), st.integers(0, N_DEVICES - 1),
            st.integers(1, 3), st.booleans(),
        ),
        # device, prefix (one past the last gateway's is unroutable), counter
        st.tuples(
            st.just("abp"), st.integers(0, N_DEVICES - 1), st.integers(0, len(GATEWAYS)),
            st.sampled_from(COUNTERS),
        ),
        st.just(("commit",)),
        # to gateway, the key of, the owner's own key (else a random one)?
        st.tuples(
            st.just("handover"), st.integers(0, 1), st.sampled_from(ENTITIES + ("nobody",)),
            st.booleans(),
        ),
        # core, prefix, counter: a session lookup, which adopts what the core can open
        st.tuples(
            st.just("lookup"), st.sampled_from(ENTITIES), st.integers(0, len(GATEWAYS) - 1),
            st.sampled_from(COUNTERS),
        ),
    ),
    max_size=30,
)


def _step(net: Network, operation: tuple) -> bool:
    """Run one operation; returns whether a core refused it."""
    kind, *args = operation
    if kind == "join":
        k, device, nonce, own_key = args
        core = net.cores[GATEWAYS[k]]
        app_key = net.app_keys[device] if own_key else RootKey(b"\x33" * 16)
        dev_nonce = bytes([0, nonce])
        fresh = own_key and dev_nonce not in core.registry[net.euis[device]].spent_nonces
        request = build_join_request(app_key, bytes(8), net.euis[device], dev_nonce)
        outcome = core.join(parse_frame(request), k)
        if outcome is REFUSED:
            assert not fresh
            return True
        assert fresh and outcome is not UNKNOWN  # every device is registered here
        context, device_id, accept = outcome
        dev_addr = open_join_accept(accept, net.app_keys[device]).dev_addr
        assert dev_addr == context.dev_addr == core.registry[net.euis[device]].dev_addr
        assert core.sessions[dev_addr].context == context
        assert device_id == "dev%d" % device
        net.publish(GATEWAYS[k], context)
    elif kind == "abp":
        device, prefix, counter = args
        context = _abp_context(net.euis[device], format_dev_addr(prefix, counter))
        try:
            net.cores["srv0"].abp_provision(context, "dev%d" % device, len(GATEWAYS))
        except ValueError:
            return True
        net.publish("srv0", context)
    elif kind == "commit":
        net.commit()
    elif kind == "handover":
        k, owner, own_key = args
        keypair = net.keypairs.get(owner) or generate_keypair(owner, 1)
        private_key = keypair.private_key if own_key else random.Random(owner).randbytes(32)
        try:
            net.cores[GATEWAYS[k]].receive_key_handover(owner, private_key)
        except BadKeyError:
            assert owner not in net.keypairs or not own_key
            return True
        assert owner in net.keypairs and own_key
    else:
        entity_id, prefix, counter = args
        net.cores[entity_id].session(format_dev_addr(prefix, counter))
    return False


@settings(max_examples=200, deadline=None)
@given(operations=_operations)
def test_no_two_live_sessions_share_an_address_and_a_refusal_changes_nothing(operations):
    """Joins through either gateway, ABP at ``srv0``, commits and key handovers, in any
    order: after every step each address a session holds on any core is one device's
    and names a gateway, and a refused operation left every core as it was."""
    net = Network()
    for operation in operations:
        before = net.state()
        if _step(net, operation):
            assert net.state() == before
        held: dict[bytes, set[bytes]] = {}
        for core in net.cores.values():
            for dev_addr, session in core.sessions.items():
                held.setdefault(dev_addr, set()).add(session.context.dev_eui)
        assert all(len(euis) == 1 for euis in held.values())
        assert all(dev_addr[0] < len(GATEWAYS) for dev_addr in held)


def test_a_handover_key_that_is_not_the_registered_pair_is_refused():
    """A random key for a known gateway, another registered entity's key, or a
    real key for an id the directory does not know, is refused and held nowhere;
    held, it would make every adoption of that requester's sessions fail
    silently.  The registered key is held."""
    net = Network()
    gw0, gw1 = net.keypairs["gw0"], net.cores["gw1"]
    with pytest.raises(BadKeyError):
        gw1.receive_key_handover("gw0", random.Random(1).randbytes(32))
    with pytest.raises(BadKeyError):
        gw1.receive_key_handover("nobody", gw0.private_key)
    with pytest.raises(BadKeyError):  # a wrong seed: a registered key, but srv0's
        gw1.receive_key_handover("gw0", net.keypairs["srv0"].private_key)
    assert gw1.held_keys == {}
    gw1.receive_key_handover("gw0", gw0.private_key)
    assert gw1.held_keys == {"gw0": gw0.private_key}
