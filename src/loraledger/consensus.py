"""Ordering and commit: solo batch cutting, threshold vote rounds, and the replica.

The orderer cuts a batch when it reaches the maximum message count or when a
timer fires at least batch_timeout after the first transaction of the batch
arrived; empty batches are never cut.  A vote round commits a block once at
least 2p+1 voters returned an identical "valid" verdict, and fails as soon as
the votes still outstanding cannot reach that threshold.

``Replica`` is one maintainer's side of the protocol over every channel it
keeps: it orders on the channel's orderer host, proposes, votes and commits.
It does no I/O itself; a subclass supplies the clock and the transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import KeyDirectory
from .ledger import (
    Block,
    InvalidBlockError,
    Ledger,
    Transaction,
    assemble_block,
    block_hash,
    validate_block,
    validate_body,
    validate_tx,
)

COMMITTED = "committed"
PENDING = "pending"
FAILED = "failed"


class VoteRejectedError(Exception):
    """A vote from an unauthorized voter or with a bad signature."""


@dataclass(frozen=True)
class BatchConfig:
    batch_timeout_ms: int = 2000
    max_message_count: int = 200

    def __post_init__(self) -> None:
        if self.batch_timeout_ms <= 0 or self.max_message_count <= 0:
            raise ValueError("batch timeout and message count must be positive")


@dataclass(frozen=True)
class ConsensusConfig:
    """Who orders, who maintains, and how blocks commit, per channel."""

    mode: str  # "solo" | "pbft"
    p: int
    batch: BatchConfig
    orderer_hosts: dict[str, str]
    maintainers: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        if self.mode not in ("solo", "pbft"):
            raise ValueError("consensus mode must be 'solo' or 'pbft'")
        if self.p < 0:
            raise ValueError("p must be non-negative")


class SoloOrderer:
    """Single ordering service for one channel."""

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._pending: list = []
        self._digests: set[bytes] = set()
        self._batch_start_ms: int | None = None

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def deadline_ms(self) -> int | None:
        """When the current batch becomes cuttable by timer; None when empty."""
        if self._batch_start_ms is None:
            return None
        return self._batch_start_ms + self.config.batch_timeout_ms

    def submit(self, tx, now_ms: int) -> list | None:
        """Queue one transaction unless already queued; returns the batch if it filled it."""
        digest = tx.signature
        if digest in self._digests:
            return None
        if not self._pending:
            self._batch_start_ms = now_ms
        self._pending.append(tx)
        self._digests.add(digest)
        if len(self._pending) == self.config.max_message_count:
            return self._cut()
        return None

    def on_timer(self, now_ms: int) -> list | None:
        """Cut any non-empty batch whose first arrival is at least a timeout old."""
        if self._pending and now_ms - self._batch_start_ms >= self.config.batch_timeout_ms:
            return self._cut()
        return None

    def _cut(self) -> list:
        batch = self._pending
        self._pending = []
        self._digests = set()
        self._batch_start_ms = None
        return batch


def consensus_state(
    n_voters: int, p: int, valid: int, invalid: int, unreachable: int
) -> str:
    """Tri-state commit rule given vote counts.

    Committed once valid >= 2p+1; failed once the voters that could still
    respond cannot lift the valid count to the threshold; pending otherwise.
    """
    if n_voters < 1 or p < 0:
        raise ValueError("need at least one voter and a non-negative p")
    if min(valid, invalid, unreachable) < 0 or valid + invalid + unreachable > n_voters:
        raise ValueError("vote counts exceed the voter set")
    threshold = 2 * p + 1
    if valid >= threshold:
        return COMMITTED
    outstanding = n_voters - valid - invalid - unreachable
    if valid + outstanding < threshold:
        return FAILED
    return PENDING


def vote_message(block_hash: bytes, verdict: bool) -> bytes:
    """The byte span a voter signs: domain tag, block hash, verdict flag."""
    return b"vote\x00" + block_hash + (b"\x01" if verdict else b"\x00")


def make_vote(directory: KeyDirectory, keypair, block_hash: bytes, verdict: bool) -> bytes:
    return directory.sign(keypair, vote_message(block_hash, verdict))


class VoteRound:
    """Collects signed verdicts on one block hash from a fixed voter set."""

    def __init__(
        self, block_hash: bytes, voters: tuple[str, ...], p: int, key_directory: KeyDirectory
    ) -> None:
        if len(set(voters)) != len(voters):
            raise ValueError("duplicate voter ids")
        consensus_state(len(voters), p, 0, 0, 0)  # validates n and p
        self.block_hash = block_hash
        self.voters = tuple(voters)
        self.p = p
        self._directory = key_directory
        self._verdicts: dict[str, bool] = {}
        self._unreachable: set[str] = set()

    def collect_vote(self, voter: str, verdict: bool, signature: bytes) -> None:
        """Record one vote; re-votes are ignored, bad votes are rejected."""
        if voter not in self.voters:
            raise VoteRejectedError("voter %r is not in this round" % voter)
        if not self._directory.verify(voter, vote_message(self.block_hash, verdict), signature):
            raise VoteRejectedError("vote signature from %r failed verification" % voter)
        if voter in self._verdicts or voter in self._unreachable:
            return
        self._verdicts[voter] = verdict

    def mark_unreachable(self, voter: str) -> None:
        """Declare that a voter will never respond in this round."""
        if voter not in self.voters:
            raise VoteRejectedError("voter %r is not in this round" % voter)
        if voter not in self._verdicts:
            self._unreachable.add(voter)

    @property
    def valid_count(self) -> int:
        return sum(1 for verdict in self._verdicts.values() if verdict)

    def check(self) -> str:
        invalid = len(self._verdicts) - self.valid_count
        return consensus_state(
            len(self.voters), self.p, self.valid_count, invalid, len(self._unreachable)
        )


# ---------------------------------------------------------------------------
# consensus messages (sizes documented in docs/wire.md)


@dataclass(frozen=True)
class TxSubmit:
    channel: str
    tx: Transaction

    def wire_size(self) -> int:
        return 1 + 1 + 2 + self.tx.wire_len()


@dataclass(frozen=True)
class BlockAnnounce:
    channel: str
    block: Block

    def wire_size(self) -> int:
        return 1 + 1 + 4 + self.block.wire_len()


@dataclass(frozen=True)
class BlockProposal:
    channel: str
    proposer: str
    block: Block

    def wire_size(self) -> int:
        return 1 + 1 + 2 + len(self.proposer.encode("utf-8")) + 4 + self.block.wire_len()


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


@dataclass(frozen=True)
class OrdererTick:
    """A timer a replica sets for its own orderer; it never crosses the wire."""

    channel: str


@dataclass(eq=False)
class Channel:
    """One channel as a replica keeps it: its ledger replica and consensus state."""

    name: str
    ledger: Ledger
    peers: tuple[str, ...]  # the channel's other maintainers
    orderer: SoloOrderer | None = None  # set on the channel's orderer host only
    # proposer side: the one open round, with its block
    round: tuple[VoteRound, Block] | None = None
    queued: list = field(default_factory=list)  # batches cut while a round is open
    # backhaul messages are not FIFO, so tolerate reordered deliveries
    early: dict[int, Block] = field(default_factory=dict)  # above the chain, by height
    proposals: dict[bytes, Block] = field(default_factory=dict)  # voter side, by block hash
    commit_wanted: set[bytes] = field(default_factory=set)  # notices that beat their proposal


class Replica:
    """One maintainer's ordering and commit state, over every channel it keeps.

    It builds a ``Channel`` for each channel whose maintainers name it, with
    a ``SoloOrderer`` where it is the orderer host.  A subclass supplies the
    clock and transport: ``now_ms``, ``_send(peer, message)``,
    ``_to_peers(channel, message)`` and ``_set_timer(at_ms, tick)``, which
    hands ``tick`` back to the ``_HANDLERS`` table at ``at_ms``.
    """

    def __init__(
        self, entity_id: str, keypair, key_directory: KeyDirectory, consensus: ConsensusConfig
    ) -> None:
        self.entity_id = entity_id
        self.keypair = keypair
        self.directory = key_directory
        self.consensus = consensus
        self.channels: dict[str, Channel] = {}
        for name, maintainers in consensus.maintainers.items():
            if entity_id in maintainers:
                hosted = consensus.orderer_hosts[name] == entity_id
                self.channels[name] = Channel(
                    name,
                    Ledger(name),
                    tuple(m for m in maintainers if m != entity_id),
                    SoloOrderer(consensus.batch) if hosted else None,
                )
        self.invalid_blocks = 0
        self.failed_rounds = 0
        self.rejected_votes = 0

    @property
    def ledgers(self) -> dict[str, Ledger]:
        """Each kept channel's ledger replica, by channel name."""
        return {name: channel.ledger for name, channel in self.channels.items()}

    def submit_tx(self, channel: str, tx: Transaction) -> None:
        host = self.consensus.orderer_hosts[channel]
        if host == self.entity_id:
            self._orderer_submit(self.channels[channel], tx)
        else:
            self._send(host, TxSubmit(channel=channel, tx=tx))

    def _orderer_submit(self, channel: Channel, tx: Transaction) -> None:
        orderer = channel.orderer
        started_batch = orderer.pending_count == 0
        batch = orderer.submit(tx, self.now_ms)
        if batch is not None:
            self._propose(channel, batch)
        elif started_batch:
            self._set_timer(orderer.deadline_ms, OrdererTick(channel.name))

    def _on_orderer_tick(self, tick: OrdererTick) -> None:
        channel = self.channels[tick.channel]  # a timer this replica set for its own orderer
        batch = channel.orderer.on_timer(self.now_ms)
        if batch is not None:
            self._propose(channel, batch)

    def _on_tx_submit(self, msg: TxSubmit) -> None:
        channel = self.channels.get(msg.channel)
        if channel is None or channel.orderer is None:
            return  # this replica does not order the channel
        # judge a peer's transaction on its own, so a bad one cannot sink its batch
        if validate_tx(msg.tx, self.directory, channel.name):
            self._orderer_submit(channel, msg.tx)

    def _propose(self, channel: Channel, batch: list) -> None:
        if channel.round is not None:
            # one outstanding proposal per channel keeps block heights linear
            channel.queued.append(batch)
            return
        ledger = channel.ledger
        block = assemble_block(batch, ledger.height, self.now_ms, ledger.tip)
        if self.consensus.mode == "solo":
            self._commit_block(channel, block)
            self._to_peers(channel, BlockAnnounce(channel=channel.name, block=block))
            return
        digest = block_hash(block)
        voters = self.consensus.maintainers[channel.name]
        vote_round = VoteRound(digest, voters, self.consensus.p, self.directory)
        channel.round = (vote_round, block)
        verdict = validate_block(block, ledger.tip, self.directory, channel.name)
        signature = make_vote(self.directory, self.keypair, digest, verdict)
        vote_round.collect_vote(self.entity_id, verdict, signature)
        self._to_peers(
            channel, BlockProposal(channel=channel.name, proposer=self.entity_id, block=block)
        )
        self._settle_round(channel)

    def _commit_block(self, channel: Channel, block: Block) -> None:
        ledger = channel.ledger
        if block.zeta > ledger.height:
            # hold only a block that could ever be appended
            if validate_body(block, self.directory, channel.name):
                channel.early[block.zeta] = block
            else:
                self.invalid_blocks += 1
            return
        if block.zeta < ledger.height:
            return  # stale duplicate of something already on chain
        # a loop, not a recursion: any number of held successors may follow
        while block is not None:
            try:
                ledger.append_block(block, self.directory)
            except InvalidBlockError:
                self.invalid_blocks += 1
                return
            # a failed round's proposal for this height can never commit now;
            # solo ordering never holds one
            if channel.proposals:
                for digest, proposal in list(channel.proposals.items()):
                    if proposal.zeta < ledger.height:
                        del channel.proposals[digest]
            block = channel.early.pop(ledger.height, None)

    def _settle_round(self, channel: Channel) -> None:
        vote_round, block = channel.round
        state = vote_round.check()
        if state == COMMITTED:
            channel.round = None
            self._commit_block(channel, block)
            notice = CommitNotice(channel=channel.name, block_hash=vote_round.block_hash)
            self._to_peers(channel, notice)
        elif state == FAILED:
            channel.round = None
            self.failed_rounds += 1
        else:
            return
        if channel.queued:
            self._propose(channel, channel.queued.pop(0))

    def _on_announce(self, msg: BlockAnnounce) -> None:
        channel = self.channels.get(msg.channel)
        if channel is None or self.consensus.mode != "solo":
            # a block for a channel this replica does not keep, or one that
            # skipped the vote: only solo ordering announces
            self.invalid_blocks += 1
        else:
            self._commit_block(channel, msg.block)

    def _on_proposal(self, msg: BlockProposal) -> None:
        channel = self.channels.get(msg.channel)
        if (
            channel is None
            or msg.proposer not in channel.peers
            or msg.proposer != self.consensus.orderer_hosts[msg.channel]
        ):
            # only the orderer host of a kept channel proposes, and never to itself
            self.invalid_blocks += 1
            return
        digest = block_hash(msg.block)
        verdict = validate_block(msg.block, channel.ledger.tip, self.directory, channel.name)
        self._send(
            msg.proposer,
            VoteMessage(
                channel=channel.name,
                voter=self.entity_id,
                block_hash=digest,
                verdict=verdict,
                signature=make_vote(self.directory, self.keypair, digest, verdict),
            ),
        )
        if digest in channel.commit_wanted:
            # the commit notice overtook this proposal on the backhaul
            channel.commit_wanted.discard(digest)
            self._commit_block(channel, msg.block)
        elif verdict or validate_body(msg.block, self.directory, channel.name):
            # hold only a block that could commit; a lagging voter may vote
            # against one that is valid at its height and see it commit later
            channel.proposals[digest] = msg.block

    def _on_vote(self, msg: VoteMessage) -> None:
        channel = self.channels.get(msg.channel)
        if channel is None or channel.round is None:
            return  # no open round: it has settled, or the channel is not kept here
        vote_round = channel.round[0]
        if vote_round.block_hash != msg.block_hash:
            return  # a vote on an earlier round's block
        try:
            vote_round.collect_vote(msg.voter, msg.verdict, msg.signature)
        except VoteRejectedError:
            self.rejected_votes += 1
        self._settle_round(channel)

    def _on_commit_notice(self, msg: CommitNotice) -> None:
        channel = self.channels.get(msg.channel)
        if channel is None:
            return
        block = channel.proposals.pop(msg.block_hash, None)
        if block is not None:
            self._commit_block(channel, block)
        else:
            channel.commit_wanted.add(msg.block_hash)

    # consensus payload type -> handler(replica, payload); subclasses extend it
    _HANDLERS = {
        OrdererTick: _on_orderer_tick,
        TxSubmit: _on_tx_submit,
        BlockAnnounce: _on_announce,
        BlockProposal: _on_proposal,
        VoteMessage: _on_vote,
        CommitNotice: _on_commit_notice,
    }
