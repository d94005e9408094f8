"""Ordering and commit rules: solo batch cutting plus threshold vote rounds.

The orderer cuts a batch when it reaches the maximum message count or when a
timer fires at least batch_timeout after the first transaction of the batch
arrived; empty batches are never cut.  A vote round commits a block once at
least 2p+1 voters returned an identical "valid" verdict, and fails as soon as
the votes still outstanding cannot reach that threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import KeyDirectory

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
