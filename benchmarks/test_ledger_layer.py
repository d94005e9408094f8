"""Micro-benchmarks of the ledger layer (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.  Blocks hold 16 network transactions,
the chain 8 such blocks; the chain whose load fans out holds just over
``PARALLEL_MIN_SIGNATURES`` transactions.  An application transaction signs
a 20-byte reading, the default size, through a directory of its own, so its
verdict memo does not evict the chain's verdicts.
"""

import itertools
import random
import struct
from dataclasses import replace

from loraledger.crypto import (
    KeyDirectory,
    ROLE_GATEWAY,
    ROLE_SERVER,
    generate_keypair,
    hash_bytes,
    verify,
)
from loraledger.ledger import (
    DUMP_MAGIC,
    PARALLEL_MIN_SIGNATURES,
    KIND_NETWORK,
    Ledger,
    SessionContext,
    assemble_block,
    block_from_bytes,
    block_hash,
    build_merkle,
    dump_chain,
    load_chain,
    make_app_tx,
    make_network_tx,
    transaction_from_bytes,
    validate_block,
)

KEYPAIR = generate_keypair("gw0", 1)
DIRECTORY = KeyDirectory()
DIRECTORY.add("gw0", KEYPAIR.public_key, ROLE_GATEWAY)
TXS_PER_BLOCK = 16


def _context(n: int) -> SessionContext:
    return SessionContext(
        dev_eui=struct.pack("<Q", n + 1),
        app_key=bytes(16),
        dev_addr=struct.pack("<I", n + 1),
        nwk_s_key=bytes(16),
        dev_nonce=bytes(2),
        app_nonce=bytes(3),
    )


def _chain(n_blocks: int) -> Ledger:
    ledger = Ledger(KIND_NETWORK)
    rng = random.Random(1)
    for z in range(n_blocks):
        txs = [
            make_network_tx(DIRECTORY, KEYPAIR, _context(z * TXS_PER_BLOCK + i), z, rng)
            for i in range(TXS_PER_BLOCK)
        ]
        ledger.append_block(assemble_block(txs, z, z, ledger.tip), DIRECTORY)
    return ledger


CHAIN = _chain(8)
GENESIS, NEXT = CHAIN.blocks[0], CHAIN.blocks[1]
NEXT_BYTES = NEXT.to_bytes()
DUMP = dump_chain(CHAIN, DIRECTORY)
LONG_CHAIN = _chain(PARALLEL_MIN_SIGNATURES // TXS_PER_BLOCK + 1)
LONG_DUMP = dump_chain(LONG_CHAIN, DIRECTORY)
LEAVES = [hash_bytes(bytes([n])) for n in range(200)]  # a full default batch


def _reference_root(row: list[bytes]) -> bytes:
    while len(row) > 1:
        row = [
            hash_bytes(row[i] + row[i + 1]) if i + 1 < len(row) else row[i]
            for i in range(0, len(row), 2)
        ]
    return row[0]


def test_build_merkle(benchmark):
    assert benchmark(build_merkle, LEAVES) == _reference_root(LEAVES)


def test_tx_to_bytes(benchmark):
    raw = benchmark(NEXT.txs[0].to_bytes)
    head = 8 + 8 + 2 + len(NEXT.merkle_root) + 32 + 4  # block fields before the first tx
    assert NEXT_BYTES[head : head + len(raw)] == raw
    assert transaction_from_bytes(raw) == NEXT.txs[0]


def test_block_to_bytes(benchmark):
    raw = benchmark(NEXT.to_bytes)
    assert raw == NEXT_BYTES
    assert hash_bytes(raw) == CHAIN.blocks[2].prev_hash


def test_block_from_bytes(benchmark):
    assert benchmark(block_from_bytes, NEXT_BYTES) == NEXT


def test_assemble_block(benchmark):
    block = benchmark(assemble_block, list(NEXT.txs), 1, NEXT.tau_ms, GENESIS)
    assert block == NEXT
    assert block.prev_hash == block_hash(GENESIS)


def _fresh_next():
    # a copy of NEXT that remembers no verdict; its signatures' verdicts are
    # in the directory's memo, and GENESIS remembers its digest
    return (replace(NEXT), GENESIS, DIRECTORY, KIND_NETWORK), {}


def test_validate_block_warm(benchmark):
    assert benchmark.pedantic(validate_block, setup=_fresh_next, rounds=200)


def test_validate_block_accepted(benchmark):
    # NEXT was appended to CHAIN, so it remembers that DIRECTORY accepted its body
    assert benchmark(validate_block, NEXT, GENESIS, DIRECTORY, KIND_NETWORK)


def _fresh_ledger():
    return (Ledger(KIND_NETWORK), replace(GENESIS)), {}


def test_append_block(benchmark):
    def append(ledger, block):
        ledger.append_block(block, DIRECTORY)
        return ledger

    ledger = benchmark.pedantic(append, setup=_fresh_ledger, rounds=200)
    assert ledger.blocks == [GENESIS]
    assert len(ledger.world_state) == TXS_PER_BLOCK


def test_dump_chain(benchmark):
    data = benchmark(dump_chain, CHAIN, DIRECTORY)
    assert data.startswith(DUMP_MAGIC)
    assert hash_bytes(data[:-32]) == data[-32:]
    assert data == DUMP


def _check_load(load, chain):
    ledger, directory = load
    assert [block_hash(b) for b in ledger.blocks] == [block_hash(b) for b in chain.blocks]
    assert ledger.world_state == chain.world_state
    assert directory.items() == DIRECTORY.items()


def test_load_chain(benchmark):
    # a fresh key directory per load: every signature is verified again, in this process
    assert len(CHAIN.blocks) * TXS_PER_BLOCK < PARALLEL_MIN_SIGNATURES
    _check_load(benchmark(load_chain, DUMP), CHAIN)


def test_load_chain_fanned_out(benchmark):
    # signatures checked on verify_jobs() threads: one without libsodium or a second CPU
    assert len(LONG_CHAIN.blocks) * TXS_PER_BLOCK >= PARALLEL_MIN_SIGNATURES
    _check_load(benchmark(load_chain, LONG_DUMP), LONG_CHAIN)


SERVER_KEYPAIR = generate_keypair("srv0", 1)
READING = bytes(range(20))


def test_make_app_tx(benchmark):
    """One application transaction as a server makes it per verified uplink."""
    directory = KeyDirectory()
    directory.add("srv0", SERVER_KEYPAIR.public_key, ROLE_SERVER)
    timestamps = itertools.count()
    tx = benchmark(lambda: make_app_tx(directory, SERVER_KEYPAIR, READING, next(timestamps)))
    assert (tx.requester, tx.payload) == ("srv0", READING)
    assert verify(SERVER_KEYPAIR.public_key, tx.signed_span(), tx.signature)
