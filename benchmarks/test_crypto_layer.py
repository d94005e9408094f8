"""Micro-benchmarks of the crypto hot path (pytest-benchmark).

    python3 -m pytest benchmarks --benchmark-only

Outside the Tier-1 ``testpaths``; each benchmark also checks its result, so
a fast wrong answer does not pass.
"""

import pytest

from loraledger import crypto
from loraledger.crypto import KeyDirectory, ROLE_SERVER, generate_keypair, mac32, sign
from loraledger.frames import DIR_UP, decrypt_payload, encrypt_payload

KEYPAIR = generate_keypair("srv0", 1)
MESSAGE = bytes(range(256)) * 2
SIGNATURE = sign(KEYPAIR.private_key, MESSAGE)
SYM_KEY = bytes(range(16))
DEV_ADDR = bytes.fromhex("01000001")


def test_sign(benchmark):
    assert benchmark(sign, KEYPAIR.private_key, MESSAGE) == SIGNATURE


def test_verify(benchmark):
    assert benchmark(crypto.verify, KEYPAIR.public_key, MESSAGE, SIGNATURE)


def test_key_directory_verify_memo_hit(benchmark):
    directory = KeyDirectory()
    directory.add("srv0", KEYPAIR.public_key, ROLE_SERVER)
    assert directory.verify("srv0", MESSAGE, SIGNATURE)  # fill the memo
    assert benchmark(directory.verify, "srv0", MESSAGE, SIGNATURE)


def test_mac32(benchmark):
    assert len(benchmark(mac32, SYM_KEY, MESSAGE[:64])) == crypto.MIC_LEN


@pytest.mark.parametrize("size", [16, 242])
def test_encrypt_payload(benchmark, size):
    plain = MESSAGE[:size]
    sealed = benchmark(encrypt_payload, SYM_KEY, DEV_ADDR, 7, DIR_UP, plain)
    assert decrypt_payload(SYM_KEY, DEV_ADDR, 7, DIR_UP, sealed) == plain
