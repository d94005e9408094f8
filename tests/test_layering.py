"""Module layering: the lower layers import without the node and harness layers
and, but for the engine itself, without the engine; ``frame decode`` runs
without the simulator, and ``ledger verify`` on the chain layers alone."""

import os
import random
import subprocess
import sys

import pytest

import loraledger
from loraledger.crypto import ROLE_SERVER, KeyDirectory, generate_keypair
from loraledger.ledger import (
    KIND_NETWORK,
    Ledger,
    SessionContext,
    assemble_block,
    dump_chain,
    make_network_tx,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(loraledger.__file__)))


def loaded_after(code: str, packages: tuple[str, ...] = ("loraledger",)) -> set[str]:
    """The modules of ``packages`` a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (
        "import sys\n%s\n"
        "print(' '.join(n for n in sys.modules if n.split('.')[0] in %r))" % (code, packages)
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.splitlines()[-1].split())  # ``code`` may print lines before


def loaded_after_import(module: str) -> set[str]:
    return loaded_after("import %s" % module)


def test_the_package_root_loads_no_module():
    assert loaded_after_import("loraledger") == {"loraledger"}


@pytest.mark.parametrize(
    "layer", ["crypto", "frames", "ledger", "consensus", "simnet", "metrics", "scenario"]
)
def test_a_lower_layer_loads_neither_nodes_nor_harness(layer):
    loaded = loaded_after_import("loraledger." + layer)
    assert "loraledger." + layer in loaded
    assert not loaded & {"loraledger.nodes", "loraledger.harness"}
    if layer != "simnet":
        # the consensus replica and the report writers run without the engine
        assert "loraledger.simnet" not in loaded


def test_frame_decode_loads_no_simulator():
    loaded = loaded_after(
        "from loraledger import cli\n"
        "assert cli.main(['frame', 'decode', '40010000010500010101010145b24721']) == 0"
    )
    assert "loraledger.metrics" in loaded
    layers = {"nodes", "harness", "simnet", "scenario"}
    assert not loaded & {"loraledger." + layer for layer in layers}


def write_network_chain(tmp_path) -> str:
    """Dump a one-block network chain signed by ``srv0``; returns its path."""
    directory = KeyDirectory()
    keypair = generate_keypair("srv0", 1)
    directory.add("srv0", keypair.public_key, ROLE_SERVER)
    context = SessionContext(
        dev_eui=b"\x01" * 8,
        app_key=bytes(16),
        dev_addr=b"\x00\x01\x00\x00",
        nwk_s_key=bytes(16),
        dev_nonce=b"\x00\x01",
        app_nonce=b"\x00\x00\x01",
    )
    ledger = Ledger(KIND_NETWORK)
    tx = make_network_tx(directory, keypair, context, 0, random.Random(1))
    ledger.append_block(assemble_block([tx], 0, 0, None), directory)
    path = tmp_path / "network.chain"
    path.write_bytes(dump_chain(ledger, directory))
    return str(path)


def test_ledger_verify_loads_only_the_chain_layers(tmp_path):
    loaded = loaded_after(
        "from loraledger import cli\nassert cli.main(['ledger', 'verify', %r]) == 0"
        % write_network_chain(tmp_path)
    )
    assert "loraledger.ledger" in loaded
    layers = {"nodes", "harness", "simnet", "metrics", "scenario"}
    assert not loaded & {"loraledger." + layer for layer in layers}


VERIFY = "from loraledger import cli\nassert cli.main(['ledger', 'verify', CHAIN]) == 0"
DECODE = (
    "from loraledger import cli\n"
    "assert cli.main(['frame', 'decode', '40010000010500010101010145b24721']) == 0"
)
SIGN = "from loraledger import crypto\ncrypto.sign(crypto.generate_keypair('gw0', 1), b'')"


@pytest.mark.parametrize(
    "code, loads",
    [(VERIFY, True), (DECODE, False), (SIGN, True)],
    ids=["ledger-verify", "frame-decode", "sign"],
)
def test_only_signing_loads_the_libsodium_signer(tmp_path, code, loads):
    """libsodium (and ``ctypes``) load on the first ``crypto.sign`` or
    ``crypto.verify``, never on import.

    ``frame decode`` neither signs nor verifies, so its process loads
    neither.  ``ledger verify`` accepts signatures through libsodium, but
    ``cryptography`` decides every rejection, so no verdict depends on the
    host: ``tests/test_crypto.py``'s verdict tests hold that on a host where
    the library loads, where it does not, and where it refuses every call.
    """
    chain = "CHAIN = %r\n" % write_network_chain(tmp_path)
    loaded = loaded_after(chain + code, packages=("loraledger", "ctypes"))
    assert ("ctypes" in loaded) is loads
