"""Module layering: the lower layers import without the node and harness layers."""

import os
import subprocess
import sys

import pytest

import loraledger

SRC = os.path.dirname(os.path.dirname(os.path.abspath(loraledger.__file__)))


def loaded_after_import(module: str) -> set[str]:
    """The ``loraledger`` modules a fresh interpreter holds after importing ``module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = (
        "import sys, %s\n"
        "print(' '.join(n for n in sys.modules if n.split('.')[0] == 'loraledger'))" % module
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_the_package_root_loads_no_module():
    assert loaded_after_import("loraledger") == {"loraledger"}


@pytest.mark.parametrize(
    "layer", ["crypto", "frames", "ledger", "consensus", "simnet", "metrics", "scenario"]
)
def test_a_lower_layer_loads_neither_nodes_nor_harness(layer):
    loaded = loaded_after_import("loraledger." + layer)
    assert "loraledger." + layer in loaded
    assert not loaded & {"loraledger.nodes", "loraledger.harness"}
