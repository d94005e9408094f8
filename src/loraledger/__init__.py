"""Dual-ledger LoRa network: frames, chains, consensus, and a simulator.

The package splits into protocol layers (``crypto``, ``frames``), chain
machinery (``ledger``, ``consensus``), the deterministic event engine
(``simnet``), node state machines (``nodes``), and the experiment harness
(``scenario``, ``metrics``, ``harness``, ``cli``).  Modules are imported by
path, such as ``loraledger.ledger``; the package root exports only
``__version__``.
"""

__version__ = "0.1.0"
