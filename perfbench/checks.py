"""Correctness checks on a finished mode pair.

Each check returns a list of failure messages; an empty list is a pass.  The
checks run after the timed phases, so they never change a timing.
"""

from __future__ import annotations

from loraledger import harness, ledger, metrics


def replica_chains(world) -> list[str]:
    """Every replica's chain validates, and the replicas of a channel hold one chain.

    ``Ledger.validate_chain`` depends only on the blocks and the key
    directory, so it runs on one replica per channel; every other replica
    must hold a block with the same hash at every height.
    """
    failures = []
    mode = world.config.mode
    for channel, maintainers in sorted(world.consensus.maintainers.items()):
        replicas = [n for n in world.gateways + world.servers if n.entity_id in maintainers]
        chains = {tuple(map(ledger.block_hash, n.ledgers[channel].blocks)) for n in replicas}
        if len(chains) != 1:
            failures.append(
                "%s: %s replicas hold %d different chains" % (mode, channel, len(chains))
            )
        if not replicas[0].ledgers[channel].validate_chain(world.key_directory):
            failures.append(
                "%s: %s chain of %s fails validation" % (mode, channel, replicas[0].entity_id)
            )
    return failures


def payloads_match(edge_world, traditional_world) -> list[str]:
    """Both modes commit the same multiset of application payloads."""
    if harness.committed_app_payloads(edge_world) != harness.committed_app_payloads(
        traditional_world
    ):
        return ["committed application payloads differ between the modes"]
    return []


def requests_settled(world) -> list[str]:
    """Committed app txs equal completed authorized uplinks; outsiders never complete."""
    failures = []
    mode = world.config.mode
    authorized = {d.device_id for d in world.devices if d.authorized}
    completed = [r for r in world.recorder.records if r.status == metrics.STATUS_COMPLETED]
    uplinks = sum(1 for r in completed if r.kind == "uplink" and r.device in authorized)
    app_txs = sum(harness.committed_app_payloads(world).values())
    if app_txs != uplinks:
        failures.append(
            "%s: %d committed app txs but %d completed authorized uplinks"
            % (mode, app_txs, uplinks)
        )
    outsiders = sum(1 for r in completed if r.device not in authorized)
    if outsiders:
        failures.append("%s: %d requests of unauthorized devices completed" % (mode, outsiders))
    return failures


def authorized_outcomes(world) -> tuple[int, int]:
    """(requests issued by authorized devices, those that failed or are still in flight)."""
    authorized = {d.device_id for d in world.devices if d.authorized}
    issued = [r for r in world.recorder.records if r.device in authorized]
    unsettled = sum(1 for r in issued if r.status != metrics.STATUS_COMPLETED)
    return len(issued), unsettled
