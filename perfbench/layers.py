"""Per-layer metrics of a traced run, summed over both deployment modes."""

from __future__ import annotations

from loraledger import ledger, simnet

from tracer import SPAN_NAMES

# Spans of the chain phase (dump, then load and validate in-process), which
# is traced as its own segment after the simulation.
CHAIN_SPANS = ("ledger.dump_chain", "ledger.load_chain")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _committed(world, channel: str) -> tuple[int, int]:
    """(blocks, txs) on one replica of a channel; every replica agrees (checked)."""
    maintainer = world.consensus.maintainers[channel][0]
    node = next(n for n in world.gateways + world.servers if n.entity_id == maintainer)
    blocks = node.ledgers[channel].blocks
    return len(blocks), sum(len(b.txs) for b in blocks)


def per_layer(totals: dict, worlds: list) -> dict[str, float]:
    """Span totals and simulated counts over the modes that ``worlds`` ran.

    ``totals`` is ``Tracer.totals()``; each world's mode names its segment.
    """
    out: dict[str, float] = {}
    modes = [w.config.mode for w in worlds]
    for span_name in SPAN_NAMES:
        segments = ["chain"] if span_name in CHAIN_SPANS else modes
        out[span_name + ".calls"] = sum(totals[s][span_name][0] for s in segments)
        out[span_name + ".self_s"] = sum(totals[s][span_name][1] for s in segments)

    blocks = app_txs = network_txs = 0
    for world in worlds:
        app_blocks, app = _committed(world, ledger.KIND_APPLICATION)
        net_blocks, net = _committed(world, ledger.KIND_NETWORK)
        blocks += app_blocks + net_blocks
        app_txs += app
        network_txs += net
    txs = app_txs + network_txs
    out["crypto.verifies_per_committed_tx"] = _ratio(out["crypto.verify.calls"], txs)
    out["ledger.tx_to_bytes_per_committed_tx"] = _ratio(
        out["ledger.Transaction.to_bytes.calls"], txs
    )
    out["ledger.block_to_bytes_per_block"] = _ratio(out["ledger.Block.to_bytes.calls"], blocks)
    out["ledger.app.txs"] = app_txs
    out["ledger.network.txs"] = network_txs

    nodes = [n for w in worlds for n in w.gateways + w.servers]
    out["consensus.txs_per_block"] = _ratio(txs, blocks)
    out["consensus.failed_rounds"] = sum(n.failed_rounds for n in nodes)
    out["consensus.rejected_votes"] = sum(n.rejected_votes for n in nodes)

    events = sum(w.engine.events_processed for w in worlds)
    # a cancelled event id leaves the engine's set when its heap entry is popped
    still_cancelled = sum(len(w.engine._cancelled) for w in worlds)
    cancelled_pops = out["simnet.Engine.cancel.calls"] - still_cancelled
    links = [link for w in worlds for link in w.engine.links.values()]
    out["simnet.events"] = events
    out["simnet.cancelled_share"] = _ratio(cancelled_pops, events + cancelled_pops)
    out["simnet.loop_self_s"] = out["simnet.Engine.run_until.self_s"]
    out["simnet.backhaul_bytes"] = sum(
        l.bytes_sent for l in links if l.link_class == simnet.LINK_CLASS_BACKHAUL
    )
    out["simnet.air_bytes"] = sum(
        l.bytes_sent for l in links if l.link_class == simnet.LINK_CLASS_AIR
    )

    out["nodes.work.gateways"] = sum(g.work_units for w in worlds for g in w.gateways)
    out["nodes.work.servers"] = sum(s.work_units for w in worlds for s in w.servers)
    out["nodes.filtered_frames"] = sum(n.filtered_frames for n in nodes)
    return out
