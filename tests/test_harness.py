"""Scenario harness: experiments, metrics, result files, config, and the CLI."""

import csv
import io
import os
import random
import statistics
import tempfile
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loraledger import crypto
from loraledger.cli import main
from loraledger.consensus import BlockAnnounce
from loraledger.crypto import (
    ROLE_SERVER,
    KeyDirectory,
    KeyPair,
    RootKey,
    derive_session_keys,
    generate_keypair,
)
from loraledger.frames import (
    DIR_DOWN,
    SessionKeys,
    build_data_frame,
    build_join_accept,
    build_join_request,
)
from loraledger.harness import (
    bootstrap_sessions,
    build_world,
    committed_app_payloads,
    compare_modes,
    run_experiment,
)
from loraledger.ledger import (
    KIND_APPLICATION,
    KIND_NETWORK,
    Ledger,
    SessionContext,
    assemble_block,
    dump_chain,
    make_network_tx,
)
from loraledger.metrics import (
    MetricsRecorder,
    RequestRecord,
    latency_stats,
    percentile,
    write_links_csv,
    write_requests_csv,
)
from loraledger.scenario import ConfigError, build_config, parse_config_file
from loraledger.simnet import Engine, LatencyModel, US_PER_S
from test_crypto import count_keyed_contexts


def config_for(**overrides):
    return build_config(flag_overrides=overrides)


# ---------------------------------------------------------------------------
# metrics


def test_latency_stats_arithmetic():
    rec = MetricsRecorder()
    for ms in (100, 200, 300, 400):
        rid = rec.issue("uplink", "dev0000", 0)
        rec.complete(rid, ms * 1000)
    rec.fail(rec.issue("uplink", "dev0001", 0), 30_000_000)
    rec.issue("uplink", "dev0002", 0)  # stays inflight

    stats = latency_stats(rec.columns("uplink"))
    assert stats["issued"] == 6
    assert stats["completed"] == 4
    assert stats["failed"] == 1
    assert stats["inflight"] == 1
    assert stats["mean_ms"] == 250.0
    assert stats["median_ms"] == 250.0
    assert stats["p95_ms"] == 400.0
    assert stats["max_ms"] == 400.0


def test_latency_stats_empty():
    stats = latency_stats(MetricsRecorder().columns("uplink"))
    assert stats["issued"] == 0
    assert stats["mean_ms"] is None


def test_request_records_are_slotted():
    rec = MetricsRecorder()
    rec.complete(rec.issue("uplink", "dev0000", 0), 800_000)
    record = rec.records[0]
    assert isinstance(record, RequestRecord)
    assert not hasattr(record, "__dict__")
    assert record.latency_us == 800_000



def _reference_stats(records: list[RequestRecord]) -> dict:
    """Request counts and latencies in milliseconds, worked out record by record."""
    completed = sorted(r.latency_us / 1000.0 for r in records if r.status == "completed")
    failed = sum(1 for r in records if r.status == "failed")
    return {
        "issued": len(records),
        "completed": len(completed),
        "failed": failed,
        "inflight": len(records) - len(completed) - failed,
        "mean_ms": statistics.fmean(completed) if completed else None,
        "median_ms": statistics.median(completed) if completed else None,
        "p95_ms": percentile(completed, 0.95) if completed else None,
        "max_ms": completed[-1] if completed else None,
    }


def _reference_csv(records: list[RequestRecord]) -> bytes:
    """``requests.csv`` written row by row from a list of records."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["kind", "device", "issued_us", "completed_us", "status", "latency_us"])
    for r in records:
        completed = "" if r.completed_us is None else r.completed_us
        latency = "" if r.latency_us is None else r.latency_us
        writer.writerow([r.kind, r.device, r.issued_us, completed, r.status, latency])
    return fh.getvalue().encode("utf-8")


def _recorded(ops) -> tuple[MetricsRecorder, list[RequestRecord]]:
    """A recorder driven by ``ops``, and the list of records it must read back as."""
    rec = MetricsRecorder()
    reference: list[RequestRecord] = []
    for op, kind, device, now_us, pick in ops:
        if op == "issue":
            request_id = rec.issue(kind, device, now_us)
            assert request_id == len(reference)
            reference.append(RequestRecord(request_id, kind, device, now_us))
        elif reference:
            request_id = pick % len(reference)
            status = "completed" if op == "complete" else "failed"
            getattr(rec, op)(request_id, now_us)
            reference[request_id] = replace(
                reference[request_id], completed_us=now_us, status=status
            )
    return rec, reference


REQUEST_OPS = st.lists(
    st.tuples(
        st.sampled_from(["issue", "complete", "fail"]),
        st.sampled_from(["join", "uplink"]),
        st.sampled_from(["dev0000", "dev0001", "dev0002"]),
        st.integers(0, 2**40),
        st.integers(0, 2**16),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=REQUEST_OPS)
def test_recorder_reads_back_as_a_list_of_records(ops):
    """The column log reads back, summarizes and writes as a plain list of records."""
    rec, reference = _recorded(ops)
    records = rec.records
    assert len(records) == len(reference)
    for i in range(-len(reference), len(reference)):
        assert records[i] == reference[i]
    assert list(records) == reference
    for kind in ("join", "uplink"):
        of_kind = [r for r in reference if r.kind == kind]
        assert rec.by_kind(kind) == of_kind
        assert latency_stats(rec.columns(kind)) == _reference_stats(of_kind)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "requests.csv")
        write_requests_csv(path, rec)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_csv(reference)


# names with every character that makes ``csv.writer`` quote a field
CSV_NAMES = st.text(st.sampled_from(["a", "7", " ", ",", '"', "\r", "\n", "é"]), max_size=5)


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["issue", "issue", "complete", "fail"]),
            st.one_of(st.sampled_from(["join", "uplink"]), CSV_NAMES),
            st.one_of(st.sampled_from(["dev0000", "dev0001"]), CSV_NAMES),
            st.integers(-(2**62), 2**62),
            st.integers(0, 2**16),
        ),
        max_size=40,
    )
)
def test_requests_csv_bytes_are_what_csv_writer_writes(ops):
    """Rows formatted without ``csv.writer``, in flight, failed and quoted ones too, match it."""
    rec, reference = _recorded(ops)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "requests.csv")
        write_requests_csv(path, rec)
        with open(path, "rb") as fh:
            assert fh.read() == _reference_csv(reference)


def test_recorder_snapshots_do_not_change_the_log():
    rec = MetricsRecorder()
    request_id = rec.issue("join", "dev0000", 5)
    before = rec.records[request_id]
    rec.fail(request_id, 9)
    assert before.status == "inflight" and before.completed_us is None
    assert rec.records[-1].status == "failed" and rec.records[-1].latency_us == 4
    with pytest.raises(IndexError):
        rec.records[1]
    with pytest.raises(TypeError):
        rec.records[0] = before


def test_request_log_costs_under_32_bytes_a_request():
    """A request is a few bytes of columns, not an object (169 traced bytes as one)."""
    devices = ["dev%04d" % i for i in range(1000)]
    rec = MetricsRecorder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            request_id = rec.issue("uplink" if i % 4 else "join", devices[i % 1000], i * 10**6)
            if i % 10:
                rec.complete(request_id, i * 10**6 + 150_000)
            else:
                rec.fail(request_id, i * 10**6 + 30 * 10**6)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(rec.records) == 10_000
    assert used / 10_000 < 32

def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.25) == 10.0
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_csv_layouts(tmp_path):
    rec = MetricsRecorder()
    rec.complete(rec.issue("uplink", "dev0000", 0), 800_000)
    rec.issue("join", "dev0001", 5)
    requests = tmp_path / "requests.csv"
    write_requests_csv(str(requests), rec)
    rows = list(csv.reader(requests.open()))
    assert rows[0] == ["kind", "device", "issued_us", "completed_us", "status", "latency_us"]
    assert rows[1] == ["uplink", "dev0000", "0", "800000", "completed", "800000"]
    assert rows[2] == ["join", "dev0001", "5", "", "inflight", ""]

    engine = Engine(0)
    engine.register("a", lambda p: None)
    engine.register("b", lambda p: None)
    link = engine.add_link("a->b", "a", "b", "backhaul", LatencyModel.fixed(1000))
    engine.send(link, b"x", 10)
    engine.run_until(2000)
    links = tmp_path / "links.csv"
    write_links_csv(str(links), [link])
    rows = list(csv.reader(links.open()))
    assert rows[0] == ["link", "class", "offered_msgs", "delivered_msgs", "lost_msgs", "offered_bytes"]
    assert rows[1] == ["a->b", "backhaul", "1", "1", "0", "10"]


# ---------------------------------------------------------------------------
# experiment runs


def test_app_load_summary_anchors():
    """Fixed air latency and per-frame unit charges make these counts exact."""
    result = run_experiment(
        config_for(experiment=2, mode="edge", n_devices=8, seed=3, duration_s=90, warmup_s=0)
    )
    s = result.summary
    issued = s["uplink.issued"]
    assert issued == 48
    assert s["uplink.completed"] == issued  # drain leaves nothing hanging
    assert s["uplink.failed"] == 0
    assert s["uplink.inflight"] == 0
    assert s["uplink.mean_ms"] == 800.0
    assert s["uplink.max_ms"] == 800.0
    assert s["join.issued"] == 0
    assert s["work.gateways_total"] == issued * 7
    assert s["work.servers_total"] == issued * 3
    assert s["bytes.gateway_to_server"] == issued * 29
    assert s["ledger.app.txs"] == issued
    assert s["ledger.network.txs"] == 8  # one bootstrap context per device
    assert s["ledger.network.height"] == 4  # one bootstrap block per gateway
    assert s["ledger.heights_equal"] is True
    assert s["consensus.invalid_blocks"] == 0
    assert s["consensus.failed_rounds"] == 0
    assert all(s["filtered.gw%d" % k] == 0 for k in range(4))


def test_bootstrap_sessions_identical_across_modes():
    """Device identities and session material must not depend on deployment."""
    kwargs = dict(experiment=2, n_devices=8, seed=11, duration_s=60)
    edge = build_world(config_for(mode="edge", **kwargs))
    trad = build_world(config_for(mode="traditional", **kwargs))
    bootstrap_sessions(edge)
    bootstrap_sessions(trad)
    for dev_e, dev_t in zip(edge.devices, trad.devices):
        assert dev_e.session.keys.dev_addr == dev_t.session.keys.dev_addr
        assert dev_e.session.keys.nwk_s_key == dev_t.session.keys.nwk_s_key
        assert dev_e.session.keys.app_s_key == dev_t.session.keys.app_s_key


def test_bootstrap_keys_are_drawn_from_unkept_device_streams():
    """Each device's nonces are the engine's ``bootstrap:<device>`` draws; no stream stays."""
    config = config_for(experiment=2, n_devices=8, seed=11, duration_s=60)
    world = build_world(config)
    bootstrap_sessions(world)
    for device in world.devices:
        boot = Engine(config.seed).stream("bootstrap:%s" % device.device_id)
        dev_nonce, app_nonce = boot.randbytes(2), boot.randbytes(3)
        keys = derive_session_keys(device.app_key, app_nonce, config.net_id, dev_nonce)
        assert (device.session.keys.nwk_s_key, device.session.keys.app_s_key) == keys
    assert not [name for name in world.engine._streams if name.startswith("bootstrap:")]


def test_bootstrap_respects_authorization_split():
    world = build_world(config_for(experiment=3, n_devices=8, seed=2, duration_s=60))
    bootstrap_sessions(world)
    authorized = world.authorized_devices()
    assert len(authorized) == 4
    ledger = world.servers[0].ledgers[KIND_NETWORK]
    assert sum(len(b.txs) for b in ledger.blocks) == 4
    for device in authorized:
        assert ledger.query_context(device.session.keys.dev_addr) is not None
    for device in world.devices:
        if not device.authorized:
            assert device.session is None


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_bootstrap_chain_is_the_same_without_libsodium(mode, monkeypatch):
    """A bootstrap that signs through libsodium commits the same network chain,
    byte for byte, as one that signs each context on ``cryptography``."""
    config = config_for(experiment=3, n_devices=80, seed=5, duration_s=60, mode=mode)

    def bootstrapped_chain() -> bytes:
        world = build_world(config)
        bootstrap_sessions(world)
        ledger = world.replicas(KIND_NETWORK)[0].ledgers[KIND_NETWORK]
        return dump_chain(ledger, world.key_directory)

    signed = bootstrapped_chain()
    monkeypatch.setattr(crypto, "_sodium", lambda: None)
    assert crypto._sodium() is None
    assert bootstrapped_chain() == signed


def test_mixed_trust_comparison():
    result = compare_modes(
        config_for(experiment=3, n_devices=8, seed=3, duration_s=90, warmup_s=0)
    )
    c = result.comparison
    # every edge notice is 29 bytes, every traditional forward 43
    assert c["bytes.gateway_to_server.edge"] % 29 == 0
    assert c["bytes.gateway_to_server.traditional"] % 43 == 0
    assert 60.0 <= c["bytes.reduction_pct"] <= 70.0
    assert 20.0 <= c["work.servers.edge_over_traditional_pct"] <= 30.0
    assert abs(c["uplink.throughput_delta_pct"]) < 2.0
    assert c["app_payloads.multisets_equal"] is True
    assert committed_app_payloads(result.edge.world) == committed_app_payloads(
        result.traditional.world
    )
    # unauthorized chatter reached the traditional server but died at edge gateways
    trad = result.traditional.summary
    edge = result.edge.summary
    assert trad["filtered.servers_total"] > 0
    assert edge["filtered.servers_total"] == 0
    assert sum(edge["filtered.gw%d" % k] for k in range(4)) > 0


def test_a_world_holds_streams_only_for_what_draws():
    """Every device and node stream, and a link's only once the link drew from it."""
    result = run_experiment(
        config_for(experiment=3, n_devices=8, seed=6, duration_s=60, severed_gateways=(1,))
    )
    world = result.world
    links = world.engine.links.values()
    drew = {
        "link:" + link.name
        for link in links
        if link.offered_msgs and (link.loss_rate > 0.0 or link.latency.kind == "uniform")
    }
    assert set(world.engine._streams) == (
        {"device:" + device.device_id for device in world.devices}
        | {"node:" + node.entity_id for node in world.gateways + world.servers}
        | drew
    )
    # a severed device's uplink drew a loss per frame; air links without loss drew nothing
    assert "link:dev0001->gw1" in drew
    assert any(link.offered_msgs and "link:" + link.name not in drew for link in links)


def _completed_uplink_latencies(**overrides) -> list[int]:
    records = run_experiment(config_for(experiment=2, **overrides)).world.recorder
    return [r.latency_us for r in records.by_kind("uplink") if r.status == "completed"]


@pytest.mark.parametrize("mode", ["edge", "traditional"])
def test_an_ack_under_air_loss_settles_its_own_uplink(mode):
    """The smallest run where a lost frame once made later ACKs settle older uplinks."""
    kwargs = dict(mode=mode, n_gateways=1, n_devices=1, seed=1, duration_s=90)
    clean = run_experiment(config_for(experiment=2, loss_rate=0.0, **kwargs)).summary
    lossy = run_experiment(config_for(experiment=2, loss_rate=0.05, **kwargs)).summary
    counts = [lossy["uplink." + key] for key in ("issued", "completed", "failed", "inflight")]
    assert counts == [6, 5, 1, 0]
    assert lossy["uplink.max_ms"] == clean["uplink.max_ms"]


@settings(max_examples=25, deadline=None)
@given(loss_rate=st.floats(0.0, 0.5), seed=st.integers(0, 2**16))
def test_no_uplink_under_loss_outlasts_the_loss_free_run(loss_rate, seed):
    """A completed uplink takes no longer than the slowest one without loss.

    Each of the four gateways serves one device, so its backhaul links carry
    that device's frames in order and a lossy run's delays are a prefix of
    the loss-free run's.
    """
    for mode in ("edge", "traditional"):
        kwargs = dict(mode=mode, n_devices=4, seed=seed, duration_s=120)
        ceiling = max(_completed_uplink_latencies(loss_rate=0.0, **kwargs))
        lossy = _completed_uplink_latencies(loss_rate=loss_rate, **kwargs)
        assert max(lossy, default=0) <= ceiling


def test_severed_gateway_isolates_its_devices():
    result = run_experiment(
        config_for(experiment=1, n_devices=8, seed=5, duration_s=900, severed_gateways=(1,))
    )
    records = result.world.recorder.by_kind("join")
    severed_devices = {"dev0001", "dev0005"}  # index % gateways == 1
    failed = [r for r in records if r.status == "failed"]
    assert failed
    assert {r.device for r in failed} <= severed_devices
    assert all(r.latency_us == 300 * US_PER_S for r in failed)
    completed = [r for r in records if r.status == "completed"]
    assert {r.device for r in completed} == {
        d.device_id for d in result.world.devices if d.device_id not in severed_devices
    }
    assert result.summary["work.gw1"] == 0


def test_time_compress_shrinks_the_clock():
    result = run_experiment(
        config_for(experiment=2, n_devices=4, seed=1, duration_s=360, time_compress=10)
    )
    world = result.world
    assert world.engine.now_us == 36 * US_PER_S + 10 * US_PER_S  # run + drain
    assert result.summary["uplink.issued"] > 50
    assert result.summary["uplink.failed"] == 0
    assert result.summary["ledger.heights_equal"] is True


def test_network_orderer_can_live_on_a_gateway():
    config = config_for(experiment=1, n_devices=4, seed=4, duration_s=60, network_orderer="gateway")
    world = build_world(config)
    assert world.consensus.orderer_hosts[KIND_NETWORK] == "gw0"
    world.devices[1].begin_join()
    world.engine.run_until(6 * US_PER_S)
    assert world.devices[1].state == "joined"
    heights = {n.ledgers[KIND_NETWORK].height for n in world.gateways + world.servers}
    assert heights == {1}


def test_emit_writes_run_directory(tmp_path):
    result = run_experiment(config_for(experiment=2, n_devices=4, seed=1, duration_s=30, warmup_s=0))
    out = tmp_path / "run"
    result.emit(str(out))
    assert (out / "requests.csv").is_file()
    assert (out / "links.csv").is_file()
    lines = (out / "summary.txt").read_text().splitlines()
    as_dict = dict(line.split(": ", 1) for line in lines)
    assert as_dict["mode"] == "edge"
    assert as_dict["uplink.mean_ms"] == "800.000"
    assert as_dict["ledger.heights_equal"] == "true"


def test_emit_writes_comparison_directory(tmp_path):
    result = compare_modes(config_for(experiment=3, n_devices=8, seed=1, duration_s=45, warmup_s=0))
    out = tmp_path / "cmp"
    result.emit(str(out))
    for mode in ("edge", "traditional"):
        for name in ("requests.csv", "links.csv", "summary.txt"):
            assert (out / mode / name).is_file()
    text = (out / "comparison.txt").read_text()
    assert "bytes.reduction_pct:" in text
    assert "app_payloads.multisets_equal: true" in text


# ---------------------------------------------------------------------------
# configuration


def test_parse_config_file(tmp_path):
    path = tmp_path / "load.cfg"
    path.write_text(
        "# mixed trust shape\n"
        "\n"
        "experiment = 3\n"
        "devices = 16\n"
        "mode = traditional   # flags may still override\n"
        "authorized_fraction = 0.75\n"
        "uplink.interval_s = 10, 20\n"
        "link.backhaul_latency_ms = 7, 9\n"
        "severed_gateways = 1, 2\n"
        "net_id = aabbcc\n"
    )
    overrides = parse_config_file(str(path))
    assert overrides == {
        "experiment": 3,
        "n_devices": 16,
        "mode": "traditional",
        "authorized_fraction": 0.75,
        "uplink_interval_s": (10, 20),
        "backhaul_latency_ms": (7, 9),
        "severed_gateways": (1, 2),
        "net_id": b"\xaa\xbb\xcc",
    }
    config = build_config(overrides, {"mode": "edge"})
    assert config.mode == "edge"  # flag wins
    assert config.n_devices == 16
    assert config.uplink_interval_s == (10, 20)
    assert config.duration_s == 360  # preset still applies


def test_parse_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("experiment = 2\nwat = 7\n")
    with pytest.raises(ConfigError, match=r"bad_key\.cfg:2: unknown key"):
        parse_config_file(str(bad_key))

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("devices = many\n")
    with pytest.raises(ConfigError, match=r"bad_value\.cfg:1: expected an integer"):
        parse_config_file(str(bad_value))

    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("devices\n")
    with pytest.raises(ConfigError, match=r"no_equals\.cfg:1: expected 'key = value'"):
        parse_config_file(str(no_equals))


def test_build_config_presets():
    exp1 = config_for(experiment=1)
    assert (exp1.duration_s, exp1.warmup_s, exp1.authorized_fraction) == (7200, 60, 1.0)
    exp2 = config_for(experiment=2)
    assert (exp2.duration_s, exp2.warmup_s) == (360, 60)
    exp3 = config_for(experiment=3, n_devices=8)
    assert exp3.authorized_fraction == 0.5
    short = config_for(experiment=2, duration_s=30)
    assert short.warmup_s == 5  # min(60, duration // 6)
    assert config_for(experiment=2, n_devices=None).n_devices == 100  # None flags are unset


@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment=9),
        dict(mode="mesh"),
        dict(n_devices=10),  # not divisible by 4 gateways
        dict(n_devices=0),
        dict(experiment=2, authorized_fraction=0.5),
        dict(experiment=3, authorized_fraction=1.5),
        dict(payload_bytes=3),
        dict(payload_bytes=300),
        dict(loss_rate=1.0),
        dict(duration_s=0),
        dict(duration_s=60, warmup_s=60),
        dict(air_latency_ms=0),
        dict(uplink_interval_s=(17, 13)),
        dict(consensus_mode="pow"),
        dict(net_id=b"\x00\x00"),
        dict(mode="traditional", network_orderer="gateway"),  # its gateways hold no ledger
    ],
)
def test_validate_config_rejections(overrides):
    base = dict(experiment=2, n_devices=8, seed=0)
    base.update(overrides)
    with pytest.raises(ConfigError):
        build_config(flag_overrides=base)


def test_more_gateways_than_address_prefixes_is_a_config_error():
    """A device address's first byte is its gateway's index, so 256 gateways is the most."""
    assert config_for(experiment=2, n_devices=256, n_gateways=256).n_gateways == 256
    with pytest.raises(ConfigError, match="256 gateways"):
        config_for(experiment=2, n_devices=257, n_gateways=257)


def test_cli_rejects_more_gateways_than_address_prefixes(tmp_path, capsys):
    conf = tmp_path / "wide.conf"
    conf.write_text("gateways = 257\n")
    argv = ["run", "--experiment", "2", "--devices", "257", "--duration", "20"]
    argv += ["--config", str(conf), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_validates_each_mode(tmp_path, capsys):
    """A gateway-hosted network orderer is fine in edge mode but not in traditional."""
    config = config_for(experiment=1, n_devices=20, duration_s=1800, network_orderer="gateway")
    with pytest.raises(ConfigError):
        compare_modes(config)
    conf = tmp_path / "orderer.conf"
    conf.write_text("consensus.network_orderer = gateway\n")
    argv = ["run", "--experiment", "1", "--devices", "20", "--duration", "1800"]
    argv += ["--config", str(conf), "--out", str(tmp_path / "out"), "--compare"]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


def run_cli(tmp_path, *extra):
    out = tmp_path / "out"
    argv = [
        "run", "--experiment", "2", "--devices", "4", "--duration", "30",
        "--warmup", "0", "--seed", "1", "--out", str(out),
    ]
    return main(argv + list(extra)), out


def test_cli_run_writes_outputs(tmp_path, capsys):
    code, out = run_cli(tmp_path)
    assert code == 0
    captured = capsys.readouterr()
    assert "results written to %s" % out in captured.out
    assert "uplink.issued:" in captured.out
    for name in ("requests.csv", "links.csv", "summary.txt"):
        assert (out / name).is_file()


def test_cli_compare_writes_comparison(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "run", "--experiment", "3", "--devices", "8", "--duration", "45",
            "--warmup", "0", "--seed", "1", "--out", str(out), "--compare",
        ]
    )
    assert code == 0
    assert "bytes.reduction_pct:" in capsys.readouterr().out
    assert (out / "comparison.txt").is_file()
    assert (out / "edge" / "summary.txt").is_file()
    assert (out / "traditional" / "summary.txt").is_file()


@pytest.mark.parametrize("compare", [False, True], ids=["run", "compare"])
def test_cli_prints_its_report_file(tmp_path, capsys, compare):
    """Above its last line, the CLI's stdout is the report file, byte for byte."""
    code, out = run_cli(tmp_path, *(["--compare"] if compare else []))
    assert code == 0
    printed = capsys.readouterr().out
    report, last = printed[: printed.rindex("results written to")], printed.splitlines()[-1]
    assert last == "results written to %s" % out
    name = "comparison.txt" if compare else "summary.txt"
    assert report == (out / name).read_text(encoding="utf-8")


def test_cli_rejects_bad_config(tmp_path, capsys):
    code = main(
        ["run", "--experiment", "2", "--devices", "-5", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_cli_rejects_unreadable_config_file(tmp_path, capsys, kind):
    conf = tmp_path / "run.conf"
    if kind == "directory":
        conf.mkdir()
    elif kind == "not-utf8":
        conf.write_bytes(b"seed = 1 # \xff\xfe\n")
    argv = ["run", "--experiment", "2", "--config", str(conf), "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "config error: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["out", "out/below"], ids=["a-file", "under-a-file"])
def test_cli_rejects_out_that_cannot_be_a_directory(tmp_path, capsys, name):
    """An --out that cannot become a directory is refused before anything runs."""
    (tmp_path / "out").write_text("keep me\n")
    argv = ["run", "--experiment", "2", "--devices", "4", "--duration", "30", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / name)]) == 2
    assert "exists and is not a directory" in capsys.readouterr().err
    assert (tmp_path / "out").read_text() == "keep me\n"


def test_cli_run_is_deterministic(tmp_path):
    _, first = run_cli(tmp_path / "a")
    _, second = run_cli(tmp_path / "b")
    for name in ("requests.csv", "links.csv", "summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    code = main(
        [
            "run", "--experiment", "2", "--devices", "4", "--duration", "30",
            "--warmup", "0", "--seed", "2", "--out", str(tmp_path / "c" / "out"),
        ]
    )
    assert code == 0
    assert (tmp_path / "c" / "out" / "requests.csv").read_bytes() != (
        first / "requests.csv"
    ).read_bytes()


def _tiny_chain_dump() -> bytes:
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
    tx = make_network_tx(directory, keypair, context, 0, random.Random(1))
    ledger = Ledger(KIND_NETWORK)
    ledger.append_block(assemble_block([tx], 0, 0, None), directory)
    return dump_chain(ledger, directory)


def test_cli_ledger_verify(tmp_path, capsys):
    dump = _tiny_chain_dump()
    path = tmp_path / "network.chain"
    path.write_bytes(dump)
    assert main(["ledger", "verify", str(path)]) == 0
    assert "OK: network chain, height 1, 1 transactions" in capsys.readouterr().out

    tampered = bytearray(dump)
    tampered[len(dump) // 2] ^= 0x01
    bad = tmp_path / "tampered.chain"
    bad.write_bytes(bytes(tampered))
    assert main(["ledger", "verify", str(bad)]) == 1
    assert "INVALID:" in capsys.readouterr().out

    assert main(["ledger", "verify", str(tmp_path / "missing.chain")]) == 2


def test_cli_frame_decode(capsys):
    key, dev_addr = bytes(range(16)), b"\x01\x00\x00\x01"
    frames = [
        build_join_request(RootKey(key), b"\x11" * 8, b"\x22" * 8, b"\x01\x02"),
        build_join_accept(RootKey(key), b"\x01\x02\x03", b"\xaa\xbb\xcc", dev_addr),
        build_data_frame(SessionKeys(dev_addr, key), 3, 1, b"\xab\xcd", DIR_DOWN),
    ]
    for raw in frames:
        assert main(["frame", "decode", raw.hex()]) == 0
    assert capsys.readouterr().out == (
        "type: join request\n"
        "app_eui: 1111111111111111\n"
        "dev_eui: 2222222222222222\n"
        "dev_nonce: 0102\n"
        "mic: 0034d6d8\n"
        "type: join accept (encrypted under the device's root key)\n"
        "cipher: 9dd880c3d074487baffc75760a8abda7\n"
        "type: data downlink\n"
        "dev_addr: 01000001\n"
        "fcnt: 3\n"
        "fport: 1\n"
        "payload (2 bytes): abcd\n"
        "mic: aed6eb47\n"
    )

    assert main(["frame", "decode", "zz"]) == 2
    assert main(["frame", "decode", "00"]) == 1
    assert "undecodable frame" in capsys.readouterr().out


def test_only_signatures_made_outside_the_world_cost_a_verify(monkeypatch):
    """Honest in-world signatures cost no Ed25519 verify; any other costs one.

    The golden experiment-1 case in edge mode: every gateway and server keeps
    a network ledger and validates every block, yet no signature the world
    made with the signer's registered key is verified.  A block whose one
    transaction is signed with a key that is not its requester's registered
    one costs exactly one verify, and the replica counts it invalid; a
    requester with no registered key costs none.
    """
    calls = []
    real = crypto.verify

    def counting_verify(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(crypto, "verify", counting_verify)
    config = build_config(
        flag_overrides=dict(experiment=1, mode="edge", n_devices=20, seed=6, duration_s=1800)
    )
    world = run_experiment(config).world
    signatures = [
        tx.signature
        for ledger in world.servers[0].ledgers.values()
        for block in ledger.blocks
        for tx in block.txs
    ]
    assert len(world.gateways) + len(world.servers) > 1
    assert signatures and calls == []

    replica = world.servers[0]
    assert replica.invalid_blocks == 0
    ledger = replica.ledgers[KIND_NETWORK]
    height, tip = ledger.height, ledger.tip
    gw0, gw1 = world.gateways[0].keypair, world.gateways[1].keypair
    context = SessionContext(
        dev_eui=b"\x77" * 8,
        app_key=bytes(16),
        dev_addr=b"\x00\x77\x77\x77",
        nwk_s_key=bytes(16),
        dev_nonce=b"\x00\x01",
        app_nonce=b"\x00\x00\x01",
    )
    cases = [
        (generate_keypair(gw0.entity_id, config.seed + 1), 1),  # a key never registered
        (KeyPair(gw1.entity_id, gw0.private_key), 1),  # re-attributed
        (generate_keypair("gw9", config.seed), 0),  # no key to check against
    ]
    for n, (keypair, cost) in enumerate(cases, start=1):
        tx = make_network_tx(world.key_directory, keypair, context, 1, random.Random(n))
        replica.handle(BlockAnnounce(KIND_NETWORK, assemble_block([tx], height, 1, tip)))
        assert calls == [tx.signature] * cost
        assert replica.invalid_blocks == n
        assert ledger.height == height
        calls.clear()


def test_each_world_builds_its_own_keyed_contexts(monkeypatch):
    """Two experiment-3 worlds in one process, one per mode: the second builds as
    many CMAC and AES-ECB contexts as the first, so neither mode runs on contexts
    the other built.  Counted at the constructors every keyed context comes from."""
    built = count_keyed_contexts(monkeypatch)
    counts = []
    for mode in ("edge", "traditional"):
        built.clear()
        run_experiment(config_for(experiment=3, mode=mode, n_devices=40, seed=5, duration_s=120))
        counts.append(dict(built))
    edge, traditional = counts
    assert edge["CMAC"] > 0 and edge["Cipher"] > 0
    assert traditional == edge
