//! Property-based codec tests: every [`CoordMsg`]/[`WorkerMsg`] the fabric
//! can construct must survive `decode ∘ encode` with every field intact and
//! re-encode to the identical byte string, while any truncated or
//! tag-corrupted body must be rejected with a structured error — never a
//! panic, never a silent partial decode. The borrowed `Batch` codec (the
//! coordinator's and the worker's) must be the message codec, byte for
//! byte and error for error.

use std::net::{IpAddr, Ipv4Addr};

use idsbench_core::{AttackKind, FlowMigration, Label};
use idsbench_fabric::wire::{put_batch, BatchItem, BatchReader};
use idsbench_fabric::{CoordMsg, HelloConfig, WireItem, WirePacket, WorkerMsg};
use idsbench_flow::{FlowKey, FlowTable, FlowTableConfig};
use idsbench_net::wire::WireError;
use idsbench_net::{
    Duration, IpProtocol, MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp,
};
use idsbench_stream::{
    HashRing, OnlineStats, Recorder, ScoredEvent, ShardCheckpoint, ShardOutcome,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = Label> {
    (0usize..=AttackKind::ALL.len()).prop_map(|i| match i {
        0 => Label::Benign,
        n => Label::Attack(AttackKind::ALL[n - 1]),
    })
}

fn arb_kind() -> impl Strategy<Value = Option<AttackKind>> {
    arb_label().prop_map(|label| match label {
        Label::Benign => None,
        Label::Attack(kind) => Some(kind),
    })
}

fn arb_ip() -> impl Strategy<Value = IpAddr> {
    (any::<bool>(), any::<[u8; 16]>()).prop_map(|(v4, octets)| {
        if v4 {
            IpAddr::V4(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
        } else {
            IpAddr::V6(octets.into())
        }
    })
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (arb_ip(), arb_ip(), any::<u16>(), any::<u16>(), any::<u8>()).prop_map(
        |(src_ip, dst_ip, src_port, dst_port, protocol)| FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: IpProtocol::from(protocol),
        },
    )
}

/// Detector blobs exercise both arms: absent, and present with 1..64 bytes
/// (the non-empty case is the one that carries real per-flow state).
fn arb_detector_state() -> impl Strategy<Value = Option<Vec<u8>>> {
    (any::<bool>(), vec(any::<u8>(), 1..64)).prop_map(|(present, bytes)| present.then_some(bytes))
}

/// Record-less migration (the flow lived only in the detector); the
/// `record: Some` arm is pinned by `migration_with_flow_record_roundtrips`,
/// which builds a real [`FlowRecord`] through a [`FlowTable`].
fn arb_migration() -> impl Strategy<Value = FlowMigration> {
    (arb_flow_key(), arb_label(), any::<u64>(), arb_detector_state()).prop_map(
        |(key, label, seen_micros, detector)| FlowMigration {
            key,
            record: None,
            label,
            label_seen: Timestamp::from_micros(seen_micros),
            detector,
        },
    )
}

fn arb_wire_packet() -> impl Strategy<Value = WirePacket> {
    (any::<u64>(), arb_label(), vec(any::<u8>(), 0..48))
        .prop_map(|(ts_micros, label, data)| WirePacket { ts_micros, label, data })
}

fn arb_wire_item() -> impl Strategy<Value = WireItem> {
    (any::<u64>(), arb_wire_packet()).prop_map(|(seq, p)| WireItem {
        seq,
        ts_micros: p.ts_micros,
        label: p.label,
        data: p.data,
    })
}

/// A batch item whose payload is empty, short, or a full 1500-byte frame.
fn arb_batch_item() -> impl Strategy<Value = WireItem> {
    let payload =
        (0u8..3, vec(any::<u8>(), 1..48), any::<u8>()).prop_map(|(size, short, fill)| match size {
            0 => Vec::new(),
            1 => short,
            _ => vec![fill; 1500],
        });
    (any::<u64>(), any::<u64>(), arb_label(), payload)
        .prop_map(|(seq, ts_micros, label, data)| WireItem { seq, ts_micros, label, data })
}

/// A `Batch` body read through the borrowed reader, collected.
fn read_borrowed(body: &[u8]) -> Result<(u32, Vec<WireItem>), WireError> {
    let batch = BatchReader::open(body)?.expect("a Batch body");
    let shard = batch.shard();
    let items = batch.map(|item| item.map(WireItem::from)).collect::<Result<_, _>>()?;
    Ok((shard, items))
}

/// A ring over the drawn ids (repeats drawn are added once): the wire only
/// carries rings a [`HashRing`] can be, with at least one shard.
fn arb_ring() -> impl Strategy<Value = HashRing> {
    (1usize..64, vec(0usize..4096, 1..32)).prop_map(|(vnodes, shards)| {
        let mut ring = HashRing::new(vnodes);
        for shard in shards {
            if !ring.contains(shard) {
                ring.add_shard(shard);
            }
        }
        ring
    })
}

fn checkpoint(
    last_ts_micros: u64,
    sweep_micros: u64,
    flows: Vec<FlowMigration>,
) -> ShardCheckpoint {
    ShardCheckpoint {
        flows,
        last_ts: Timestamp::from_micros(last_ts_micros),
        sweep: Timestamp::from_micros(sweep_micros),
    }
}

fn arb_hello() -> impl Strategy<Value = HelloConfig> {
    (
        vec(32u8..127, 0..24),
        0.001f64..3600.0,
        (any::<bool>(), 0.0f64..1e6),
        (any::<u64>(), any::<u64>(), any::<u64>(), 1usize..1 << 24),
    )
        .prop_map(
            |(name, window_secs, (fixed, threshold), (idle, active, wait, max_flows))| {
                HelloConfig {
                    detector: String::from_utf8(name).expect("ascii"),
                    window_secs,
                    fixed_threshold: fixed.then_some(threshold),
                    flow: FlowTableConfig {
                        idle_timeout: Duration::from_micros(idle),
                        active_timeout: Duration::from_micros(active),
                        time_wait: Duration::from_micros(wait),
                        max_flows,
                    },
                }
            },
        )
}

fn arb_event() -> impl Strategy<Value = ScoredEvent> {
    (
        (any::<u64>(), any::<u32>(), any::<u64>()),
        -1e12f64..1e12,
        any::<u64>(),
        any::<bool>(),
        arb_kind(),
    )
        .prop_map(|((seq, sub, window), score, latency_nanos, label, kind)| ScoredEvent {
            seq,
            sub,
            window,
            score,
            latency_nanos,
            label,
            kind,
        })
}

/// An [`OnlineStats`] built the only way production builds one: by
/// recording events — so every encoded field (confusion matrix, windows,
/// families, latency buckets) is internally consistent.
fn arb_online() -> impl Strategy<Value = (Box<OnlineStats>, f64)> {
    (
        vec((0u64..16, 0.0f64..2.0, any::<bool>(), arb_kind(), any::<bool>(), any::<u64>()), 0..64),
        0.1f64..1.9,
    )
        .prop_map(|(events, threshold)| {
            let mut stats = OnlineStats::default();
            for (window, score, label, kind, is_flow, latency) in events {
                stats.record(
                    window,
                    score,
                    threshold,
                    label,
                    kind,
                    is_flow,
                    latency % 1_000_000_000,
                );
            }
            (Box::new(stats), threshold)
        })
}

fn arb_outcome() -> impl Strategy<Value = ShardOutcome> {
    (
        (0usize..4096, any::<u64>(), any::<u64>()),
        (0.0f64..1e4, 0.0f64..1e4),
        any::<bool>(),
        vec(arb_event(), 0..32),
        arb_online(),
    )
        .prop_map(
            |((shard, packets, flows), (score_seconds, fit_seconds), full, events, online)| {
                let recorder = if full {
                    Recorder::Full(events)
                } else {
                    let (stats, threshold) = online;
                    Recorder::Online(stats, threshold)
                };
                ShardOutcome {
                    shard,
                    recorder,
                    score_seconds,
                    fit_seconds,
                    packets: packets as usize,
                    flows: flows as usize,
                }
            },
        )
}

/// decode(encode(m)) == m, and the re-encoding is byte-identical (so the
/// codec is canonical, not merely lossless).
fn assert_coord_roundtrip(msg: &CoordMsg) -> Result<(), TestCaseError> {
    let body = msg.encode();
    let decoded = match CoordMsg::decode(&body) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
    };
    prop_assert_eq!(&decoded, msg);
    prop_assert_eq!(decoded.encode(), body);
    assert_rejects_prefixes(&body)
}

fn assert_worker_roundtrip(msg: &WorkerMsg) -> Result<(), TestCaseError> {
    let body = msg.encode();
    let decoded = match WorkerMsg::decode(&body) {
        Ok(decoded) => decoded,
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e:?}"))),
    };
    prop_assert_eq!(&decoded, msg);
    prop_assert_eq!(decoded.encode(), body);
    assert_rejects_worker_prefixes(&body)
}

/// Every strict prefix of a valid body must fail to decode: a frame cut by
/// a dying socket can never alias another message.
fn assert_rejects_prefixes(body: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..body.len() {
        prop_assert!(
            CoordMsg::decode(&body[..cut]).is_err(),
            "truncation at {} of {} decoded",
            cut,
            body.len()
        );
    }
    Ok(())
}

fn assert_rejects_worker_prefixes(body: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..body.len() {
        prop_assert!(
            WorkerMsg::decode(&body[..cut]).is_err(),
            "truncation at {} of {} decoded",
            cut,
            body.len()
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn hello_roundtrips(config in arb_hello()) {
        assert_coord_roundtrip(&CoordMsg::Hello(config))?;
    }

    #[test]
    fn train_roundtrips(packets in vec(arb_wire_packet(), 0..12)) {
        assert_coord_roundtrip(&CoordMsg::Train(packets))?;
    }

    #[test]
    fn spawn_retire_roundtrip(shard in any::<u32>()) {
        assert_coord_roundtrip(&CoordMsg::Spawn { shard })?;
        assert_coord_roundtrip(&CoordMsg::Retire { shard })?;
    }

    #[test]
    fn batch_roundtrips(shard in any::<u32>(), items in vec(arb_wire_item(), 0..12)) {
        assert_coord_roundtrip(&CoordMsg::Batch { shard, items })?;
    }

    #[test]
    fn borrowed_batch_codec_is_the_message_codec(
        shard in any::<u32>(),
        items in vec(arb_batch_item(), 0..12),
    ) {
        let body = CoordMsg::Batch { shard, items: items.clone() }.encode();
        let mut borrowed = Vec::new();
        put_batch(&mut borrowed, shard, items.iter().map(BatchItem::from));
        prop_assert_eq!(&borrowed, &body);
        prop_assert_eq!(read_borrowed(&body), Ok((shard, items)));

        // Each payload ends where the reader says: the worker slices there.
        let mut batch = BatchReader::open(&body).unwrap().expect("a Batch body");
        while let Some(item) = batch.next() {
            let data = item.unwrap().data;
            let end = batch.consumed();
            prop_assert_eq!(body[end - data.len()..end].as_ptr(), data.as_ptr());
        }

        let mut trailing = body.clone();
        trailing.push(0);
        for bad in (0..body.len()).map(|cut| &body[..cut]).chain([&trailing[..]]) {
            let message = CoordMsg::decode(bad).map(|_| ()).unwrap_err();
            prop_assert_eq!(read_borrowed(bad).unwrap_err(), message);
        }
    }

    #[test]
    fn rebalance_roundtrips(shard in any::<u32>(), ring in arb_ring()) {
        assert_coord_roundtrip(&CoordMsg::Rebalance { shard, ring })?;
    }

    #[test]
    fn migrate_roundtrips(shard in any::<u32>(), migrations in vec(arb_migration(), 0..8)) {
        assert_coord_roundtrip(&CoordMsg::Migrate { shard, migrations })?;
    }

    #[test]
    fn hello_ok_roundtrips(name in vec(32u8..127, 0..24), flows in any::<bool>()) {
        let detector = String::from_utf8(name).expect("ascii");
        assert_worker_roundtrip(&WorkerMsg::HelloOk { detector, flows })?;
    }

    #[test]
    fn ready_roundtrips(shard in any::<u32>(), fit_seconds in 0.0f64..1e5) {
        assert_worker_roundtrip(&WorkerMsg::Ready { shard, fit_seconds })?;
    }

    #[test]
    fn migrations_roundtrip(shard in any::<u32>(), migrations in vec(arb_migration(), 0..8)) {
        assert_worker_roundtrip(&WorkerMsg::Migrations { shard, migrations })?;
    }

    #[test]
    fn outcome_roundtrips(outcome in arb_outcome()) {
        assert_worker_roundtrip(&WorkerMsg::Outcome(outcome))?;
    }

    /// A corrupted tag byte must fail cleanly on both codecs: worker tags
    /// are not coordinator tags and garbage is neither.
    #[test]
    fn corrupt_tags_are_rejected(tag in any::<u8>(), shard in any::<u32>()) {
        let mut body = CoordMsg::Spawn { shard }.encode();
        if !(0x01..=0x0C).contains(&tag) {
            body[0] = tag;
            prop_assert!(CoordMsg::decode(&body).is_err(), "coord accepted tag {:#x}", tag);
        }
        let mut body = WorkerMsg::Ready { shard, fit_seconds: 1.0 }.encode();
        if !(0x40..=0x46).contains(&tag) {
            body[0] = tag;
            prop_assert!(WorkerMsg::decode(&body).is_err(), "worker accepted tag {:#x}", tag);
        }
    }

    /// The recovery-epoch request/liveness messages are fixed-layout; their
    /// codec must be canonical and truncation-safe like every other tag.
    #[test]
    fn checkpoint_request_and_ping_roundtrip(
        shard in any::<u32>(),
        epoch in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        assert_coord_roundtrip(&CoordMsg::Checkpoint { shard, epoch })?;
        assert_coord_roundtrip(&CoordMsg::Ping { nonce })?;
        assert_worker_roundtrip(&WorkerMsg::Pong { nonce })?;
    }

    /// Restore carries a full re-homing payload: flow migrations plus the
    /// donor's trace clock and sweep phase. Every field must survive.
    #[test]
    fn restore_roundtrips(
        shard in any::<u32>(),
        epoch in any::<u64>(),
        last_ts_micros in any::<u64>(),
        sweep_micros in any::<u64>(),
        flows in vec(arb_migration(), 0..8),
    ) {
        let checkpoint = checkpoint(last_ts_micros, sweep_micros, flows);
        assert_coord_roundtrip(&CoordMsg::Restore { shard, epoch, checkpoint })?;
    }

    /// A worker checkpoint reply is a flow snapshot plus an incremental
    /// outcome fragment — the largest message in the protocol; its codec
    /// must be canonical and reject every strict prefix.
    #[test]
    fn worker_checkpoint_roundtrips(
        shard in any::<u32>(),
        epoch in any::<u64>(),
        last_ts_micros in any::<u64>(),
        sweep_micros in any::<u64>(),
        flows in vec(arb_migration(), 0..6),
        fragment in arb_outcome(),
    ) {
        let checkpoint = checkpoint(last_ts_micros, sweep_micros, flows);
        assert_worker_roundtrip(&WorkerMsg::Checkpoint { shard, epoch, checkpoint, fragment })?;
    }

    /// Arbitrary garbage never panics either decoder.
    #[test]
    fn decoders_never_panic(body in vec(any::<u8>(), 0..256)) {
        let _ = CoordMsg::decode(&body);
        let _ = WorkerMsg::decode(&body);
    }
}

/// The `record: Some` migration arm, with a [`FlowRecord`] accumulated the
/// way production accumulates one — through a [`FlowTable`] observing a
/// real TCP exchange — plus non-empty detector state riding along.
#[test]
fn migration_with_flow_record_roundtrips() {
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut ts = 0u64;
    for (sport, dport, flags, payload) in [
        (40_000u16, 80u16, TcpFlags::SYN, 0usize),
        (80, 40_000, TcpFlags::SYN | TcpFlags::ACK, 0),
        (40_000, 80, TcpFlags::ACK, 700),
        (80, 40_000, TcpFlags::ACK, 120),
    ] {
        let (src, dst) = if sport == 80 { (2u8, 1u8) } else { (1, 2) };
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
            .tcp(sport, dport, flags)
            .payload_len(payload)
            .build(Timestamp::from_micros(ts));
        ts += 250;
        let parsed = ParsedPacket::parse(&packet).expect("parse");
        let key = FlowKey::from_packet(&parsed).expect("tcp flow key");
        let evicted = table.observe(&parsed);
        assert!(evicted.is_empty(), "nothing should evict mid-handshake");
        assert!(table.contains(&key.canonical().0) || table.contains(&key));
    }
    let key = table.flush().pop().map(|record| record.key).expect("one live flow");
    // Rebuild and extract so the record carries live mid-flow state.
    let mut table = FlowTable::new(FlowTableConfig::default());
    let packet = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
        .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
        .tcp(40_000, 80, TcpFlags::SYN)
        .build(Timestamp::from_micros(10));
    table.observe(&ParsedPacket::parse(&packet).expect("parse"));
    let record = table.extract(&key).expect("extract the live record");
    assert!(record.total_packets() > 0);

    let migration = FlowMigration {
        key,
        record: Some(record),
        label: Label::Attack(AttackKind::SynFlood),
        label_seen: Timestamp::from_micros(10),
        detector: Some(vec![7u8; 40]),
    };
    let msg = WorkerMsg::Migrations { shard: 3, migrations: vec![migration] };
    let body = msg.encode();
    let decoded = WorkerMsg::decode(&body).expect("decode");
    assert_eq!(decoded, msg);
    assert_eq!(decoded.encode(), body);
    for cut in 0..body.len() {
        assert!(WorkerMsg::decode(&body[..cut]).is_err(), "truncation at {cut} decoded");
    }
}

/// `decode_wire` of a [`FlowRecord`] embedded in a migration is exact:
/// every statistic the feature extractor reads survives the hop.
#[test]
fn flow_record_statistics_survive_the_wire() {
    let mut table = FlowTable::new(FlowTableConfig::default());
    let mut last = None;
    for i in 0..6u64 {
        let (src, dst, sport, dport) =
            if i % 2 == 0 { (1u8, 2u8, 50_000u16, 443u16) } else { (2, 1, 443, 50_000) };
        let packet = PacketBuilder::new()
            .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32))
            .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
            .tcp(sport, dport, TcpFlags::ACK)
            .payload_len(64 + i as usize * 31)
            .build(Timestamp::from_micros(i * 1_000));
        let parsed = ParsedPacket::parse(&packet).expect("parse");
        last = FlowKey::from_packet(&parsed);
        table.observe(&parsed);
    }
    let key = last.expect("flow key").canonical().0;
    let record = table.extract(&key).expect("live record");
    let migration = FlowMigration {
        key,
        record: Some(record.clone()),
        label: Label::Benign,
        label_seen: Timestamp::from_micros(0),
        detector: None,
    };
    let body = CoordMsg::Migrate { shard: 0, migrations: vec![migration] }.encode();
    let CoordMsg::Migrate { migrations, .. } = CoordMsg::decode(&body).expect("decode") else {
        panic!("wrong message");
    };
    let restored = migrations[0].record.as_ref().expect("record survived");
    assert_eq!(restored, &record);
    assert_eq!(restored.total_packets(), 6);
    assert_eq!(restored.total_bytes(), record.total_bytes());
    assert_eq!(restored.duration(), record.duration());
}
