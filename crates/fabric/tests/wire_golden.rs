//! Golden bytes for the fabric wire: one fixed message per tag
//! (`0x01`–`0x0C` coordinator→worker, `0x40`–`0x46` worker→coordinator)
//! must encode to exactly the hex pinned here, and the pinned hex must
//! decode back to the message.
//!
//! `proptest_wire.rs` proves `decode ∘ encode = id` within one build, which
//! cannot see a layout change both sides make together; this file can. A
//! coordinator and a worker built from different revisions speak to each
//! other only if these bytes hold, so a mismatch here means a
//! `PROTOCOL_VERSION` bump — never a re-pin alone.

use std::net::Ipv4Addr;

use idsbench_core::{AttackKind, FlowMigration, Label};
use idsbench_fabric::wire::PROTOCOL_VERSION;
use idsbench_fabric::{CoordMsg, HelloConfig, WireItem, WirePacket, WorkerMsg};
use idsbench_flow::{FlowKey, FlowTable, FlowTableConfig};
use idsbench_net::{Duration, MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
use idsbench_stream::{
    HashRing, OnlineStats, Recorder, ScoredEvent, ShardCheckpoint, ShardOutcome,
};

/// The two migrations of [`migrations`] as a counted list: a record-less
/// attack tuple with detector bytes, then a live mid-handshake flow.
macro_rules! migrations_hex {
    () => {
        concat!(
            "02000000040a000003040a00000228a0bb01060001840300000000000001030000000708",
            "09040a000001040a000002409c50000601040a000001040a000002409c50000600e80300",
            "0000000000e204000000000000010000000000000001000000000000004a000000000000",
            "004a00000000000000140000000000000014000000000000000100000000000000000000",
            "000080524000000000000000000000000000805240000000000080524000000000008052",
            "400100000000000000000000000080524000000000000000000000000000805240000000",
            "000080524000000000008052400100000000000000fca9f1d24d62303f00000000000000",
            "00fca9f1d24d62303ffca9f1d24d62303ffca9f1d24d62303f0000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000000000000000000020000000000000000000000000000",
            "0000000000000000000100000000000000000000000000000001010000000300e2040000",
            "0000000001e80300000000000001e20400000000000000e20400000000000000",
        )
    };
}

const GOLDEN: [(u8, &str); 19] = [
    (
        0x01,
        concat!(
            "0149534442020005000000536c697073000000000000f83f01000000000000e83f80841e",
            "0000000000008793030000000040420f00000000000010000000000000",
        ),
    ),
    (0x02, "0202000000e8030000000000000103000000010203d0070000000000000000000000"),
    (0x03, "03"),
    (0x04, "0403000000"),
    (
        0x05,
        concat!(
            "0502000000020000004d0000000000000005000000000000000002000000aabb4e000000",
            "0000000006000000000000000101000000cc",
        ),
    ),
    (0x06, "06010000000400000003000000000000000200000005000000"),
    (0x07, concat!("0701000000", migrations_hex!(),)),
    (0x08, "0804000000"),
    (0x09, "09"),
    (0x0A, "0a010000000900000000000000"),
    (
        0x0B,
        concat!("0b010000000900000000000000e204000000000000e803000000000000", migrations_hex!(),),
    ),
    (0x0C, "0cefbeadde00000000"),
    (0x40, "4005000000536c69707301"),
    (0x41, "4102000000000000000000e03f"),
    (0x42, concat!("4202000000", migrations_hex!(),)),
    (
        0x43,
        concat!(
            "430200000028000000000000000600000000000000000000000000c03f000000000000f8",
            "3f00020000000b00000000000000000000000100000000000000000000000000d03fe705",
            "00000000000000000c000000000000000100000001000000000000000000000000000c40",
            "e8050000000000000101",
        ),
    ),
    (0x44, "44"),
    (
        0x45,
        concat!(
            "45010000000900000000000000e204000000000000e803000000000000",
            migrations_hex!(),
            "010000000c000000000000000300000000000000000000000000b03f000000000000e03f",
            "01000000000000f03f020000000000000006000000000000000300000000000000010000",
            "000000000003000000000000000000000001000000000000000000000000000000030000",
            "000000000001000000000000000500000000000000010000000000000001000000000000",
            "000400000000000000000000000000000000000000000000000500000000000000020000",
            "000000000000000000000000000200000000000000000000000000000000000000000000",
            "000200000000000000010000000002000000000000000200000000000000010000000000",
            "0000090000003c00000001000000000000003d00000001000000000000003e0000000100",
            "0000000000003f0000000100000000000000400000000200000000000000410000000100",
            "000000000000420000000200000000000000430000000200000000000000440000000100",
            "0000000000000c000000000000000300000000000000",
        ),
    ),
    (0x46, "46efbeadde00000000"),
];

fn flow_config() -> FlowTableConfig {
    FlowTableConfig {
        idle_timeout: Duration::from_secs(2),
        active_timeout: Duration::from_secs(60),
        time_wait: Duration::from_secs(1),
        max_flows: 4096,
    }
}

fn tcp(src: u8, sport: u16, dst: u8, dport: u16, flags: TcpFlags, micros: u64) -> ParsedPacket {
    let packet = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32))
        .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
        .tcp(sport, dport, flags)
        .payload_len(20)
        .build(Timestamp::from_micros(micros));
    ParsedPacket::parse(&packet).expect("parse")
}

fn migrations() -> Vec<FlowMigration> {
    let mut table = FlowTable::new(flow_config());
    table.observe(&tcp(1, 40_000, 2, 80, TcpFlags::SYN, 1_000));
    table.observe(&tcp(2, 80, 1, 40_000, TcpFlags::SYN | TcpFlags::ACK, 1_250));
    let key = FlowKey::from_packet(&tcp(1, 40_000, 2, 80, TcpFlags::ACK, 0)).unwrap().canonical().0;
    let record = table.extract(&key).expect("live record");
    let dead = FlowKey::from_packet(&tcp(3, 41_000, 2, 443, TcpFlags::ACK, 0)).unwrap();
    vec![
        FlowMigration {
            key: dead,
            record: None,
            label: Label::Attack(AttackKind::SynFlood),
            label_seen: Timestamp::from_micros(900),
            detector: Some(vec![7, 8, 9]),
        },
        FlowMigration {
            key,
            record: Some(record),
            label: Label::Benign,
            label_seen: Timestamp::from_micros(1_250),
            detector: None,
        },
    ]
}

fn checkpoint() -> ShardCheckpoint {
    ShardCheckpoint {
        flows: migrations(),
        last_ts: Timestamp::from_micros(1_250),
        sweep: Timestamp::from_micros(1_000),
    }
}

fn full_outcome() -> ShardOutcome {
    let event = |seq: u64, sub: u32, score: f64, kind: Option<AttackKind>| ScoredEvent {
        seq,
        sub,
        window: seq / 10,
        score,
        latency_nanos: 1_500 + seq,
        label: kind.is_some(),
        kind,
    };
    ShardOutcome {
        shard: 2,
        recorder: Recorder::Full(vec![
            event(11, 0, 0.25, None),
            event(12, 1, 3.5, Some(AttackKind::SynFlood)),
        ]),
        score_seconds: 0.125,
        fit_seconds: 1.5,
        packets: 40,
        flows: 6,
    }
}

fn online_outcome() -> ShardOutcome {
    let mut stats = OnlineStats::default();
    for i in 0..12u64 {
        let kind = (i % 4 == 0).then_some(AttackKind::SynFlood);
        stats.record(i / 5, i as f64 * 0.3, 1.0, kind.is_some(), kind, i % 3 == 0, 800 + i * 70);
    }
    ShardOutcome {
        shard: 1,
        recorder: Recorder::Online(Box::new(stats), 1.0),
        score_seconds: 0.0625,
        fit_seconds: 0.5,
        packets: 12,
        flows: 3,
    }
}

fn coord_messages() -> Vec<CoordMsg> {
    let mut ring = HashRing::new(4);
    for shard in [5, 0, 2] {
        ring.add_shard(shard);
    }
    vec![
        CoordMsg::Hello(HelloConfig {
            detector: "Slips".to_string(),
            window_secs: 1.5,
            fixed_threshold: Some(0.75),
            flow: flow_config(),
        }),
        CoordMsg::Train(vec![
            WirePacket {
                ts_micros: 1_000,
                label: Label::Attack(AttackKind::SynFlood),
                data: vec![1, 2, 3],
            },
            WirePacket { ts_micros: 2_000, label: Label::Benign, data: Vec::new() },
        ]),
        CoordMsg::TrainDone,
        CoordMsg::Spawn { shard: 3 },
        CoordMsg::Batch {
            shard: 2,
            items: vec![
                WireItem { seq: 77, ts_micros: 5, label: Label::Benign, data: vec![0xAA, 0xBB] },
                WireItem {
                    seq: 78,
                    ts_micros: 6,
                    label: Label::Attack(AttackKind::SynFlood),
                    data: vec![0xCC],
                },
            ],
        },
        CoordMsg::Rebalance { shard: 1, ring },
        CoordMsg::Migrate { shard: 1, migrations: migrations() },
        CoordMsg::Retire { shard: 4 },
        CoordMsg::Finish,
        CoordMsg::Checkpoint { shard: 1, epoch: 9 },
        CoordMsg::Restore { shard: 1, epoch: 9, checkpoint: checkpoint() },
        CoordMsg::Ping { nonce: 0xDEAD_BEEF },
    ]
}

fn worker_messages() -> Vec<WorkerMsg> {
    vec![
        WorkerMsg::HelloOk { detector: "Slips".to_string(), flows: true },
        WorkerMsg::Ready { shard: 2, fit_seconds: 0.5 },
        WorkerMsg::Migrations { shard: 2, migrations: migrations() },
        WorkerMsg::Outcome(full_outcome()),
        WorkerMsg::Bye,
        WorkerMsg::Checkpoint {
            shard: 1,
            epoch: 9,
            checkpoint: checkpoint(),
            fragment: online_outcome(),
        },
        WorkerMsg::Pong { nonce: 0xDEAD_BEEF },
    ]
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|at| u8::from_str_radix(&hex[at..at + 2], 16).expect("golden constants are hex"))
        .collect()
}

#[test]
fn golden_covers_every_tag_once() {
    let tags: Vec<u8> = GOLDEN.iter().map(|&(tag, _)| tag).collect();
    let expected: Vec<u8> = (0x01..=0x0C).chain(0x40..=0x46).collect();
    assert_eq!(tags, expected);
    // The pinned bytes are version 2's; a layout change bumps both.
    assert_eq!(PROTOCOL_VERSION, 2);
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let coord = coord_messages().iter().map(CoordMsg::encode).collect::<Vec<_>>();
    let worker = worker_messages().iter().map(WorkerMsg::encode).collect::<Vec<_>>();
    let bodies = coord.iter().chain(&worker);
    for (body, &(tag, hex)) in bodies.zip(GOLDEN.iter()) {
        assert_eq!(body[0], tag);
        assert_eq!(to_hex(body), hex, "tag {tag:#04x} changed its bytes");
    }
}

#[test]
fn pinned_bytes_decode_to_their_messages() {
    let (coord, worker) = GOLDEN.split_at(12);
    for (msg, &(tag, hex)) in coord_messages().iter().zip(coord) {
        assert_eq!(&CoordMsg::decode(&from_hex(hex)).unwrap(), msg, "tag {tag:#04x}");
    }
    for (msg, &(tag, hex)) in worker_messages().iter().zip(worker) {
        assert_eq!(&WorkerMsg::decode(&from_hex(hex)).unwrap(), msg, "tag {tag:#04x}");
    }
}
