//! Pins the fabric's frame path: a batch crosses the socket with one copy,
//! into a recycled frame, leaves in one write, and arrives as packets that
//! slice the received frame — so a run allocates (almost) nothing per
//! packet on either side of the socket.
//!
//! The binary installs [`CountingAllocator`]. Its counters are
//! process-global, so the tests here take turns ([`SERIAL`]) and the
//! allocation pin measures coordinator and worker together.

use std::net::Ipv4Addr;
use std::sync::Mutex;
use std::time::Duration;

use idsbench_core::allocwatch::{allocation_snapshot, CountingAllocator};
use idsbench_core::{EventDetector, Label, LabeledPacket};
use idsbench_fabric::wire::{put_batch, BatchItem};
use idsbench_fabric::{
    run_fabric, run_worker, write_frame, CoordMsg, Endpoint, FabricConfig, FabricListener, Frame,
    WireItem,
};
use idsbench_net::{MacAddr, PacketBuilder, TcpFlags, Timestamp};
use idsbench_slips::Slips;
use idsbench_stream::{StreamConfig, VecSource};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held by every test, so no test allocates inside another's window.
static SERIAL: Mutex<()> = Mutex::new(());

/// 128 long-lived flows (16 devices × 8 source ports) to one broker,
/// 1 ms apart, with payloads of 64–127 bytes.
fn packet(i: u64) -> LabeledPacket {
    let device = (i % 16) as u8 + 1;
    let port = 40_000 + (i / 16 % 8) as u16;
    let p = PacketBuilder::new()
        .ethernet(MacAddr::from_host_id(u32::from(device)), MacAddr::from_host_id(100))
        .ipv4(Ipv4Addr::new(10, 0, 0, device), Ipv4Addr::new(10, 0, 0, 100))
        .tcp(port, 1883, TcpFlags::PSH | TcpFlags::ACK)
        .payload_len(64 + (i % 64) as usize)
        .build(Timestamp::from_micros(1_000 * i));
    LabeledPacket::new(p, Label::Benign)
}

/// Allocations of one uds `run_fabric` Slips run over `packets` packets,
/// its in-process worker included.
fn fabric_run_allocations(packets: u64) -> u64 {
    let warmup: Vec<LabeledPacket> = (0..512).map(packet).collect();
    let eval: Vec<LabeledPacket> = (512..512 + packets).map(packet).collect();
    let path =
        std::env::temp_dir().join(format!("idsbench-frame-path-{}.sock", std::process::id()));
    let endpoint = Endpoint::Uds(path);
    let listener = FabricListener::bind(&endpoint).expect("bind uds");
    let fabric =
        FabricConfig { workers: 1, accept_timeout: Duration::from_secs(30), ..Default::default() };
    let config = StreamConfig::default();

    let before = allocation_snapshot();
    let run = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let resolve = |name: &str| {
                (name == "Slips").then(|| Box::new(Slips::default()) as Box<dyn EventDetector>)
            };
            run_worker(&endpoint, &resolve, None)
        });
        let source = VecSource::new("frame-path", eval);
        let run = run_fabric("Slips", &warmup, source, &config, &fabric, listener, None);
        worker.join().expect("worker thread").expect("worker");
        run.expect("fabric run")
    });
    let after = allocation_snapshot();
    assert_eq!(run.report.eval_packets as u64, packets, "every packet fed");
    drop(run);
    after.allocations_since(&before)
}

#[test]
fn a_fabric_run_allocates_at_most_a_tenth_per_packet() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (short, long) = (4_096u64, 16_384u64);
    let at_short = fabric_run_allocations(short);
    let at_long = fabric_run_allocations(long);
    // Setup, handshake, warmup and the final merge cost the same in both
    // runs; the difference is what the extra packets cost.
    let marginal = at_long.saturating_sub(at_short) as f64 / (long - short) as f64;
    assert!(
        marginal <= 0.1,
        "{marginal:.3} allocations per packet ({at_short} at {short} packets, {at_long} at {long})"
    );
}

/// A `Write` that counts its `write` calls.
#[derive(Default)]
struct CountingWrite {
    writes: usize,
    bytes: Vec<u8>,
}

impl std::io::Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_batch_frame_leaves_in_one_write() {
    let _serial = SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let items: Vec<WireItem> = (0..32u64)
        .map(|seq| {
            let packet = packet(seq);
            WireItem {
                seq,
                ts_micros: packet.packet.ts.as_micros(),
                label: packet.label,
                data: packet.packet.data.to_vec(),
            }
        })
        .collect();
    // Encoded as the coordinator does: borrowed items into a reused frame.
    let mut frame = Frame::default();
    let mut sink = CountingWrite::default();
    for frames in 1..=3 {
        frame.encode(|out| put_batch(out, 7, items.iter().map(BatchItem::from)));
        write_frame(&mut sink, &frame, None).expect("write");
        assert_eq!(sink.writes, frames, "one write per frame");
    }
    let body = CoordMsg::Batch { shard: 7, items }.encode();
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    assert_eq!(sink.bytes, wire.repeat(3), "prefix then body, as before");
}
