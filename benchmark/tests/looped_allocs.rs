//! Looping a trace must not allocate: a looped packet is the base packet's
//! payload `Bytes` with one more reference and a shifted timestamp. Alone in
//! its binary because the allocation counter is process-wide.

use std::sync::Arc;

use idsbench_benchmark::sources::{LoopedSource, MarkedSource};
use idsbench_core::allocwatch::{allocation_snapshot, CountingAllocator};
use idsbench_core::{Label, LabeledPacket};
use idsbench_net::{Packet, Timestamp};
use idsbench_stream::PacketSource;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn looped_packets_allocate_nothing() {
    let base: Arc<[LabeledPacket]> = (0..500u64)
        .map(|i| {
            LabeledPacket::new(
                Packet::new(
                    Timestamp::from_micros(i * 700),
                    vec![i as u8; 60 + (i as usize % 900)],
                ),
                Label::Benign,
            )
        })
        .collect();
    let (mut source, marks) = MarkedSource::new(LoopedSource::new("loop", base, 40), 2_500);
    // The first pull takes the window's opening mark (which reads /proc).
    assert!(source.next_packet().unwrap().is_some());

    let before = allocation_snapshot();
    let mut bytes = 0usize;
    for _ in 0..19_998 {
        let packet = source.next_packet().unwrap().expect("20,000 packets in 40 laps");
        bytes += packet.packet.wire_len();
    }
    let after = allocation_snapshot();
    assert_eq!(after.allocations_since(&before), 0, "looped packets must not allocate");
    assert!(bytes > 19_998 * 60);

    assert!(source.next_packet().unwrap().is_some());
    assert!(source.next_packet().unwrap().is_none());
    assert_eq!(marks.lock().unwrap().packets, 20_000);
}
