//! Packet sources: the pull side of the streaming engine.
//!
//! A [`PacketSource`] unifies everything that can produce labeled packets —
//! scenario generators, pcap captures, in-memory vectors — behind one pull
//! iterator the sharded executor drains. [`BoundedSource`] decouples a slow
//! producer onto its own thread with a bounded channel, giving real
//! backpressure between I/O and scoring.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use crossbeam::channel;
use idsbench_core::{
    CoreError, Label, LabeledPacket, PacketStream, PayloadArena, Result, TrafficModel,
};
use idsbench_net::pcap::PcapReader;
use idsbench_net::Packet;

/// A pull source of labeled packets, in arrival (timestamp) order.
///
/// `next_packet` returns `Ok(None)` at a clean end of stream and an error
/// when the underlying producer fails (e.g. a truncated capture file).
pub trait PacketSource {
    /// Short name used in reports (dataset or capture name).
    fn name(&self) -> &str;

    /// Pulls the next packet.
    ///
    /// # Errors
    ///
    /// Propagates producer failures; a source that has returned an error is
    /// not required to be pollable again.
    fn next_packet(&mut self) -> Result<Option<LabeledPacket>>;

    /// Hands a consumed packet back so the source may reuse its payload
    /// buffer (the stream executor routes drained batches here through its
    /// return lane). Purely an optimisation: the default drops the packet,
    /// and sources whose packets are pre-materialised ([`VecSource`],
    /// [`ScenarioSource`]) keep that default. [`PcapSource`] returns the
    /// buffer to its [`PayloadArena`].
    fn recycle_packet(&mut self, packet: Packet) {
        drop(packet);
    }

    /// Packets this source dropped before the consumer saw them. Replay
    /// sources never drop (backpressure blocks instead), so the default is
    /// 0; lossy live-capture-style sources
    /// ([`BoundedSource::spawn_lossy`]) override it. The executor surfaces
    /// the final value as `StreamReport::dropped_packets`.
    fn dropped_packets(&self) -> u64 {
        0
    }
}

/// An in-memory source: replays a vector of labeled packets.
#[derive(Debug)]
pub struct VecSource {
    name: String,
    packets: VecDeque<LabeledPacket>,
}

impl VecSource {
    /// Creates a source replaying `packets` in the given order.
    pub fn new(name: impl Into<String>, packets: Vec<LabeledPacket>) -> Self {
        VecSource { name: name.into(), packets: packets.into() }
    }

    /// Packets remaining.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the source is exhausted.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

impl PacketSource for VecSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        Ok(self.packets.pop_front())
    }
}

/// A source backed by a [`TrafficModel`]: one seeded realisation, pulled
/// lazily in timestamp order.
///
/// Construction opens the model's stream but generates nothing; packets
/// materialise one at a time as the executor pulls. Natively streaming
/// models (the `idsbench-trafficgen` campaigns) therefore never hold a full
/// realisation in memory; the legacy `Scenario` models realise eagerly
/// inside their own `stream` and only the iteration is deferred.
pub struct ScenarioSource {
    name: String,
    stream: PacketStream,
    /// One-packet lookahead: [`ScenarioSource::split_warmup_secs`] pulls
    /// until it sees the first eval-side packet, which must not be lost.
    pending: Option<LabeledPacket>,
}

impl std::fmt::Debug for ScenarioSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSource").field("name", &self.name).finish_non_exhaustive()
    }
}

impl ScenarioSource {
    /// Opens one realisation of `model` with `seed`.
    pub fn new(model: &dyn TrafficModel, seed: u64) -> Self {
        ScenarioSource {
            name: model.info().name.clone(),
            stream: model.stream(seed),
            pending: None,
        }
    }

    /// Splits off the leading `fraction` of packets as a warmup slice,
    /// leaving this source holding the remainder.
    ///
    /// Delegates to [`idsbench_core::preprocess::split_at_fraction`], the batch
    /// pipeline's train/eval split rule, so a streaming run over the
    /// remainder scores exactly the packets the batch runner scores. The
    /// fraction rule needs the total count, so this call drains the stream —
    /// use [`ScenarioSource::split_warmup_secs`] to keep a long-running
    /// model streaming.
    pub fn split_warmup(self, fraction: f64) -> (Vec<LabeledPacket>, Self) {
        let name = self.name.clone();
        let packets: Vec<LabeledPacket> = self.pending.into_iter().chain(self.stream).collect();
        let (warmup, rest) = idsbench_core::preprocess::split_at_fraction(packets, fraction);
        (warmup, ScenarioSource { name, stream: Box::new(rest.into_iter()), pending: None })
    }

    /// Splits off every packet with a timestamp before `secs` as a warmup
    /// slice, leaving this source streaming the remainder.
    ///
    /// Unlike [`ScenarioSource::split_warmup`] this never materialises the
    /// eval side: only the warmup prefix is collected, and the stream is
    /// consumed exactly one packet past the boundary (held in a lookahead
    /// slot). This is the split the scenario registry's `warmup_secs`
    /// drives.
    pub fn split_warmup_secs(mut self, secs: f64) -> (Vec<LabeledPacket>, Self) {
        let mut warmup = Vec::new();
        debug_assert!(self.pending.is_none(), "split before first pull");
        for packet in self.stream.by_ref() {
            if packet.packet.ts.as_secs_f64() < secs {
                warmup.push(packet);
            } else {
                self.pending = Some(packet);
                break;
            }
        }
        (warmup, self)
    }
}

impl PacketSource for ScenarioSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        Ok(self.pending.take().or_else(|| self.stream.next()))
    }
}

/// Ground-truth labeler applied to pcap packets (captures carry no labels).
pub type PcapLabeler = Box<dyn FnMut(&Packet) -> Label + Send>;

/// A lazy pcap source: packets are decoded from the capture one record at a
/// time as the executor pulls — the file is never materialised in memory.
pub struct PcapSource<R> {
    name: String,
    reader: PcapReader<R>,
    labeler: PcapLabeler,
    /// Pool of payload buffers: one capture buffer is reused per in-flight
    /// packet instead of minting a `Vec<u8>` each record.
    arena: PayloadArena,
}

impl<R> std::fmt::Debug for PcapSource<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcapSource").field("name", &self.name).finish_non_exhaustive()
    }
}

impl PcapSource<BufReader<File>> {
    /// Opens a capture file, labeling every packet with `labeler`.
    ///
    /// # Errors
    ///
    /// Propagates open and pcap-header errors.
    pub fn open(path: impl AsRef<Path>, labeler: PcapLabeler) -> Result<Self> {
        let path = path.as_ref();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let reader = PcapReader::open(path)
            .map_err(|e| CoreError::stream(format!("open {}: {e}", path.display())))?;
        Ok(PcapSource { name, reader, labeler, arena: PayloadArena::new() })
    }
}

impl<R: Read> PcapSource<R> {
    /// Wraps an already-open pcap reader.
    pub fn new(name: impl Into<String>, reader: PcapReader<R>, labeler: PcapLabeler) -> Self {
        PcapSource { name: name.into(), reader, labeler, arena: PayloadArena::new() }
    }

    /// Payload buffers reused so far (pool hits of the transport arena).
    pub fn payloads_recycled(&self) -> u64 {
        self.arena.recycled()
    }

    /// Payload buffers minted so far (pool misses of the transport arena).
    pub fn payloads_minted(&self) -> u64 {
        self.arena.minted()
    }

    /// Wraps a reader, labeling every packet benign (the common case for
    /// live-capture smoke tests without ground truth).
    pub fn benign(name: impl Into<String>, reader: PcapReader<R>) -> Self {
        PcapSource::new(name, reader, Box::new(|_| Label::Benign))
    }
}

impl<R: Read> PacketSource for PcapSource<R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        // Disjoint field borrows: the reader fills an arena buffer in
        // place — the transport path's only per-packet byte copy.
        let reader = &mut self.reader;
        let (ts, data) = self
            .arena
            .take_fill(|buf| reader.read_record_into(buf))
            .map_err(|e| CoreError::stream(format!("pcap {}: {e}", self.name)))?;
        match ts {
            Some(ts) => {
                let packet = Packet { ts, data };
                let label = (self.labeler)(&packet);
                Ok(Some(LabeledPacket::new(packet, label)))
            }
            None => {
                self.arena.recycle(data);
                Ok(None)
            }
        }
    }

    fn recycle_packet(&mut self, packet: Packet) {
        self.arena.recycle(packet.data);
    }
}

/// Decouples a producer onto its own thread behind a bounded channel.
///
/// The producer thread pulls from the wrapped source and blocks whenever
/// `capacity` packets are already in flight — backpressure, so a fast reader
/// cannot balloon memory ahead of slow detectors. Dropping the
/// `BoundedSource` disconnects the channel and lets the producer exit.
///
/// Recycling crosses the thread hop too: [`PacketSource::recycle_packet`]
/// ships consumed packets back over a second bounded channel, and the
/// producer drains it before each read and hands them to the inner source —
/// so an arena-backed source (e.g. [`PcapSource`]) keeps its buffer pool
/// even when rate-decoupled. Both ends treat the lane as best-effort: a
/// full lane drops the packet (recycling is an optimisation, never a
/// stall).
#[derive(Debug)]
pub struct BoundedSource {
    name: String,
    receiver: channel::Receiver<Result<LabeledPacket>>,
    recycle: channel::Sender<Packet>,
    producer: Option<std::thread::JoinHandle<()>>,
    dropped: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl BoundedSource {
    /// Spawns the producer thread for `source` with room for `capacity`
    /// in-flight packets. The producer blocks when the channel is full
    /// (lossless backpressure — replay semantics).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn spawn(source: impl PacketSource + Send + 'static, capacity: usize) -> Self {
        BoundedSource::spawn_inner(source, capacity, false)
    }

    /// Like [`BoundedSource::spawn`], but the producer *drops* packets when
    /// the channel is full instead of blocking — the behaviour of a live
    /// capture whose kernel buffer overruns when the consumer falls behind.
    /// Dropped packets are counted and surfaced through
    /// [`PacketSource::dropped_packets`] (and from there into
    /// `StreamReport::dropped_packets`).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn spawn_lossy(source: impl PacketSource + Send + 'static, capacity: usize) -> Self {
        BoundedSource::spawn_inner(source, capacity, true)
    }

    fn spawn_inner(
        mut source: impl PacketSource + Send + 'static,
        capacity: usize,
        lossy: bool,
    ) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let name = source.name().to_string();
        let (tx, rx) = channel::bounded(capacity);
        // Consumed packets flow back on this lane so the inner source's
        // arena (if any) gets its payload buffers returned.
        let (recycle_tx, recycle_rx) = channel::bounded::<Packet>(capacity);
        let dropped = Arc::new(AtomicU64::new(0));
        let drop_count = Arc::clone(&dropped);
        let producer = std::thread::spawn(move || loop {
            while let Ok(packet) = recycle_rx.try_recv() {
                source.recycle_packet(packet);
            }
            match source.next_packet() {
                Ok(Some(packet)) => {
                    if lossy {
                        match tx.try_send(Ok(packet)) {
                            Ok(()) => {}
                            Err(channel::TrySendError::Full(overflow)) => {
                                // Consumer behind: count the loss and hand
                                // the payload straight back to the source.
                                drop_count.fetch_add(1, Ordering::Relaxed);
                                if let Ok(packet) = overflow {
                                    source.recycle_packet(packet.packet);
                                }
                            }
                            Err(channel::TrySendError::Disconnected(_)) => return,
                        }
                    } else if tx.send(Ok(packet)).is_err() {
                        return; // consumer gone
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });
        BoundedSource { name, receiver: rx, recycle: recycle_tx, producer: Some(producer), dropped }
    }
}

impl PacketSource for BoundedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
        match self.receiver.recv() {
            Ok(Ok(packet)) => Ok(Some(packet)),
            Ok(Err(e)) => Err(e),
            Err(_) => Ok(None), // producer finished and disconnected
        }
    }

    fn recycle_packet(&mut self, packet: Packet) {
        // Non-blocking: a full lane (or a finished producer) just drops it.
        let _ = self.recycle.try_send(packet);
    }

    fn dropped_packets(&self) -> u64 {
        self.dropped.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Drop for BoundedSource {
    fn drop(&mut self) {
        // Disconnect first so a blocked producer wakes, then reap it.
        self.receiver = channel::bounded(1).1;
        if let Some(handle) = self.producer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idsbench_net::pcap::PcapWriter;
    use idsbench_net::Timestamp;

    fn packets(n: usize) -> Vec<LabeledPacket> {
        (0..n)
            .map(|i| {
                LabeledPacket::new(
                    Packet::new(Timestamp::from_micros(i as u64), vec![0u8; 60]),
                    Label::Benign,
                )
            })
            .collect()
    }

    fn drain(mut source: impl PacketSource) -> Vec<LabeledPacket> {
        let mut out = Vec::new();
        while let Some(p) = source.next_packet().unwrap() {
            out.push(p);
        }
        out
    }

    /// One packet per second, benign — enough to exercise the lazy source.
    #[derive(Debug)]
    struct Ticks {
        info: idsbench_core::DatasetInfo,
        count: usize,
    }

    impl TrafficModel for Ticks {
        fn info(&self) -> &idsbench_core::DatasetInfo {
            &self.info
        }

        fn stream(&self, _seed: u64) -> PacketStream {
            let count = self.count;
            Box::new((0..count).map(|i| {
                LabeledPacket::new(
                    Packet::new(Timestamp::from_micros(i as u64 * 1_000_000), vec![0u8; 60]),
                    Label::Benign,
                )
            }))
        }
    }

    fn ticks(count: usize) -> Ticks {
        Ticks { info: idsbench_core::DatasetInfo::new("ticks", "", "", 2026), count }
    }

    #[test]
    fn scenario_source_pulls_lazily_from_the_model() {
        let model = ticks(5);
        let source = ScenarioSource::new(&model, 7);
        assert_eq!(source.name(), "ticks");
        assert_eq!(drain(source).len(), 5);
    }

    #[test]
    fn split_warmup_secs_streams_the_eval_side() {
        let model = ticks(10);
        let (warmup, rest) = ScenarioSource::new(&model, 0).split_warmup_secs(3.0);
        assert_eq!(warmup.len(), 3, "ticks at 0,1,2s are warmup");
        let rest = drain(rest);
        assert_eq!(rest.len(), 7, "lookahead packet at 3s must not be lost");
        assert_eq!(rest[0].packet.ts.as_micros(), 3_000_000);
    }

    #[test]
    fn vec_source_replays_in_order() {
        let original = packets(5);
        let source = VecSource::new("v", original.clone());
        assert_eq!(source.len(), 5);
        assert_eq!(drain(source), original);
    }

    #[test]
    fn pcap_source_is_lazy_and_labeled() {
        let mut image = Vec::new();
        let mut writer = PcapWriter::new(&mut image).unwrap();
        for lp in packets(4) {
            writer.write_packet(&lp.packet).unwrap();
        }
        writer.flush().unwrap();

        let reader = PcapReader::new(std::io::Cursor::new(image)).unwrap();
        let source = PcapSource::benign("cap", reader);
        let got = drain(source);
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|p| !p.is_attack()));
    }

    #[test]
    fn pcap_source_surfaces_truncation() {
        let mut image = Vec::new();
        let mut writer = PcapWriter::new(&mut image).unwrap();
        for lp in packets(2) {
            writer.write_packet(&lp.packet).unwrap();
        }
        writer.flush().unwrap();
        image.truncate(image.len() - 5);

        let reader = PcapReader::new(std::io::Cursor::new(image)).unwrap();
        let mut source = PcapSource::benign("cut", reader);
        assert!(source.next_packet().unwrap().is_some());
        assert!(source.next_packet().is_err());
    }

    #[test]
    fn bounded_source_preserves_stream() {
        let original = packets(100);
        let bounded = BoundedSource::spawn(VecSource::new("v", original.clone()), 8);
        assert_eq!(bounded.name(), "v");
        assert_eq!(drain(bounded), original);
    }

    #[test]
    fn bounded_source_drop_does_not_hang() {
        let bounded = BoundedSource::spawn(VecSource::new("v", packets(10_000)), 2);
        drop(bounded); // producer blocked on a full channel must still exit
    }

    #[test]
    fn lossy_source_counts_drops_instead_of_blocking() {
        // A tiny channel and a slow consumer: the producer must race ahead,
        // fail try_send, and count drops rather than stall.
        let total = 2_000;
        let mut bounded = BoundedSource::spawn_lossy(VecSource::new("live", packets(total)), 2);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut seen = 0;
        while bounded.next_packet().unwrap().is_some() {
            seen += 1;
        }
        let dropped = bounded.dropped_packets();
        assert_eq!(seen as u64 + dropped, total as u64, "every packet seen or counted dropped");
        assert!(dropped > 0, "a 2-slot channel over {total} packets must overflow");

        // Lossless spawn never drops.
        let mut lossless = BoundedSource::spawn(VecSource::new("replay", packets(100)), 2);
        let mut seen = 0;
        while lossless.next_packet().unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 100);
        assert_eq!(lossless.dropped_packets(), 0);
    }

    #[test]
    fn bounded_source_forwards_recycling_to_the_producer() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Counts how many packets come back through `recycle_packet`.
        #[derive(Debug)]
        struct CountingSource {
            inner: VecSource,
            recycled: Arc<AtomicUsize>,
        }

        impl PacketSource for CountingSource {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn next_packet(&mut self) -> Result<Option<LabeledPacket>> {
                self.inner.next_packet()
            }
            fn recycle_packet(&mut self, _packet: Packet) {
                self.recycled.fetch_add(1, Ordering::Relaxed);
            }
        }

        let recycled = Arc::new(AtomicUsize::new(0));
        let source = CountingSource {
            inner: VecSource::new("counting", packets(500)),
            recycled: recycled.clone(),
        };
        let mut bounded = BoundedSource::spawn(source, 4);
        let mut seen = 0;
        while let Some(packet) = bounded.next_packet().unwrap() {
            seen += 1;
            bounded.recycle_packet(packet.packet);
        }
        assert_eq!(seen, 500);
        // The lane is best-effort, but with backpressured hand-offs the
        // producer must have drained a substantial share of it.
        assert!(
            recycled.load(Ordering::Relaxed) > 100,
            "recycling did not cross the producer hop: {}",
            recycled.load(Ordering::Relaxed)
        );
    }
}
