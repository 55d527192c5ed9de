//! Deterministic fault injection for the fabric transport.
//!
//! A [`FaultPlan`] is a seeded list of [`Fault`]s that a
//! [`FaultInjector`] evaluates at the *frame* layer of a
//! [`ShardTransport`](crate::ShardTransport) — after a frame is read, or
//! before one is written — indexed by the transport's own monotonic frame
//! counters. Nothing consults wall time or a global RNG: the same plan on
//! the same protocol run fires at the same frames, which is what lets the
//! chaos tests and `idsbench check` pin score parity under crashes.
//!
//! Kill faults model an abrupt worker death: the socket is shut down (so
//! the peer observes a reset, exactly as if the process had been SIGKILLed
//! mid-conversation) and the local side returns an error. Corruption
//! faults flip one seeded byte, which the full-consumption wire decoders
//! are guaranteed to reject; drop/truncate faults starve the peer into its
//! io-timeout. Every failure mode lands in the same coordinator-side
//! classification path: the peer is dead, recover it.

use std::time::Duration;

/// Where in the frame stream a fault triggers and what it does.
///
/// Frame indices are 0-based and count *all* frames on the transport in
/// the relevant direction, handshake included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash (shutdown + error) upon receiving a `Batch` frame whose first
    /// item's sequence number is `>=` this value — the "kill the worker
    /// mid-stream at a chosen packet" primitive. The batch is *not*
    /// delivered: the crash loses everything after the last checkpoint.
    KillAtSeq(u64),
    /// Crash upon receiving the nth frame.
    KillAtFrame(u64),
    /// Flip one seeded byte of the nth received frame before delivery; the
    /// decoder rejects it and the receiver dies with a wire error.
    CorruptRecvFrame(u64),
    /// After delivering the nth received frame, stop reading: sleep for the
    /// given duration on the next read, then fail. The peer sees a stalled
    /// socket and must classify this side dead via its io-timeout.
    StallAfterFrame {
        /// Last frame delivered normally.
        frame: u64,
        /// How long the next read hangs before erroring out.
        hang: Duration,
    },
    /// Delay delivery of the nth received frame.
    DelayRecvFrame {
        /// The delayed frame.
        frame: u64,
        /// How long to hold it.
        delay: Duration,
    },
    /// Silently drop the nth sent frame (the peer starves on the missing
    /// reply until its io-timeout).
    DropSendFrame(u64),
    /// Write only a truncated prefix of the nth sent frame, then crash —
    /// the peer reads an unexpected EOF mid-frame.
    TruncateSendFrame(u64),
    /// Flip one seeded byte of the nth sent frame.
    CorruptSendFrame(u64),
}

/// A seeded, ordered set of faults for one transport.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seeds the corruption byte/offset choices (not the trigger points,
    /// which are exact frame/seq indices).
    pub seed: u64,
    /// The faults to arm.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parses a comma-separated plan spec, the CLI encoding shared by
    /// `idsbench worker --faults` and the chaos tests:
    ///
    /// ```text
    /// seed=7,kill-at-seq=1234
    /// kill-at-frame=40
    /// corrupt-recv=25,corrupt-send=6
    /// stall-after=30:2000   (hang 2000 ms after frame 30)
    /// delay-recv=12:50      (hold frame 12 for 50 ms)
    /// drop-send=9,truncate-send=9
    /// ```
    ///
    /// # Errors
    ///
    /// A human-readable message naming the clause that failed to parse.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (name, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} is not name=value"))?;
            let num = |v: &str| {
                v.parse::<u64>().map_err(|_| format!("fault clause {clause:?}: bad number {v:?}"))
            };
            let pair = |v: &str| -> Result<(u64, u64), String> {
                let (a, b) = v
                    .split_once(':')
                    .ok_or_else(|| format!("fault clause {clause:?} needs frame:millis"))?;
                Ok((num(a)?, num(b)?))
            };
            match name {
                "seed" => plan.seed = num(value)?,
                "kill-at-seq" => plan.faults.push(Fault::KillAtSeq(num(value)?)),
                "kill-at-frame" => plan.faults.push(Fault::KillAtFrame(num(value)?)),
                "corrupt-recv" => plan.faults.push(Fault::CorruptRecvFrame(num(value)?)),
                "corrupt-send" => plan.faults.push(Fault::CorruptSendFrame(num(value)?)),
                "drop-send" => plan.faults.push(Fault::DropSendFrame(num(value)?)),
                "truncate-send" => plan.faults.push(Fault::TruncateSendFrame(num(value)?)),
                "stall-after" => {
                    let (frame, millis) = pair(value)?;
                    plan.faults.push(Fault::StallAfterFrame {
                        frame,
                        hang: Duration::from_millis(millis),
                    });
                }
                "delay-recv" => {
                    let (frame, millis) = pair(value)?;
                    plan.faults.push(Fault::DelayRecvFrame {
                        frame,
                        delay: Duration::from_millis(millis),
                    });
                }
                other => return Err(format!("unknown fault {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// What the injector decided for an inbound frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecvAction {
    /// Hand the frame to the protocol as-is (possibly after a delay,
    /// already served).
    Deliver,
    /// Crash: shut the socket down and return an error.
    Kill,
    /// The stall fired: the caller already slept `hang`; fail the read.
    Stall,
}

/// What the injector decided for an outbound frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SendAction {
    /// Write the frame normally.
    Deliver,
    /// Pretend the write succeeded without touching the socket.
    Drop,
    /// Write only this many body bytes (after the length prefix), then
    /// crash.
    Truncate(usize),
}

/// The runtime state of one transport's fault plan: frame counters plus a
/// latched killed flag (a crashed transport stays crashed).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    recv_frames: u64,
    send_frames: u64,
    killed: bool,
}

/// splitmix64 — the same tiny mixer the ring's vnode placement documents;
/// good enough to pick corruption offsets, no dependency needed.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Arms a plan on a fresh transport (frame counters start at zero).
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, recv_frames: 0, send_frames: 0, killed: false }
    }

    /// Whether a kill fault has fired (the transport is unusable).
    pub fn killed(&self) -> bool {
        self.killed
    }

    /// Evaluates the plan against received frame `body` (frame index is the
    /// internal counter, incremented here). May mutate the body (corrupt)
    /// or sleep (delay/stall) before returning the verdict.
    pub(crate) fn on_recv(&mut self, body: &mut [u8]) -> RecvAction {
        let frame = self.recv_frames;
        self.recv_frames += 1;
        // Stall wins over everything once its window opens: the transport
        // has "stopped reading", so later frames never get evaluated.
        for fault in &self.plan.faults {
            if let Fault::StallAfterFrame { frame: after, hang } = fault {
                if frame > *after {
                    std::thread::sleep(*hang);
                    self.killed = true;
                    return RecvAction::Stall;
                }
            }
        }
        for fault in &self.plan.faults {
            match *fault {
                Fault::KillAtFrame(at) if at == frame => {
                    self.killed = true;
                    return RecvAction::Kill;
                }
                Fault::KillAtSeq(at_seq) => {
                    if let Some(first_seq) = batch_first_seq(body) {
                        if first_seq >= at_seq {
                            self.killed = true;
                            return RecvAction::Kill;
                        }
                    }
                }
                Fault::CorruptRecvFrame(at) if at == frame => {
                    corrupt(self.plan.seed, frame, body);
                }
                Fault::DelayRecvFrame { frame: at, delay } if at == frame => {
                    std::thread::sleep(delay);
                }
                _ => {}
            }
        }
        RecvAction::Deliver
    }

    /// Evaluates the plan against outbound frame `body` (frame index is the
    /// internal counter, incremented here). May mutate the body (corrupt).
    pub(crate) fn on_send(&mut self, body: &mut [u8]) -> SendAction {
        let frame = self.send_frames;
        self.send_frames += 1;
        for fault in &self.plan.faults {
            match *fault {
                Fault::DropSendFrame(at) if at == frame => return SendAction::Drop,
                Fault::TruncateSendFrame(at) if at == frame => {
                    self.killed = true;
                    return SendAction::Truncate(body.len() / 2);
                }
                Fault::CorruptSendFrame(at) if at == frame => {
                    corrupt(self.plan.seed, frame, body);
                }
                _ => {}
            }
        }
        SendAction::Deliver
    }
}

/// Corrupts `body` reproducibly: flips the tag byte's high bit (every
/// valid tag is below `0x80`, so the receiving decoder always rejects the
/// frame — the point of the fault is to exercise the decode-failure death
/// classification, deterministically) and XORs a seeded mask into a seeded
/// payload position so payload bits get mangled too.
fn corrupt(seed: u64, frame: u64, body: &mut [u8]) {
    if body.is_empty() {
        return;
    }
    body[0] ^= 0x80;
    let mix = splitmix64(seed ^ frame.wrapping_mul(0xA24B_AED4_963E_E407));
    let index = (mix % body.len() as u64) as usize;
    let mask = (((mix >> 32) & 0xFF) as u8) | 1;
    body[index] ^= mask;
}

/// If `body` is a `Batch` frame with at least one item, its first item's
/// sequence number. Layout (see the wire module): tag `0x05`, shard `u32`,
/// count `u32`, then the first item's `seq: u64` — all little-endian.
fn batch_first_seq(body: &[u8]) -> Option<u64> {
    if body.len() < 1 + 4 + 4 + 8 || body[0] != 0x05 {
        return None;
    }
    let count = u32::from_le_bytes(body[5..9].try_into().ok()?);
    if count == 0 {
        return None;
    }
    Some(u64::from_le_bytes(body[9..17].try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{CoordMsg, WireItem};

    #[test]
    fn plan_parse_roundtrips_every_clause() {
        let plan = FaultPlan::parse(
            "seed=7,kill-at-seq=1234,kill-at-frame=9,corrupt-recv=3,corrupt-send=4,\
             drop-send=5,truncate-send=6,stall-after=30:2000,delay-recv=12:50",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults,
            vec![
                Fault::KillAtSeq(1234),
                Fault::KillAtFrame(9),
                Fault::CorruptRecvFrame(3),
                Fault::CorruptSendFrame(4),
                Fault::DropSendFrame(5),
                Fault::TruncateSendFrame(6),
                Fault::StallAfterFrame { frame: 30, hang: Duration::from_millis(2000) },
                Fault::DelayRecvFrame { frame: 12, delay: Duration::from_millis(50) },
            ]
        );
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("kill-at-seq").is_err());
        assert!(FaultPlan::parse("stall-after=30").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn kill_at_seq_triggers_on_the_first_batch_at_or_past_the_seq() {
        let batch = |seq: u64| {
            CoordMsg::Batch {
                shard: 3,
                items: vec![WireItem {
                    seq,
                    ts_micros: 0,
                    label: idsbench_core::Label::Benign,
                    data: vec![0; 24],
                }],
            }
            .encode()
        };
        assert_eq!(batch_first_seq(&batch(77)), Some(77));
        assert_eq!(batch_first_seq(&CoordMsg::Finish.encode()), None);

        let mut injector = FaultInjector::new(FaultPlan::parse("kill-at-seq=100").unwrap());
        assert_eq!(injector.on_recv(&mut batch(99)), RecvAction::Deliver);
        assert!(!injector.killed());
        assert_eq!(injector.on_recv(&mut batch(100)), RecvAction::Kill);
        assert!(injector.killed());
    }

    #[test]
    fn corruption_is_deterministic_and_rejected_by_the_decoder() {
        let body = CoordMsg::Spawn { shard: 5 }.encode();
        let mut injector = FaultInjector::new(FaultPlan::parse("seed=9,corrupt-recv=0").unwrap());
        let mut corrupted = body.clone();
        assert_eq!(injector.on_recv(&mut corrupted), RecvAction::Deliver);
        assert_ne!(corrupted, body, "corruption must flip a byte");
        assert!(CoordMsg::decode(&corrupted).is_err(), "decoder must reject the flip");

        let mut again = FaultInjector::new(FaultPlan::parse("seed=9,corrupt-recv=0").unwrap());
        let mut replay = body.clone();
        again.on_recv(&mut replay);
        assert_eq!(replay, corrupted, "same seed, same frame, same flip");
    }

    #[test]
    fn send_faults_fire_by_frame_index() {
        let mut injector =
            FaultInjector::new(FaultPlan::parse("drop-send=1,truncate-send=2").unwrap());
        let mut body = CoordMsg::Finish.encode();
        assert_eq!(injector.on_send(&mut body), SendAction::Deliver);
        assert_eq!(injector.on_send(&mut body), SendAction::Drop);
        assert_eq!(injector.on_send(&mut body), SendAction::Truncate(body.len() / 2));
        assert!(injector.killed());
    }
}
