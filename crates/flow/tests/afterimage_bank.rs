//! The λ bank, pinned bit for bit: every lane of a five-rate
//! [`DampedStat`]/[`DampedPairStat`] equals a one-rate statistic at that
//! lane's λ, and the [`AfterImage`] extractor built on the bank folds an
//! out-of-order trace into the same constant as the per-λ statistics it
//! replaced.
//!
//! The bank's loops vectorise only in release builds, so CI runs this file
//! in both profiles.

use idsbench_flow::{AfterImage, AfterImageConfig, DampedPairStat, DampedStat, DecayBank};
use idsbench_net::{ArpPacket, MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn bits<const W: usize>(group: [f64; W]) -> [u64; W] {
    group.map(f64::to_bits)
}

/// The next timestamp: equal, backwards, forward by a multiple of 1/8 s
/// (intervals that repeat exactly, so the bank's memo hits), forward by an
/// arbitrary step, or forward by 150 s (the fastest lanes decay to 0).
fn next_time(t: f64, kind: u8, eighths: u8, step: f64) -> f64 {
    let quantum = f64::from(eighths) * 0.125;
    match kind {
        0 => t,
        1 => t - quantum,
        2 | 3 => t + quantum,
        4 => t + 150.0,
        _ => t + step,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Lane `i` of a five-λ pair equals a one-λ pair at `λ_i`: all seven
    /// features from either side and the residual products, bit for bit.
    #[test]
    fn pair_lanes_equal_one_lambda_pairs(
        lambdas in (0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0),
        steps in proptest::collection::vec(
            (any::<bool>(), 0u8..7, 1u8..9, 0.0f64..3.0, -2e3f64..2e3),
            1..120,
        ),
    ) {
        let lambdas = [lambdas.0, lambdas.1, lambdas.2, lambdas.3, lambdas.4];
        let mut bank = DecayBank::new(lambdas);
        let mut one = lambdas.map(|lambda| DecayBank::new([lambda]));
        let mut pair = DampedPairStat::<5>::default();
        let mut lanes = [DampedPairStat::<1>::default(); 5];
        let mut t = 0.0;
        for (into_a, kind, eighths, step, x) in steps {
            t = next_time(t, kind, eighths, step);
            pair.insert(&mut bank, into_a, t, x);
            for (lane, bank) in lanes.iter_mut().zip(&mut one) {
                lane.insert(bank, into_a, t, x);
            }
            for (i, lane) in lanes.iter().enumerate() {
                for of_a in [true, false] {
                    prop_assert_eq!(bits(pair.snapshot(of_a)[i]), bits(lane.snapshot(of_a)[0]));
                }
                prop_assert_eq!(
                    pair.residual_products()[i].to_bits(),
                    lane.residual_products()[0].to_bits()
                );
            }
        }
    }

    /// Lane `i` of a five-λ statistic equals a one-λ statistic at `λ_i`,
    /// through inserts and bare decays.
    #[test]
    fn stat_lanes_equal_one_lambda_stats(
        lambdas in (0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0, 0.001f64..12.0),
        steps in proptest::collection::vec(
            (any::<bool>(), 0u8..7, 1u8..9, 0.0f64..3.0, -2e3f64..2e3),
            1..120,
        ),
    ) {
        let lambdas = [lambdas.0, lambdas.1, lambdas.2, lambdas.3, lambdas.4];
        let mut bank = DecayBank::new(lambdas);
        let mut one = lambdas.map(|lambda| DecayBank::new([lambda]));
        let mut stat = DampedStat::<5>::default();
        let mut lanes = [DampedStat::<1>::default(); 5];
        let mut t = 0.0;
        for (insert, kind, eighths, step, x) in steps {
            t = next_time(t, kind, eighths, step);
            if insert {
                stat.insert(&mut bank, t, x);
            } else {
                stat.decay_to(&mut bank, t);
            }
            for (lane, bank) in lanes.iter_mut().zip(&mut one) {
                if insert {
                    lane.insert(bank, t, x);
                } else {
                    lane.decay_to(bank, t);
                }
            }
            for (i, lane) in lanes.iter().enumerate() {
                prop_assert_eq!(bits(stat.snapshot()[i]), bits(lane.snapshot()[0]));
            }
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Six hosts talking over a few ports in both directions, mostly TCP, some
/// UDP and ARP, with timestamps that repeat (1 in 8), step back by up to
/// 1 s (1 in 4) and now and then jump 12 s ahead.
fn out_of_order_trace(packets: usize, seed: u64) -> Vec<ParsedPacket> {
    let mut state = seed;
    let mut micros: u64 = 1_000_000_000;
    (0..packets)
        .map(|_| {
            let r = splitmix(&mut state);
            micros = match r % 8 {
                0 => micros,
                1 | 2 => micros.saturating_sub(r >> 44),
                3 if r % 64 == 3 => micros + 12_000_000,
                _ => micros + (r >> 46),
            };
            let src = 1 + (r >> 8) % 6;
            let dst = 1 + (src + (r >> 12) % 5) % 6;
            let (sport, dport) = (1000 + ((r >> 16) % 3) as u16, 80 + ((r >> 20) % 2) as u16);
            let (sport, dport) = if (r >> 24) & 1 == 0 { (sport, dport) } else { (dport, sport) };
            let builder = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32));
            let src_ip = Ipv4Addr::new(10, 0, 0, src as u8);
            let dst_ip = Ipv4Addr::new(10, 0, 0, dst as u8);
            let builder = match (r >> 28) % 16 {
                0 => builder.arp(ArpPacket::request(
                    MacAddr::from_host_id(src as u32),
                    src_ip,
                    dst_ip,
                )),
                1..=7 => builder.ipv4(src_ip, dst_ip).udp(sport, dport),
                _ => builder.ipv4(src_ip, dst_ip).tcp(sport, dport, TcpFlags::ACK),
            };
            let packet = builder
                .payload_len(((r >> 32) % 1400) as usize)
                .build(Timestamp::from_micros(micros));
            ParsedPacket::parse(&packet).expect("builder packets parse")
        })
        .collect()
}

/// Every feature of 3,000 out-of-order packets, and the tracked-entity
/// count after each, folded (rotate-xor, as `tests/score_digest.rs` does)
/// with an 8-entity budget, so the `HHjit` gap, the `last_seen` purge clock
/// and the statistics' forward-only clocks all show. The constants were
/// computed with the per-λ statistics the bank replaced. The decay is
/// glibc's `exp2` in every profile (the bits a release build's
/// `2f64.powf` already gave), so one constant holds in debug and release;
/// other targets' libms are not pinned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[test]
fn out_of_order_features_fold_to_the_pinned_digest() {
    const PINNED: u64 = 0x2896_199c_5796_59c5;
    let mut extractor = AfterImage::new(AfterImageConfig { max_entities: 8 });
    let mut features = Vec::new();
    let mut digest = 0u64;
    for packet in out_of_order_trace(3_000, 44) {
        extractor.update_into(&packet, &mut features);
        for v in &features {
            digest = digest.rotate_left(7) ^ v.to_bits();
        }
        digest = digest.rotate_left(7) ^ extractor.tracked_entities() as u64;
    }
    assert_eq!(digest, PINNED, "digest {digest:#018x}");
}
