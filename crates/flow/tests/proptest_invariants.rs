//! Property-based invariants for the flow substrate: statistics must match
//! their exact counterparts, damping must be monotone, and the flow table
//! must conserve packets.

use idsbench_flow::{
    AfterImage, AfterImageConfig, DampedStat, DecayBank, FlowFeatures, FlowTable, FlowTableConfig,
    RunningStats, AFTERIMAGE_FEATURES,
};
use idsbench_net::{MacAddr, PacketBuilder, ParsedPacket, TcpFlags, Timestamp};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn finite_f64() -> impl Strategy<Value = f64> {
    (-1e6f64..1e6).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #[test]
    fn running_stats_match_naive(xs in proptest::collection::vec(finite_f64(), 1..200)) {
        let mut stats = RunningStats::new();
        for &x in &xs {
            stats.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((stats.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((stats.population_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
        prop_assert_eq!(stats.count(), xs.len() as u64);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(stats.min(), min);
        prop_assert_eq!(stats.max(), max);
    }

    #[test]
    fn running_stats_merge_any_split(
        xs in proptest::collection::vec(finite_f64(), 2..100),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut all = RunningStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &x in &xs[..split] {
            left.push(x);
        }
        for &x in &xs[split..] {
            right.push(x);
        }
        left.merge(&right);
        prop_assert!((left.mean() - all.mean()).abs() < 1e-6 * (1.0 + all.mean().abs()));
        prop_assert_eq!(left.count(), all.count());
    }

    /// The damped mean of any bounded stream stays within the stream's range.
    #[test]
    fn damped_mean_within_bounds(
        values in proptest::collection::vec(0.0f64..1000.0, 1..100),
        lambda in 0.01f64..10.0,
    ) {
        let (mut bank, mut stat) = (DecayBank::new([lambda]), DampedStat::default());
        for (i, &x) in values.iter().enumerate() {
            stat.insert(&mut bank, i as f64 * 0.1, x);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let [[weight, mean, std]] = stat.snapshot();
        prop_assert!(mean >= min - 1e-9 && mean <= max + 1e-9,
            "mean {mean} outside [{min}, {max}]");
        prop_assert!(std >= 0.0);
        prop_assert!(weight > 0.0);
    }

    /// Decay is monotone: weight never increases without an insert.
    #[test]
    fn damped_weight_decays_monotonically(
        lambda in 0.01f64..5.0,
        gaps in proptest::collection::vec(0.0f64..10.0, 1..50),
    ) {
        let (mut bank, mut stat) = (DecayBank::new([lambda]), DampedStat::default());
        stat.insert(&mut bank, 0.0, 1.0);
        let mut t = 0.0;
        let mut prev = stat.snapshot()[0][0];
        for gap in gaps {
            t += gap;
            stat.decay_to(&mut bank, t);
            let weight = stat.snapshot()[0][0];
            prop_assert!(weight <= prev + 1e-12);
            prev = weight;
        }
    }

    /// The flow table conserves packets: every observed IP packet lands in
    /// exactly one emitted record — in timestamp order or not, across idle
    /// sweeps and capacity evictions, with the odd packet stamped at the
    /// ends of the clock's range.
    #[test]
    fn flow_table_conserves_packets(
        specs in proptest::collection::vec(
            (1u8..6, 1u16..6, 6u8..11, 1u16..4, 0u64..400_000_000, 0u8..40),
            1..200,
        ),
        ordered in any::<bool>(),
        max_flows in 4usize..200,
    ) {
        let mut specs = specs;
        if ordered {
            specs.sort_by_key(|s| s.4);
        }
        let mut table = FlowTable::new(FlowTableConfig { max_flows, ..FlowTableConfig::default() });
        let mut emitted = Vec::new();
        let mut observed = 0u64;
        for (src, sport, dst, dport, micros, extreme) in specs {
            let micros = match extreme {
                0 if !ordered => u64::MAX,
                1 if !ordered => 0,
                _ => micros,
            };
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(src as u32), MacAddr::from_host_id(dst as u32))
                .ipv4(Ipv4Addr::new(10, 0, 0, src), Ipv4Addr::new(10, 0, 0, dst))
                .udp(sport * 100, dport * 10)
                .payload(&[0; 10])
                .build(Timestamp::from_micros(micros));
            let parsed = ParsedPacket::parse(&p).unwrap();
            observed += 1;
            emitted.extend(table.observe(&parsed));
            prop_assert!(table.active_flows() <= max_flows);
        }
        prop_assert_eq!(table.flows_emitted(), emitted.len() as u64);
        emitted.extend(table.flush());
        let total: u64 = emitted.iter().map(|r| r.total_packets()).sum();
        prop_assert_eq!(total, observed);
        prop_assert_eq!(table.flows_emitted(), emitted.len() as u64);
    }

    /// Flow features are always finite, regardless of flow shape.
    #[test]
    fn flow_features_always_finite(
        count in 1usize..30,
        payloads in proptest::collection::vec(0usize..1400, 1..30),
        gap_micros in 1u64..1_000_000,
    ) {
        let mut table = FlowTable::new(FlowTableConfig::default());
        for i in 0..count {
            let payload = payloads[i % payloads.len()];
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(1), MacAddr::from_host_id(2))
                .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
                .tcp(5000, 443, TcpFlags::ACK)
                .payload_len(payload)
                .build(Timestamp::from_micros(i as u64 * gap_micros));
            table.observe(&ParsedPacket::parse(&p).unwrap());
        }
        for record in table.flush() {
            let features = FlowFeatures::from_record(&record);
            for v in features.as_slice() {
                prop_assert!(v.is_finite());
            }
        }
    }

    /// AfterImage always yields exactly `AFTERIMAGE_FEATURES` finite features.
    #[test]
    fn afterimage_shape_is_stable(
        packets in proptest::collection::vec(
            (1u8..10, 1u16..2000, 10u8..20, 1u16..100, 0usize..1400),
            1..100,
        ),
    ) {
        let mut extractor = AfterImage::new(AfterImageConfig::default());
        let mut features = Vec::new();
        for (i, (src, sport, dst, dport, len)) in packets.iter().enumerate() {
            let p = PacketBuilder::new()
                .ethernet(MacAddr::from_host_id(*src as u32), MacAddr::from_host_id(*dst as u32))
                .ipv4(Ipv4Addr::new(10, 0, 0, *src), Ipv4Addr::new(10, 0, 1, *dst))
                .udp(*sport, *dport)
                .payload_len(*len)
                .build(Timestamp::from_micros(i as u64 * 137));
            extractor.update_into(&ParsedPacket::parse(&p).unwrap(), &mut features);
            prop_assert_eq!(features.len(), AFTERIMAGE_FEATURES);
            for v in &features {
                prop_assert!(v.is_finite());
            }
        }
    }
}
