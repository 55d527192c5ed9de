//! Single-function measurements of layers the stage replay cannot isolate:
//! workload generation, the feeder→shard channel, flow-feature derivation,
//! normalisation, the matmul kernels and threshold calibration. Each is a
//! plain timing loop around one `pub` function with inputs and results
//! passed through `black_box`; each takes well under a second, so every
//! traced run measures all of them.

use std::hint::black_box;
use std::time::Instant;

use crossbeam::channel;
use idsbench_core::threshold::ThresholdPolicy;
use idsbench_core::{LabeledFlow, LabeledPacket, ParsedView, TrafficModel};
use idsbench_flow::FlowFeatures;
use idsbench_nn::wide::matmul_f32_into;
use idsbench_nn::{Matrix, MatrixF32, MinMaxNormalizer};
use idsbench_stream::{StreamConfig, StreamItem};
use idsbench_trafficgen::ScenarioScale;

/// Nanoseconds per iteration of `body` over `rounds` rounds.
fn ns_per(rounds: u64, mut body: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for round in 0..rounds {
        body(round);
    }
    started.elapsed().as_nanos() as f64 / rounds.max(1) as f64
}

/// Draining one seeded realisation of native `syn-burst` through
/// `PacketStream::next`: (ns per packet, packets, attack share).
pub fn trafficgen_stream(seed: u64) -> (f64, u64, f64) {
    let model = idsbench_trafficgen::spec("syn-burst")
        .expect("syn-burst is in the registry")
        .build(ScenarioScale::Full);
    let started = Instant::now();
    let (mut packets, mut attacks) = (0u64, 0u64);
    for packet in model.stream(seed) {
        packets += 1;
        attacks += u64::from(black_box(&packet).is_attack());
    }
    let nanos = started.elapsed().as_nanos() as f64;
    (nanos / packets.max(1) as f64, packets, attacks as f64 / packets.max(1) as f64)
}

/// `TrafficModel::materialize` over the five legacy (Table II) specs:
/// ns per packet over all of them.
pub fn datasets_materialize(seed: u64) -> f64 {
    let models = idsbench_trafficgen::table4_models(ScenarioScale::Full);
    let started = Instant::now();
    let packets: usize =
        models.iter().map(|model| black_box(TrafficModel::materialize(&**model, seed)).len()).sum();
    started.elapsed().as_nanos() as f64 / packets.max(1) as f64
}

/// One feeder→shard hop: a default-size batch of `StreamItem`s sent into
/// and received from a default-capacity bounded channel, per packet.
pub fn stream_channel(views: &[ParsedView]) -> f64 {
    let config = StreamConfig::default();
    let (tx, rx) = channel::bounded::<Vec<StreamItem>>(config.channel_capacity);
    let mut batch: Vec<StreamItem> = views
        .iter()
        .cycle()
        .take(config.batch_size)
        .enumerate()
        .map(|(seq, view)| StreamItem { seq: seq as u64, view: view.clone() })
        .collect();
    let rounds = 200_000;
    let per_batch = ns_per(rounds, |_| {
        tx.send(std::mem::take(&mut batch)).expect("receiver alive");
        batch = rx.recv().expect("sender alive");
    });
    black_box(&batch);
    per_batch / config.batch_size as f64
}

/// `FlowFeatures::from_record`, ns per flow.
pub fn flow_features(flows: &[LabeledFlow]) -> f64 {
    if flows.is_empty() {
        return 0.0;
    }
    let rounds = 400_000;
    ns_per(rounds, |round| {
        let flow = &flows[round as usize % flows.len()];
        black_box(FlowFeatures::from_record(black_box(&flow.record)));
    })
}

/// `MinMaxNormalizer::transform_into` at AfterImage width, ns per row.
pub fn nn_normalise() -> f64 {
    const WIDTH: usize = 100;
    let mut normalizer = MinMaxNormalizer::new(WIDTH);
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|r| (0..WIDTH).map(|c| ((r * 31 + c * 17) % 97) as f64 * 0.37).collect())
        .collect();
    for row in &rows {
        normalizer.observe(row);
    }
    let mut out = Vec::with_capacity(WIDTH);
    ns_per(1_000_000, |round| {
        normalizer.transform_into(black_box(&rows[round as usize % rows.len()]), &mut out);
        black_box(&out);
    })
}

const MATMUL_FLOPS: f64 = 2.0 * 100.0 * 50.0;

/// `Matrix::matmul_into`, 1×100 · 100×50 (the HELAD-shaped product), GFLOP/s.
pub fn nn_matmul_f64() -> f64 {
    let a = Matrix::xavier(1, 100, 7);
    let b = Matrix::xavier(100, 50, 8);
    let mut out = Matrix::zeros(1, 50);
    a.matmul_into(&b, &mut out);
    let ns = ns_per(200_000, |_| {
        black_box(&a).matmul_into(black_box(&b), &mut out);
        black_box(&out);
    });
    MATMUL_FLOPS / ns
}

/// The same product through `wide::matmul_f32_into`, GFLOP/s.
pub fn nn_matmul_f32() -> f64 {
    let a = MatrixF32::from_f64(&Matrix::xavier(1, 100, 7));
    let b = MatrixF32::from_f64(&Matrix::xavier(100, 50, 8));
    let mut out = MatrixF32::zeros(1, 50);
    matmul_f32_into(&a, &b, &mut out);
    let ns = ns_per(200_000, |_| {
        matmul_f32_into(black_box(&a), black_box(&b), &mut out);
        black_box(&out);
    });
    MATMUL_FLOPS / ns
}

/// `ThresholdPolicy::calibrate` (the default policy) over 20,000 scores
/// with a 10 % attack share, ns per score.
pub fn core_calibrate() -> f64 {
    const SCORES: usize = 20_000;
    let scores: Vec<f64> = (0..SCORES).map(|i| ((i * 7919) % 10_007) as f64 / 10_007.0).collect();
    let labels: Vec<bool> = scores.iter().map(|&score| score > 0.9).collect();
    let policy = ThresholdPolicy::default();
    let rounds = 3;
    ns_per(rounds, |_| {
        black_box(policy.calibrate(black_box(&scores), black_box(&labels)));
    }) / SCORES as f64
}

/// Parses `packets` (a helper for callers that need views or flows).
pub fn parse_all(packets: &[LabeledPacket]) -> Vec<ParsedView> {
    packets.iter().cloned().map(ParsedView::from_packet).collect()
}
