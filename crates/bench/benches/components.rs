//! Criterion micro/macro benchmarks for the substrates on the evaluation
//! hot path: packet parsing, pcap I/O, flow assembly, AfterImage feature
//! extraction, KitNET training/execution, batch-of-rows scoring, the
//! activation kernels and the LSTM forward, one training step of each model
//! shape, and scenario generation.
//!
//! ```text
//! cargo bench -p idsbench-bench
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use idsbench_core::Dataset;
use idsbench_datasets::{scenarios, ScenarioScale};
use idsbench_flow::{AfterImage, AfterImageConfig, FlowTable, FlowTableConfig};
use idsbench_kitsune::kitnet::{KitNet, KitNetConfig};
use idsbench_net::{pcap, MacAddr, Packet, PacketBuilder, ParsedPacket, Timestamp};
use idsbench_nn::{
    Activation, Adam, Autoencoder, AutoencoderConfig, Loss, LstmRegressor, LstmRegressorConfig,
    Matrix, MlpBuilder, Workspace,
};
use std::net::Ipv4Addr;

/// A realistic packet workload: one Tiny UNSW realisation (~2-3k packets of
/// mixed enterprise traffic).
fn workload() -> Vec<Packet> {
    scenarios::unsw_nb15(ScenarioScale::Tiny).generate(42).into_iter().map(|lp| lp.packet).collect()
}

fn bench_parsing(c: &mut Criterion) {
    let packets = workload();
    let mut group = c.benchmark_group("net");
    group.throughput(Throughput::Elements(packets.len() as u64));
    group.bench_function("parse_packets", |b| {
        b.iter(|| {
            let mut payload = 0usize;
            for packet in &packets {
                payload += ParsedPacket::parse(packet).map(|p| p.payload_len).unwrap_or(0);
            }
            payload
        })
    });
    group.finish();
}

fn bench_pcap(c: &mut Criterion) {
    let packets = workload();
    let image = pcap::write_all(&packets).unwrap();
    let mut group = c.benchmark_group("pcap");
    group.throughput(Throughput::Bytes(image.len() as u64));
    group.bench_function("write", |b| b.iter(|| pcap::write_all(&packets).unwrap().len()));
    group.bench_function("read", |b| b.iter(|| pcap::read_all(&image).unwrap().len()));
    group.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    let parsed: Vec<ParsedPacket> =
        workload().iter().map(|p| ParsedPacket::parse(p).unwrap()).collect();
    let mut group = c.benchmark_group("flow");
    group.throughput(Throughput::Elements(parsed.len() as u64));
    group.bench_function("table_observe", |b| {
        b.iter_batched(
            || FlowTable::new(FlowTableConfig::default()),
            |mut table| {
                let mut emitted = 0usize;
                for packet in &parsed {
                    emitted += table.observe(packet).len();
                }
                emitted + table.flush().len()
            },
            BatchSize::SmallInput,
        )
    });
    // The bot-iot shape, where the table's cost used to hide: one- and
    // two-packet flows on fresh 5-tuples at 180 packets per trace-second, so
    // ~19k flows sit waiting out the 120 s idle timeout while ~160 of them
    // expire at every once-per-second sweep. `table_observe` above tracks a
    // few hundred flows and cannot see a cost that grows with the open set.
    let churn = churn_workload(60_000);
    group.throughput(Throughput::Elements(churn.len() as u64));
    group.bench_function("table_observe_churn", |b| {
        b.iter_batched(
            || FlowTable::new(FlowTableConfig::default()),
            |mut table| {
                let mut emitted = 0usize;
                for packet in &churn {
                    table.observe_with(packet, |_| emitted += 1);
                }
                emitted + table.active_flows()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// `packets` UDP packets, 180 per trace-second; of every ten, nine open a
/// flow on a fresh source address and the tenth is the reply to the first.
fn churn_workload(packets: u32) -> Vec<ParsedPacket> {
    let server = (MacAddr::from_host_id(1), Ipv4Addr::new(10, 0, 0, 1));
    (0..packets)
        .map(|i| {
            let reply = i % 10 == 9;
            let flow = if reply { i - 9 } else { i };
            let client = (MacAddr::from_host_id(2), Ipv4Addr::from(0x0b00_0000 + flow));
            let port = 1024 + (flow % 60_000) as u16;
            let builder = PacketBuilder::new();
            let builder = if reply {
                builder.ethernet(server.0, client.0).ipv4(server.1, client.1).udp(53, port)
            } else {
                builder.ethernet(client.0, server.0).ipv4(client.1, server.1).udp(port, 53)
            };
            let ts = Timestamp::from_micros(u64::from(i) * 1_000_000 / 180);
            ParsedPacket::parse(&builder.payload_len(32).build(ts)).unwrap()
        })
        .collect()
}

fn bench_afterimage(c: &mut Criterion) {
    let parsed: Vec<ParsedPacket> =
        workload().iter().map(|p| ParsedPacket::parse(p).unwrap()).collect();
    let mut group = c.benchmark_group("afterimage");
    group.throughput(Throughput::Elements(parsed.len() as u64));
    group.bench_function("extract_100_features", |b| {
        b.iter_batched(
            || AfterImage::new(AfterImageConfig::default()),
            |mut extractor| {
                let mut acc = 0.0;
                for packet in &parsed {
                    acc += extractor.update(packet)[0];
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_kitnet(c: &mut Criterion) {
    // Pre-extract a feature stream once.
    let parsed: Vec<ParsedPacket> =
        workload().iter().map(|p| ParsedPacket::parse(p).unwrap()).collect();
    let mut extractor = AfterImage::new(AfterImageConfig::default());
    let features: Vec<Vec<f64>> = parsed.iter().map(|p| extractor.update(p)).collect();
    let clusters: Vec<Vec<usize>> =
        (0..100).collect::<Vec<_>>().chunks(10).map(<[usize]>::to_vec).collect();

    let mut group = c.benchmark_group("kitnet");
    group.throughput(Throughput::Elements(features.len() as u64));
    group.bench_function("train", |b| {
        b.iter_batched(
            || KitNet::new(clusters.clone(), 100, KitNetConfig::default()),
            |mut net| {
                let mut acc = 0.0;
                for f in &features {
                    acc += net.train(f);
                }
                acc
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("execute", |b| {
        let mut net = KitNet::new(clusters.clone(), 100, KitNetConfig::default());
        for f in &features {
            net.train(f);
        }
        net.freeze();
        b.iter(|| {
            let mut net = net.clone();
            let mut acc = 0.0;
            for f in &features {
                acc += net.execute(f);
            }
            acc
        })
    });
    group.finish();
}

/// The number nothing else shows: what a batch of one costs against a real
/// batch. The shape is the Kitsune ensemble at its reference defaults — ten
/// 10-feature autoencoders plus the 10-input output autoencoder — scored
/// over `M` staged rows; throughput is rows per second.
fn bench_score_rows(c: &mut Criterion) {
    for m in [1, 64] {
        score_rows_case(c, m);
    }
}

fn score_rows_case(c: &mut Criterion, m: usize) {
    let ensemble: Vec<Autoencoder> = (0..11)
        .map(|seed| {
            let mut ae = Autoencoder::new(10, AutoencoderConfig { seed, ..Default::default() });
            ae.freeze();
            ae
        })
        .collect();
    let rows = Matrix::from_fn(m, 10, |r, c| ((r * 10 + c) as f64 * 0.37).sin().abs());
    let (mut ws, mut scores) = (Workspace::new(), Vec::new());
    let mut group = c.benchmark_group("nn");
    group.throughput(Throughput::Elements(m as u64));
    group.bench_function(&format!("score_rows/m{m}"), |b| {
        b.iter(|| {
            scores.clear();
            for ae in &ensemble {
                ae.score_rows_with(&rows, &mut scores, &mut ws);
            }
            scores.iter().sum::<f64>()
        })
    });
    group.finish();
}

/// The activation kernels on their own, at the slice lengths HELAD's LSTM
/// hands them (`h` = 12 cells, `4h` = 48 gates) and at a whole-matrix
/// length; throughput is elements per second. Inputs span ±4, where gate
/// pre-activations live.
fn bench_activation(c: &mut Criterion) {
    for n in [12, 48, 1536] {
        activation_case(c, n);
    }
}

fn activation_case(c: &mut Criterion, n: usize) {
    let inputs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7311).sin() * 4.0).collect();
    let mut buffer = inputs.clone();
    let mut group = c.benchmark_group("nn/activation");
    group.throughput(Throughput::Elements(n as u64));
    for (name, activation) in [("sigmoid", Activation::Sigmoid), ("tanh", Activation::Tanh)] {
        group.bench_function(&format!("{name}/n{n}"), |b| {
            b.iter(|| {
                buffer.copy_from_slice(&inputs);
                activation.apply(criterion::black_box(&mut buffer[..]));
                buffer[n - 1]
            })
        });
    }
    group.finish();
}

/// HELAD's LSTM at scoring time: hidden width 12 over 12-step score windows,
/// one window and a stream batch of 32; throughput is windows per second.
fn bench_lstm_predict(c: &mut Criterion) {
    for m in [1, 32] {
        lstm_predict_case(c, m);
    }
}

fn lstm_predict_case(c: &mut Criterion, m: usize) {
    let mut lstm =
        LstmRegressor::new(1, LstmRegressorConfig { hidden_size: 12, ..Default::default() });
    lstm.freeze();
    let windows = Matrix::from_fn(m, 12, |r, c| ((r * 12 + c) as f64 * 0.37).sin().abs());
    let (mut ws, mut predictions) = (Workspace::new(), Vec::new());
    let mut group = c.benchmark_group("nn");
    group.throughput(Throughput::Elements(m as u64));
    group.bench_function(&format!("lstm_predict/m{m}"), |b| {
        b.iter(|| {
            predictions.clear();
            lstm.predict_windows_with(&windows, &mut predictions, &mut ws);
            predictions.iter().sum::<f64>()
        })
    });
    group.finish();
}

/// One steady-state training step at each shape the Table IV grid trains:
/// HELAD's 100→50 autoencoder, a KitNET ensemble member (10→8), HELAD's
/// LSTM (hidden 12 over a 12-step score window) and the DNN's MLP on a
/// 64-flow mini-batch. Inputs cycle through pools of hash noise: a model
/// stepped on one fixed sample converges, its gradients underflow, and
/// the case ends up timing Adam on denormals.
fn bench_train(c: &mut Criterion) {
    let noise = |i: usize| ((i as f64 * 12.9898).sin() * 43_758.545_3).fract().abs();
    let mut group = c.benchmark_group("nn/train");
    for (name, width, hidden_ratio) in [("ae_100x50", 100, 0.5), ("ae_10x8", 10, 0.75)] {
        let mut ae =
            Autoencoder::new(width, AutoencoderConfig { hidden_ratio, ..Default::default() });
        let pool: Vec<f64> = (0..256 * width).map(noise).collect();
        let mut samples = pool.chunks_exact(width).cycle();
        group.bench_function(name, |b| {
            b.iter(|| ae.train_sample(samples.next().expect("cycle never ends")))
        });
    }

    let mut lstm =
        LstmRegressor::new(1, LstmRegressorConfig { hidden_size: 12, ..Default::default() });
    let history: Vec<f64> = (0..4096 + 13).map(noise).collect();
    let mut starts = (0..4096).step_by(4).cycle();
    group.bench_function("lstm_h12_t12", |b| {
        b.iter(|| {
            let start = starts.next().expect("cycle never ends");
            lstm.train_window(&history[start..start + 12], history[start + 12])
        })
    });

    let width = idsbench_flow::FLOW_FEATURE_COUNT;
    let mut mlp = MlpBuilder::new(width)
        .layer(64, Activation::Relu)
        .layer(48, Activation::Relu)
        .layer(32, Activation::Relu)
        .layer(1, Activation::Sigmoid)
        .build();
    let pool: Vec<(Matrix, Matrix)> = (0..64)
        .map(|batch| {
            let x = Matrix::from_fn(64, width, |r, c| noise((batch * 64 + r) * width + c));
            let y = Matrix::from_fn(64, 1, |r, _| noise(batch * 64 + r + 7_000_000).round());
            (x, y)
        })
        .collect();
    let mut opt = Adam::new(0.005);
    for (x, y) in pool.iter().take(8) {
        mlp.train_batch(x, y, Loss::BinaryCrossEntropy, &mut opt);
    }
    // Every sample replays the same 64 steps from the same warmed state (the
    // reported time is per 64-step pass): left running, dead ReLU units let
    // Adam's first moments decay into denormals and samples turn bimodal.
    group.throughput(Throughput::Elements(pool.len() as u64));
    group.bench_function("mlp_64x[64,48,32,1]", |b| {
        b.iter_batched(
            || (mlp.clone(), opt.clone()),
            |(mut mlp, mut opt)| {
                pool.iter()
                    .map(|(x, y)| mlp.train_batch(x, y, Loss::BinaryCrossEntropy, &mut opt))
                    .sum::<f64>()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("datasets");
    group.bench_function("generate_unsw_tiny", |b| {
        let scenario = scenarios::unsw_nb15(ScenarioScale::Tiny);
        b.iter(|| scenario.generate(7).len())
    });
    group.bench_function("generate_bot_iot_tiny", |b| {
        let scenario = scenarios::bot_iot(ScenarioScale::Tiny);
        b.iter(|| scenario.generate(7).len())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parsing,
        bench_pcap,
        bench_flow_table,
        bench_afterimage,
        bench_kitnet,
        bench_score_rows,
        bench_activation,
        bench_lstm_predict,
        bench_train,
        bench_generation
}
criterion_main!(benches);
