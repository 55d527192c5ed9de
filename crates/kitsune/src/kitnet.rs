//! KitNET: the ensemble of small autoencoders at the heart of Kitsune.
//!
//! Each feature cluster (from the feature mapper) feeds one small
//! autoencoder; the vector of per-cluster reconstruction RMSEs feeds an
//! *output* autoencoder whose RMSE is the final anomaly score. All training
//! is online single-sample SGD on min-max-normalized inputs, exactly as in
//! the reference implementation.

use idsbench_nn::{Autoencoder, AutoencoderConfig, Matrix, MinMaxNormalizer, Workspace};

/// Hidden width of every autoencoder as a fraction of its input width (the
/// reference β).
const HIDDEN_RATIO: f64 = 0.75;

/// SGD learning rate of every autoencoder (the reference default).
const LEARNING_RATE: f64 = 0.1;

/// Configuration for [`KitNet`]; the architecture and learning rate are the
/// reference constants.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KitNetConfig {
    /// Weight-initialization seed.
    pub seed: u64,
}

/// The KitNET ensemble (see module docs).
///
/// The per-sample data path is allocation-free in steady state: the
/// cluster partition is precomputed at construction time as a flattened
/// index map, and normalization, partitioning, per-cluster RMSEs, and the
/// output-layer input all write into scratch buffers owned by the ensemble
/// (plus one shared [`Workspace`] for every autoencoder forward pass).
#[derive(Debug, Clone)]
pub struct KitNet {
    clusters: Vec<Vec<usize>>,
    /// Concatenated cluster indices: partitioning a training sample is one
    /// gather pass `part_buf[i] = x[flat[i]]`, no per-cluster `Vec`s.
    flat: Vec<usize>,
    /// Cluster `k` owns `part_buf[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<usize>,
    ensemble: Vec<Autoencoder>,
    output: Autoencoder,
    input_norm: MinMaxNormalizer,
    score_norm: MinMaxNormalizer,
    trained: u64,
    executed: u64,
    // Scratch (reused every call, allocation-free once warm).
    norm_buf: Vec<f64>,
    part_buf: Vec<f64>,
    rmse_buf: Vec<f64>,
    scaled_buf: Vec<f64>,
    /// Per-cluster RMSEs of the current batch, cluster-major: member `k`'s
    /// `M` scores sit at `[k·M, (k+1)·M)`.
    rmse_cols: Vec<f64>,
    /// Final scores of the current batch.
    scores: Vec<f64>,
    /// Ensemble member `k`'s normalized input rows for the current batch.
    cluster_rows: Vec<Matrix>,
    /// The output autoencoder's input rows.
    scaled_rows: Matrix,
    ws: Workspace,
}

impl KitNet {
    /// Builds an ensemble for the given feature clusters over
    /// `feature_width`-dimensional input vectors.
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is empty, any cluster is empty, or any index is
    /// out of range for `feature_width`.
    pub fn new(clusters: Vec<Vec<usize>>, feature_width: usize, config: KitNetConfig) -> Self {
        assert!(!clusters.is_empty(), "ensemble needs at least one cluster");
        for cluster in &clusters {
            assert!(!cluster.is_empty(), "clusters must be non-empty");
            assert!(cluster.iter().all(|&i| i < feature_width), "cluster index out of range");
        }
        let ensemble: Vec<Autoencoder> = clusters
            .iter()
            .enumerate()
            .map(|(i, cluster)| {
                Autoencoder::new(
                    cluster.len(),
                    AutoencoderConfig {
                        hidden_ratio: HIDDEN_RATIO,
                        learning_rate: LEARNING_RATE,
                        seed: config.seed.wrapping_add(i as u64 * 7877),
                    },
                )
            })
            .collect();
        let output = Autoencoder::new(
            clusters.len(),
            AutoencoderConfig {
                hidden_ratio: HIDDEN_RATIO,
                learning_rate: LEARNING_RATE,
                seed: config.seed ^ 0x00ff_00ff,
            },
        );
        let score_norm = MinMaxNormalizer::new(clusters.len());
        let mut offsets = Vec::with_capacity(clusters.len() + 1);
        offsets.push(0);
        let mut flat = Vec::new();
        for cluster in &clusters {
            flat.extend_from_slice(cluster);
            offsets.push(flat.len());
        }
        let cluster_count = clusters.len();
        KitNet {
            clusters,
            part_buf: vec![0.0; flat.len()],
            flat,
            offsets,
            ensemble,
            output,
            input_norm: MinMaxNormalizer::new(feature_width),
            score_norm,
            trained: 0,
            executed: 0,
            norm_buf: Vec::with_capacity(feature_width),
            rmse_buf: vec![0.0; cluster_count],
            scaled_buf: Vec::with_capacity(cluster_count),
            rmse_cols: Vec::new(),
            scores: Vec::new(),
            cluster_rows: Vec::new(),
            scaled_rows: Matrix::default(),
            ws: Workspace::new(),
        }
    }

    /// The fitted feature clusters, one per ensemble autoencoder.
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Samples consumed in training mode.
    pub fn trained_samples(&self) -> u64 {
        self.trained
    }

    /// Samples scored in execution mode.
    pub fn executed_samples(&self) -> u64 {
        self.executed
    }

    /// One online training step (updates normalizers and all autoencoders);
    /// returns the pre-update anomaly score.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn train(&mut self, x: &[f64]) -> f64 {
        self.input_norm.observe_and_transform_into(x, &mut self.norm_buf);
        for (slot, &index) in self.part_buf.iter_mut().zip(&self.flat) {
            *slot = self.norm_buf[index];
        }
        let KitNet { ensemble, part_buf, offsets, rmse_buf, .. } = self;
        for (k, ae) in ensemble.iter_mut().enumerate() {
            rmse_buf[k] = ae.train_sample(&part_buf[offsets[k]..offsets[k + 1]]);
        }
        self.trained += 1;
        self.score_norm.observe(&self.rmse_buf);
        self.score_norm.transform_into(&self.rmse_buf, &mut self.scaled_buf);
        self.output.train_sample(&self.scaled_buf)
    }

    /// Scores one sample without updating weights (execution phase): a
    /// one-row [`KitNet::execute_batch`]. The input normalizer still
    /// widens, matching the reference behaviour of normalizing by the range
    /// observed so far. Allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width.
    pub fn execute(&mut self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.input_norm.width(), "vector width mismatch");
        self.score_rows(x);
        self.scores[0]
    }

    /// Scores the `M` feature vectors in `xs` (one per row), appending one
    /// score per row to `out`. Staging — the order-sensitive
    /// input-normalizer updates — runs sequentially per row first; the pure
    /// autoencoder forwards then run batched per cluster, so each ensemble
    /// member streams its weights through cache once per *batch* instead of
    /// once per *packet*.
    ///
    /// A score never depends on where the batch was cut: any split of the
    /// same rows across calls gives bitwise the same scores.
    ///
    /// # Panics
    ///
    /// Panics if `xs` does not have the feature width as its column count.
    pub fn execute_batch(&mut self, xs: &Matrix, out: &mut Vec<f64>) {
        assert_eq!(xs.cols(), self.input_norm.width(), "vector width mismatch");
        self.score_rows(xs.as_slice());
        out.extend_from_slice(&self.scores);
    }

    /// Scores the row-major `rows` into `self.scores`.
    fn score_rows(&mut self, rows: &[f64]) {
        let (clusters, width) = (self.ensemble.len(), self.input_norm.width());
        let m = rows.len() / width;
        // Sequential staging: normalizer observation order is part of the
        // scoring semantics. Each normalized row is gathered straight into
        // its clusters' input rows through the precomputed index map.
        self.cluster_rows.resize_with(clusters, Matrix::default);
        for (staged, members) in self.cluster_rows.iter_mut().zip(&self.clusters) {
            staged.reshape(m, members.len());
        }
        for (i, x) in rows.chunks_exact(width).enumerate() {
            self.input_norm.observe_and_transform_into(x, &mut self.norm_buf);
            for (staged, members) in self.cluster_rows.iter_mut().zip(&self.clusters) {
                for (slot, &index) in staged.row_mut(i).iter_mut().zip(members) {
                    *slot = self.norm_buf[index];
                }
            }
        }
        // Pure scoring: one batch forward per ensemble member.
        self.rmse_cols.clear();
        for (ae, staged) in self.ensemble.iter().zip(&self.cluster_rows) {
            ae.score_rows_with(staged, &mut self.rmse_cols, &mut self.ws);
        }
        self.executed += m as u64;
        // Score normalization per row (transform only — no observation in
        // the execution phase), then the output autoencoder over the batch.
        self.scaled_rows.reshape(m, clusters);
        for i in 0..m {
            for (k, rmse) in self.rmse_buf.iter_mut().enumerate() {
                *rmse = self.rmse_cols[k * m + i];
            }
            self.score_norm.transform_into(&self.rmse_buf, &mut self.scaled_buf);
            self.scaled_rows.row_mut(i).copy_from_slice(&self.scaled_buf);
        }
        self.scores.clear();
        self.output.score_rows_with(&self.scaled_rows, &mut self.scores, &mut self.ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> KitNet {
        KitNet::new(vec![vec![0, 1], vec![2, 3]], 4, KitNetConfig::default())
    }

    #[test]
    fn training_lowers_scores_on_the_manifold() {
        let mut net = simple_net();
        let pattern = [10.0, 20.0, 5.0, 1.0];
        let other = [11.0, 19.0, 5.5, 1.2];
        for _ in 0..600 {
            net.train(&pattern);
            net.train(&other);
        }
        let on_manifold = net.execute(&[10.5, 19.5, 5.2, 1.1]);
        let off_manifold = net.execute(&[20.0, 1.0, 0.0, 9.0]);
        assert!(
            off_manifold > on_manifold,
            "anomaly {off_manifold} must exceed normal {on_manifold}"
        );
    }

    #[test]
    fn execute_does_not_update_weights() {
        let mut net = simple_net();
        for _ in 0..50 {
            net.train(&[1.0, 2.0, 3.0, 4.0]);
        }
        let a = net.execute(&[5.0, 5.0, 5.0, 5.0]);
        let b = net.execute(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a, b, "execution must be weight-pure");
        assert_eq!(net.executed_samples(), 2);
        assert_eq!(net.trained_samples(), 50);
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        let mut net = simple_net();
        for i in 0..100 {
            let x = [i as f64, (i * 2) as f64, (i % 7) as f64, 0.5];
            let s = net.train(&x);
            assert!(s.is_finite() && s >= 0.0);
        }
        let s = net.execute(&[1e9, -1e9, 0.0, 42.0]);
        assert!(s.is_finite() && s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "cluster index out of range")]
    fn out_of_range_cluster_panics() {
        let _ = KitNet::new(vec![vec![0, 7]], 4, KitNetConfig::default());
    }
}
