//! Property-based tests for Kitsune's components: the feature mapper's
//! clustering contract and KitNET's score behaviour under arbitrary
//! bounded feature streams.

use idsbench_kitsune::feature_mapper::CorrelationTracker;
use idsbench_kitsune::kitnet::{KitNet, KitNetConfig};
use proptest::prelude::*;

proptest! {
    /// Clustering is a partition for any observed data and any size cap:
    /// every feature appears exactly once and no cluster exceeds the cap.
    #[test]
    fn clustering_is_a_partition(
        width in 2usize..24,
        cap in 1usize..12,
        rows in proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, 24), 2..40),
    ) {
        let mut tracker = CorrelationTracker::new(width);
        for row in &rows {
            tracker.observe(&row[..width]);
        }
        let clusters = tracker.cluster(cap);
        let mut seen: Vec<usize> = clusters.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..width).collect();
        prop_assert_eq!(seen, expected, "clustering must partition the features");
        prop_assert!(clusters.iter().all(|c| c.len() <= cap));
    }

    /// Correlation estimates are symmetric and bounded.
    #[test]
    fn correlation_is_symmetric_and_bounded(
        rows in proptest::collection::vec(proptest::collection::vec(-5.0f64..5.0, 4), 3..50),
    ) {
        let mut tracker = CorrelationTracker::new(4);
        for row in &rows {
            tracker.observe(row);
        }
        for i in 0..4 {
            for j in 0..4 {
                let c = tracker.correlation(i, j);
                prop_assert!((-1.0..=1.0).contains(&c), "corr({i},{j}) = {c}");
                prop_assert!((c - tracker.correlation(j, i)).abs() < 1e-12);
            }
        }
    }

    /// KitNET scores stay finite and non-negative for any bounded stream,
    /// in both training and execution modes.
    #[test]
    fn kitnet_scores_stay_sane(
        samples in proptest::collection::vec(proptest::collection::vec(0.0f64..1000.0, 6), 4..80),
        seed in any::<u64>(),
    ) {
        let mut net = KitNet::new(
            vec![vec![0, 1, 2], vec![3, 4, 5]],
            6,
            KitNetConfig { seed },
        );
        let split = samples.len() / 2;
        for sample in &samples[..split] {
            let s = net.train(sample);
            prop_assert!(s.is_finite() && s >= 0.0);
        }
        net.freeze();
        for sample in &samples[split..] {
            let s = net.execute(sample);
            prop_assert!(s.is_finite() && s >= 0.0);
        }
        prop_assert_eq!(net.trained_samples() as usize, split);
        prop_assert_eq!(net.executed_samples() as usize, samples.len() - split);
    }

    /// A duplicated feature (perfect correlation) ends up in the same
    /// cluster as its source whenever the cap allows pairing.
    #[test]
    fn duplicated_features_cluster_together(
        base in proptest::collection::vec(-10.0f64..10.0, 16..60),
        noise_scale in 0.0f64..0.01,
    ) {
        let mut tracker = CorrelationTracker::new(3);
        for (i, &x) in base.iter().enumerate() {
            // Feature 2 is decorrelated pseudo-noise.
            let other = ((i * 2654435761) % 97) as f64;
            tracker.observe(&[x, x + noise_scale * other, other]);
        }
        let clusters = tracker.cluster(2);
        let home = clusters.iter().find(|c| c.contains(&0)).expect("feature 0 somewhere");
        prop_assert!(home.contains(&1), "correlated pair split apart: {clusters:?}");
    }
}
