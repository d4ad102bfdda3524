//! The benchmark's workloads: one training shape each, and the seeded
//! inputs it trains on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vf2_datagen::vertical::{split_vertical, VerticalScenario};
use vf2_gbdt::binning::BinningConfig;
use vf2_gbdt::data::{Dataset, FeatureColumn};
use vf2_gbdt::loss::sigmoid;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::config::{CryptoConfig, TrainConfig};

/// Master seed of every training call (keys, encryption randomness,
/// exponent jitter). It is fixed so that key generation, which `setup_s`
/// measures, does the same prime search in every run.
pub const KEY_SEED: u64 = 42;

/// One training shape. Only these fields differ from
/// `TrainConfig::default()`, so a changed default shows up as a measured
/// change.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub key_bits: u64,
    pub rows: usize,
    /// Feature count of each host, in party order.
    pub host_features: &'static [usize],
    pub guest_features: usize,
    pub layers: usize,
    pub bins: usize,
}

/// Trees per training call. The first tree's gradients (±0.5, 0.25) are
/// exact in the fixed-point encoding, so host gains equal the plaintext
/// gains and ties between equal gains break as in the co-located trainer;
/// from the second tree on, decrypted sums carry rounding and an exact tie
/// can break either way, which flips a subtree and fails the losslessness
/// check on some datasets. One tree keeps that check exact.
pub const TREES: usize = 1;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "enc2048-2p",
        key_bits: 2048,
        rows: 200,
        host_features: &[5],
        guest_features: 5,
        layers: 4,
        bins: 16,
    },
    Workload {
        name: "hist1024-2p",
        key_bits: 1024,
        rows: 400,
        host_features: &[8],
        guest_features: 4,
        layers: 6,
        bins: 32,
    },
    Workload {
        name: "fanin1024-8h",
        key_bits: 1024,
        rows: 400,
        host_features: &[1, 1, 2, 2, 3, 3, 4, 4],
        guest_features: 4,
        layers: 5,
        bins: 16,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn gbdt(&self) -> GbdtParams {
        GbdtParams {
            num_trees: TREES,
            max_layers: self.layers,
            binning: BinningConfig { num_bins: self.bins, ..Default::default() },
            ..Default::default()
        }
    }

    /// The training configuration: the workload's shape on top of
    /// `TrainConfig::default()` (protocol, packing, scheduler, trace
    /// settings and the paper's 300 Mbps / 10 ms WAN all stay default).
    pub fn config(&self, workers: usize) -> TrainConfig {
        TrainConfig {
            gbdt: self.gbdt(),
            crypto: CryptoConfig::Paillier { key_bits: self.key_bits },
            workers,
            seed: KEY_SEED,
            ..TrainConfig::default()
        }
    }

    /// The vertical split of the workload's dataset with its rows shuffled
    /// by `seed` (hosts take the leading columns, the guest the rest and the
    /// labels), and the joined data with the guest's columns first and then
    /// each host's in party order: the order in which federated split
    /// finding breaks ties between equal gains, so the co-located trainer
    /// breaks them alike.
    pub fn inputs(&self, seed: u64) -> (Dataset, VerticalScenario) {
        let features = self.host_features.iter().sum::<usize>() + self.guest_features;
        let data = generate(self.rows, features, seed);
        let split = split_vertical(&data, self.host_features);
        let hosts = features - self.guest_features;
        let order: Vec<usize> = (hosts..features).chain(0..hosts).collect();
        (data.select_features(&order, true), split)
    }
}

/// Seed of every workload's dataset.
const DATA_SEED: u64 = 0x05ee_d0f1_abe1;

/// Label flips, as a share of rows.
const LABEL_NOISE: f64 = 0.05;

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-300);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Dense Gaussian features and labels drawn from a logistic model over all
/// features with 5% of them flipped, from [`DATA_SEED`]; `seed` shuffles
/// the rows. Every seed therefore trains the same trees and does the same
/// work, so the spread between seeds is the machine's, not the data's.
fn generate(rows: usize, features: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let weights: Vec<f64> = (0..features)
        .map(|_| {
            let w: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            w.signum() * (0.5 + 0.5 * w.abs())
        })
        .collect();
    // Margins then have standard deviation 2.
    let scale = 2.0 / weights.iter().map(|w| w * w).sum::<f64>().sqrt();
    let columns: Vec<Vec<f32>> =
        (0..features).map(|_| (0..rows).map(|_| gaussian(&mut rng) as f32).collect()).collect();
    let labels: Vec<f32> = (0..rows)
        .map(|r| {
            let margin: f64 = weights.iter().zip(&columns).map(|(w, c)| w * c[r] as f64).sum();
            let y = rng.gen::<f64>() < sigmoid(margin * scale);
            let flip = rng.gen::<f64>() < LABEL_NOISE;
            if y != flip {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    // Fisher-Yates shuffle of the row order.
    let mut perm: Vec<usize> = (0..rows).collect();
    let mut shuffle = StdRng::seed_from_u64(seed);
    for i in (1..rows).rev() {
        perm.swap(i, shuffle.gen_range(0..=i));
    }
    let columns =
        columns.iter().map(|c| FeatureColumn::Dense(perm.iter().map(|&r| c[r]).collect()));
    Dataset::new(rows, columns.collect(), Some(perm.iter().map(|&r| labels[r]).collect()))
}
