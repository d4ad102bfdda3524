//! Worker-count equivalence under real concurrency: with real Paillier,
//! a party's pool width decides only which threads run its encryption,
//! histogram build, pack and decrypt — never what they compute. Every
//! parallel call collects in index order and per-row randomness derives
//! from the row index, so the trained model must be bitwise identical at
//! any `workers`, under either GH-packing setting.

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::train_federated;
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::{split_even, VerticalScenario};
use vf2boost::gbdt::train::GbdtParams;

fn scenario(hosts: usize, seed: u64) -> VerticalScenario {
    let data = generate_classification(&SyntheticConfig {
        rows: 200,
        features: 5 * (hosts + 1),
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed,
    });
    split_even(&data, hosts + 1)
}

/// Trains with the given width and GH packing and returns the final
/// margins as bit patterns.
fn margins(s: &VerticalScenario, workers: usize, gh_packing: bool) -> Vec<u64> {
    let cfg = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 256 },
        gh_packing,
        workers,
        ..TrainConfig::for_tests()
    };
    let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
    let hosts: Vec<_> = s.hosts.iter().collect();
    out.model.predict_margin(&hosts, &s.guest).iter().map(|m| m.to_bits()).collect()
}

#[test]
fn two_hosts_train_bitwise_identical_models_at_any_worker_count() {
    let s = scenario(2, 41);
    for gh_packing in [false, true] {
        let reference = margins(&s, 1, gh_packing);
        for workers in [2, 4] {
            assert_eq!(
                margins(&s, workers, gh_packing),
                reference,
                "workers={workers} gh_packing={gh_packing}"
            );
        }
    }
}

#[test]
fn four_hosts_train_bitwise_identical_models_at_any_worker_count() {
    let s = scenario(4, 43);
    let reference = margins(&s, 1, true);
    for workers in [2, 4] {
        assert_eq!(margins(&s, workers, true), reference, "workers={workers}");
    }
}
