//! Every combination of the four protocol optimizations must produce an
//! equivalent model — the optimizations change *when* and *how* work is
//! done (§4–§5), never *what* is computed.

use vf2boost::core::config::{CryptoConfig, TrainConfig};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::{train_federated, FedNode, TraceEventKind, TrainOutput};
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::split_vertical;
use vf2boost::gbdt::train::GbdtParams;

#[test]
fn all_sixteen_protocol_combinations_agree() {
    let data = generate_classification(&SyntheticConfig {
        rows: 300,
        features: 10,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 77,
    });
    let s = split_vertical(&data, &[5]);

    let mut reference: Option<Vec<f64>> = None;
    for mask in 0..16u8 {
        let protocol = ProtocolConfig {
            optimistic: mask & 1 != 0,
            blaster_batch: if mask & 2 != 0 { Some(64) } else { None },
            reordered_accumulation: mask & 4 != 0,
            pack_histograms: mask & 8 != 0,
            // Histogram subtraction stays on (the vf2boost default) for
            // every mask: the derive-vs-direct decision is a pure function
            // of the row lists, so cross-mask value identity is preserved.
            ..ProtocolConfig::vf2boost()
        };
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
            crypto: CryptoConfig::Mock,
            protocol,
            ..TrainConfig::for_tests()
        };
        let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
        let margins = out.model.predict_margin(&[&s.hosts[0]], &s.guest);
        // Re-ordered accumulation (bit 2) and packing (bit 3) change the
        // f64 summation order, so those combinations are compared with a
        // small tolerance; the purely scheduling-level flags (optimistic,
        // blaster) must be bit-exact.
        let tol = if mask & 0b1100 == 0 { 1e-12 } else { 1e-3 };
        match &reference {
            None => reference = Some(margins),
            Some(reference) => {
                let mean: f64 =
                    reference.iter().zip(&margins).map(|(a, b)| (a - b).abs()).sum::<f64>()
                        / margins.len() as f64;
                assert!(mean < tol, "combination {mask:04b} diverged: mean |Δ| = {mean}");
            }
        }
    }
}

/// The optimization flags must also agree under real cryptography (two
/// representative corners rather than all sixteen, for speed).
#[test]
fn paillier_baseline_and_vf2boost_agree() {
    let data = generate_classification(&SyntheticConfig {
        rows: 150,
        features: 8,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 78,
    });
    let s = split_vertical(&data, &[4]);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Paillier { key_bits: 512 },
        ..TrainConfig::for_tests()
    };
    let baseline = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig { protocol: ProtocolConfig::baseline(), ..base },
    )
    .expect("training succeeds");
    let vf2 = train_federated(
        &s.hosts,
        &s.guest,
        &TrainConfig { protocol: ProtocolConfig::vf2boost(), ..base },
    )
    .expect("training succeeds");
    let bm = baseline.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let vm = vf2.model.predict_margin(&[&s.hosts[0]], &s.guest);
    let diff = bm.iter().zip(&vm).map(|(a, b)| (a - b).abs()).sum::<f64>() / bm.len() as f64;
    assert!(diff < 1e-3, "mean |Δmargin| = {diff}");
}

/// The VF-GBDT baseline keeps its per-layer shape inside the guest's
/// event-driven tree loop: each committed histogram batch is exactly one
/// layer, holding every live host's answer for every node of that layer.
/// VF²Boost commits whatever has already arrived, so it commits more,
/// smaller batches.
#[test]
fn baseline_commits_exactly_one_layer_per_batch() {
    const HOSTS: usize = 2;
    const LAYERS: usize = 4;
    let data = generate_classification(&SyntheticConfig {
        rows: 300,
        features: 12,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed: 79,
    });
    let s = split_vertical(&data, &[4, 4]);
    assert_eq!(s.hosts.len(), HOSTS);
    let run = |protocol: ProtocolConfig| -> TrainOutput {
        let cfg = TrainConfig {
            gbdt: GbdtParams { num_trees: 3, max_layers: LAYERS, ..Default::default() },
            crypto: CryptoConfig::Mock,
            protocol,
            trace_events_cap: 1 << 16,
            ..TrainConfig::for_tests()
        };
        train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds")
    };

    let baseline = run(ProtocolConfig::baseline());
    // Every node above the last layer was sent a NodeTask and answered
    // once by each host (the baseline never rolls a node back), so the
    // per-layer batches follow from the trained trees alone.
    let mut expected: Vec<(u32, u64)> = Vec::new();
    for (t, tree) in baseline.model.trees.iter().enumerate() {
        for layer in 0..LAYERS - 1 {
            let nodes = ((1 << layer) - 1..(1 << (layer + 1)) - 1)
                .filter(|&n| !matches!(tree.nodes[n], FedNode::Absent))
                .count();
            if nodes > 0 {
                expected.push((t as u32, (HOSTS * nodes) as u64));
            }
        }
    }
    let guest = &baseline.report.guest;
    assert_eq!(guest.trace.dropped(), 0, "the trace ring must hold the whole run");
    let batches: Vec<(u32, u64)> = guest
        .trace
        .events()
        .filter_map(|e| match e.kind {
            TraceEventKind::SchedBatch { drained } => Some((e.tree?, drained)),
            _ => None,
        })
        .collect();
    assert_eq!(batches, expected, "baseline batches must be whole layers");
    assert_eq!(guest.events.sched_batches, expected.len() as u64);
    assert_eq!(guest.events.sched_batch_hists, expected.iter().map(|&(_, n)| n).sum::<u64>());

    let vf2boost = run(ProtocolConfig::vf2boost());
    assert!(
        vf2boost.report.guest.events.sched_batches > guest.events.sched_batches,
        "VF2Boost committed {} batches, the baseline {}",
        vf2boost.report.guest.events.sched_batches,
        guest.events.sched_batches
    );
}
