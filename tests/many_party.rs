//! Many-party chaos matrix for the guest's event-driven tree loop: 8 hosts
//! over heterogeneous faulty WANs must train, in every protocol mode, the
//! model a fault-free run on instant links trains, bit for bit.
//!
//! The tree loop takes answers in whatever order the links deliver them
//! (one host's decrypt overlaps another's transfer; already-arrived
//! histograms commit in batches) but must never reorder *decisions*:
//! per-node splits fire only once every live host's answer is admitted,
//! and the winner scan walks hosts in index order. These tests drive that
//! claim through rolling per-link stalls, reordering links, a
//! heterogeneous bandwidth/latency spread, and a mid-run host
//! kill-and-rejoin with phases overlapping.

use std::path::PathBuf;
use std::time::Duration;

use vf2boost::channel::{FaultConfig, StallWindow, WanConfig};
use vf2boost::core::config::{CryptoConfig, HostLossPolicy, WanSpread};
use vf2boost::core::protocol::ProtocolConfig;
use vf2boost::core::{train_federated, train_federated_session, SessionConfig, TrainConfig};
use vf2boost::datagen::synthetic::{generate_classification, SyntheticConfig};
use vf2boost::datagen::vertical::{split_even, VerticalScenario};
use vf2boost::gbdt::data::Dataset;
use vf2boost::gbdt::train::GbdtParams;

const HOSTS: usize = 8;

fn scenario(seed: u64) -> VerticalScenario {
    let data = generate_classification(&SyntheticConfig {
        rows: 240,
        features: 27,
        density: 1.0,
        informative_frac: 0.5,
        label_noise: 0.0,
        seed,
    });
    split_even(&data, HOSTS + 1)
}

/// Sequential/optimistic × raw/packed: the matrix the arrival-order
/// contract is asserted over.
fn modes() -> [(&'static str, ProtocolConfig); 4] {
    let seq = ProtocolConfig::baseline();
    let opt = ProtocolConfig {
        pack_histograms: false,
        reordered_accumulation: false,
        ..ProtocolConfig::vf2boost()
    };
    [
        ("seq-raw", seq),
        ("seq-packed", ProtocolConfig { pack_histograms: true, ..seq }),
        ("opt-raw", opt),
        ("opt-packed", ProtocolConfig { pack_histograms: true, ..opt }),
    ]
}

/// A per-link plan with both fault classes the tree loop must ride out:
/// a timed blackout (staggered per host by `stall_stagger`, so outages
/// roll across the roster) and frame reordering.
fn rolling_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        reorder_prob: 0.05,
        reorder_depth: 3,
        stall: Some(StallWindow {
            after: Duration::from_millis(40),
            duration: Duration::from_millis(30),
        }),
        ..FaultConfig::none()
    }
}

/// The same job on instant, fault-free, uniform links: the reference
/// arrival order the chaos runs are compared against.
fn clean_cfg(seed: u64, protocol: ProtocolConfig) -> TrainConfig {
    TrainConfig {
        wan: WanConfig::instant(),
        wan_spread: None,
        fault_guest_to_host: FaultConfig::none(),
        fault_host_to_guest: FaultConfig::none(),
        stall_stagger: Duration::ZERO,
        ..chaos_cfg(seed, protocol)
    }
}

/// Eight hosts behind a heterogeneous WAN: host 0 gets the base link,
/// host 7 a quarter of the bandwidth at four times the latency, with
/// rolling stalls and reordering on every link.
fn chaos_cfg(seed: u64, protocol: ProtocolConfig) -> TrainConfig {
    TrainConfig {
        gbdt: GbdtParams { num_trees: 2, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol,
        wan: WanConfig {
            bandwidth_bytes_per_sec: 50.0e6,
            latency: Duration::from_micros(500),
            per_message_overhead_bytes: 32,
        },
        wan_spread: Some(WanSpread { slowest_bandwidth_frac: 0.25, latency_mult: 4.0 }),
        fault_guest_to_host: rolling_faults(seed ^ 0xA11CE),
        fault_host_to_guest: rolling_faults(seed ^ 0xB0B),
        stall_stagger: Duration::from_millis(25),
        seed,
        ..TrainConfig::for_tests()
    }
}

fn margins(out: &vf2boost::core::TrainOutput, s: &VerticalScenario) -> Vec<f64> {
    let refs: Vec<&Dataset> = s.hosts.iter().collect();
    out.model.predict_margin(&refs, &s.guest)
}

fn assert_bitwise(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "[{name}] margin {i} diverged between arrival orders: {x} vs {y}"
        );
    }
}

/// The tentpole contract: across sequential/optimistic × raw/packed, an
/// 8-host run on hostile heterogeneous links trains the identical model
/// to a fault-free run on instant links, whose answers arrive in a
/// different order.
#[test]
fn eight_host_chaos_matrix_is_arrival_order_invariant() {
    let s = scenario(71);
    for (name, protocol) in modes() {
        let clean = train_federated(&s.hosts, &s.guest, &clean_cfg(71, protocol))
            .unwrap_or_else(|f| panic!("[{name}] clean run failed: {}", f.error));
        let chaos = train_federated(&s.hosts, &s.guest, &chaos_cfg(71, protocol))
            .unwrap_or_else(|f| panic!("[{name}] chaos run failed: {}", f.error));

        assert_eq!(clean.report.hosts.len(), HOSTS);
        assert_eq!(chaos.report.hosts.len(), HOSTS);
        assert_bitwise(name, &margins(&clean, &s), &margins(&chaos, &s));

        // The wire really was hostile in the chaos run.
        let ev = chaos.report.link_events();
        assert!(ev.faults_injected > 0, "[{name}] no faults fired: {ev:?}");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vf2_many_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill host 0 inside tree 1's node loop while the tree loop has
/// overlapping transfers in flight from seven live survivors: the
/// quarantine → rejoin → rewind barrier must hold, and the final model
/// must be bitwise identical to an uninterrupted run.
#[test]
fn pipelined_kill_and_rejoin_holds_the_rewind_barrier() {
    let s = scenario(73);
    let base = TrainConfig {
        gbdt: GbdtParams { num_trees: 3, max_layers: 4, ..Default::default() },
        crypto: CryptoConfig::Mock,
        protocol: ProtocolConfig::vf2boost(),
        wan: WanConfig::instant(),
        seed: 73,
        ..TrainConfig::for_tests()
    };

    let clean = train_federated(&s.hosts, &s.guest, &base)
        .unwrap_or_else(|f| panic!("clean run failed: {}", f.error));
    let clean_margins = margins(&clean, &s);

    let dir = temp_dir("rejoin");
    let session = SessionConfig::new(0x0d10_0073, &dir);
    let chaos = TrainConfig {
        crash_host_on_node_task: Some((1, 0)),
        on_host_loss: HostLossPolicy::AwaitRejoin { deadline: Duration::from_secs(10) },
        ..base
    };
    let out = train_federated_session(&s.hosts, &s.guest, &chaos, Some(&session))
        .unwrap_or_else(|f| panic!("rejoin run failed: {}", f.error));

    let ev = &out.report.guest.events;
    assert!(ev.quarantines >= 1, "host loss was never quarantined: {ev:?}");
    assert!(ev.rejoins >= 1, "the restarted host never rejoined: {ev:?}");
    // No party was parked: every tree was trained by the full roster.
    for rec in &out.report.tree_records {
        assert_eq!(
            rec.party_set,
            (0..=HOSTS as u16).collect::<Vec<_>>(),
            "tree {} lost a party despite the successful rejoin",
            rec.tree
        );
    }
    assert_bitwise("rejoin", &clean_margins, &margins(&out, &s));
    let _ = std::fs::remove_dir_all(&dir);
}
