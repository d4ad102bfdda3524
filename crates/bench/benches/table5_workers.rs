//! **Table 5** — scalability with the number of workers per party.
//!
//! Paper: speedups over 4 workers on susy/epsilon/rcv1/synthesis — 8
//! workers give 1.40–1.65×, 16 workers 1.85–2.23× (sub-linear because
//! histogram aggregation and cipher transfer don't parallelize).
//!
//! Scaled here to worker counts {1, 2, 4}. Each party's `workers` is its
//! fan-out width over the process-wide worker pool, and every party in
//! this single-process run shares that pool's cores, so the measured wall
//! speedup is capped by `machine cores` (printed first) and by the
//! parties' overlap: read it against the core count, not against `W`.

use vf2_bench::{base_config, header, scale, secs};
use vf2_datagen::presets::preset;
use vf2_gbdt::train::GbdtParams;
use vf2boost_core::train::train_federated;
use vf2boost_core::TrainConfig;

fn main() {
    header(
        "Table 5: scalability w.r.t. #workers (speedup over 1 worker)",
        "paper (over 4 workers): 8w 1.40-1.65x, 16w 1.85-2.23x — sub-linear from aggregation",
    );
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    println!("machine cores: {cores}\n");
    let factors = [("susy", 0.0006), ("epsilon", 0.003), ("rcv1", 0.0015), ("synthesis", 0.0003)];
    for (name, factor) in factors {
        let p = preset(name).unwrap().scaled((factor * scale()).min(1.0));
        let data = p.generate(11);
        let s = vf2_datagen::vertical::split_vertical(&data, &[p.features_a]);
        println!("-- {name}-like: N = {}, D = {}/{} --", p.rows, p.features_a, p.features_b);
        let mut base_wall = None;
        for workers in [1usize, 2, 4] {
            let cfg = TrainConfig {
                gbdt: GbdtParams { num_trees: 1, max_layers: 6, ..Default::default() },
                workers,
                ..base_config()
            };
            let out = train_federated(&s.hosts, &s.guest, &cfg).expect("training succeeds");
            let wall = out.report.wall_time;
            let w1 = *base_wall.get_or_insert(wall);
            println!(
                "  {workers} workers: wall {} ({:.2}x measured, machine cores {cores})",
                secs(wall),
                w1.as_secs_f64() / wall.as_secs_f64().max(1e-9),
            );
        }
        println!();
    }
}
