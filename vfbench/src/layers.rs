//! Per-layer numbers: read from a traced run's report and span ring, and
//! measured by probes that time calls into each layer's public functions at
//! the workload's key size and shape.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::Bytes;
use vf2_channel::{duplex, WanConfig};
use vf2_crypto::suite::{Ciphertext, Suite};
use vf2_crypto::{GhPlan, KeyPair};
use vf2_datagen::vertical::VerticalScenario;
use vf2_gbdt::binning::BinnedDataset;
use vf2boost_core::config::TrainConfig;
use vf2boost_core::hist_enc::{
    max_exponent, pack_feature_hist, unpack_feature_hist, EncHistBuilder,
};
use vf2boost_core::messages::{FeatureMeta, HistPayload, Msg, PackedFeatureHist};
use vf2boost_core::persist::{
    atomic_write, decode_guest_checkpoint, encode_guest_checkpoint, GuestCheckpoint,
};
use vf2boost_core::rows::RowMajorBins;
use vf2boost_core::session::config_digest;
use vf2boost_core::telemetry::{PartyTelemetry, TrainReport};
use vf2boost_core::trace::{TraceEventKind, TracePhase, TraceRing};
use vf2boost_core::train::TrainOutput;
use vf2boost_core::{validate, wire, PartyId};

use crate::json::Json;

/// Every per-layer metric the traced run reports, with its unit. The
/// names and units match `per_layer` in BENCHMARK.json.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("guest.encrypt_s", "s"),
    ("guest.enc_ops", "count"),
    ("guest.modmul", "count"),
    ("guest.decrypt_find_s", "s"),
    ("guest.dec_ops", "count"),
    ("guest.idle_s", "s"),
    ("guest.dirty_ratio", "ratio"),
    ("guest.unattributed_s", "s"),
    ("host.build_hist_enc_s", "s"),
    ("host.pack_s", "s"),
    ("host.hadd_ops", "count"),
    ("host.scalings", "count"),
    ("host.cache_hit_rate", "ratio"),
    ("host.idle_s", "s"),
    ("host.busy_sum_s", "s"),
    ("crypto.keygen_s", "s"),
    ("crypto.enc_us", "us"),
    ("crypto.enc_gh_us", "us"),
    ("crypto.dec_us", "us"),
    ("crypto.hadd_us", "us"),
    ("hist_enc.build_ms", "ms"),
    ("hist_enc.subtract_ms", "ms"),
    ("hist_enc.pack_ms", "ms"),
    ("hist_enc.unpack_ms", "ms"),
    ("wire.encode_mb_s", "MB/s"),
    ("wire.decode_mb_s", "MB/s"),
    ("admission.check_us", "us"),
    ("channel.rtt_us", "us"),
    ("channel.wan_overshoot_ms", "ms"),
    ("wan.messages", "count"),
    ("link.retransmissions", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("trace.overhead", "ratio"),
];

pub type Metrics = Vec<(&'static str, f64)>;

/// Rows the probes encrypt; histogram probes reuse these ciphers.
const PROBE_ROWS: usize = 96;

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Non-idle, non-busy remainder of a party's wall time: how much of the
/// run its phase report leaves unexplained.
fn unattributed(p: &PartyTelemetry, wall: Duration) -> f64 {
    secs(wall) - secs(p.phases.busy()) - secs(p.phases.idle)
}

/// Per-layer numbers read from a run's public report.
pub fn report_metrics(r: &TrainReport) -> Metrics {
    let g = &r.guest;
    let sum = |f: &dyn Fn(&PartyTelemetry) -> f64| r.hosts.iter().map(f).sum::<f64>();
    let hits = sum(&|h| h.events.hist_cache_hits as f64);
    let lookups = hits + sum(&|h| h.events.hist_cache_misses as f64);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let messages = g.messages_sent + r.hosts.iter().map(|h| h.messages_sent).sum::<u64>();
    vec![
        ("guest.encrypt_s", secs(g.phases.encrypt)),
        ("guest.enc_ops", g.ops.enc as f64),
        ("guest.modmul", g.ops.modmul as f64),
        ("guest.decrypt_find_s", secs(g.phases.decrypt_find)),
        ("guest.dec_ops", g.ops.dec as f64),
        ("guest.idle_s", secs(g.phases.idle)),
        (
            "guest.dirty_ratio",
            ratio(g.events.dirty_nodes as f64, g.events.optimistic_splits as f64),
        ),
        ("guest.unattributed_s", unattributed(g, r.wall_time)),
        ("host.build_hist_enc_s", sum(&|h| secs(h.phases.build_hist_enc))),
        ("host.pack_s", sum(&|h| secs(h.phases.pack))),
        ("host.hadd_ops", sum(&|h| h.ops.hadd as f64)),
        ("host.scalings", sum(&|h| h.ops.scalings as f64)),
        ("host.cache_hit_rate", ratio(hits, lookups)),
        ("host.idle_s", sum(&|h| secs(h.phases.idle))),
        ("host.busy_sum_s", sum(&|h| secs(h.phases.busy()))),
        ("wan.messages", messages as f64),
        ("link.retransmissions", r.link_events().retransmissions as f64),
    ]
}

/// Total time inside each phase's spans, from a party's trace ring
/// (enter/exit pairs of one phase are matched in order).
fn span_seconds(ring: &TraceRing) -> Vec<(&'static str, f64)> {
    let mut open: Vec<(TracePhase, Vec<Duration>)> = Vec::new();
    let mut total: Vec<(&'static str, f64)> = Vec::new();
    for ev in ring.events() {
        match &ev.kind {
            TraceEventKind::Enter(p) => match open.iter_mut().find(|(q, _)| q == p) {
                Some((_, starts)) => starts.push(ev.at),
                None => open.push((*p, vec![ev.at])),
            },
            TraceEventKind::Exit(p) => {
                let start = open.iter_mut().find(|(q, _)| q == p).and_then(|(_, s)| s.pop());
                if let Some(start) = start {
                    let d = secs(ev.at.saturating_sub(start));
                    match total.iter_mut().find(|(name, _)| *name == p.name()) {
                        Some((_, t)) => *t += d,
                        None => total.push((p.name(), d)),
                    }
                }
            }
            _ => {}
        }
    }
    total
}

/// One party's breakdown for the run record: its phases, idle and
/// unattributed time, span totals and trace-ring occupancy.
pub fn party_record(p: &PartyTelemetry, wall: Duration) -> Json {
    let ph = &p.phases;
    let phases = Json::obj()
        .set("encrypt_s", secs(ph.encrypt))
        .set("build_hist_enc_s", secs(ph.build_hist_enc))
        .set("build_hist_plain_s", secs(ph.build_hist_plain))
        .set("pack_s", secs(ph.pack))
        .set("decrypt_find_s", secs(ph.decrypt_find))
        .set("split_nodes_s", secs(ph.split_nodes));
    let spans = span_seconds(&p.trace)
        .into_iter()
        .fold(Json::obj(), |o, (name, s)| o.set(&format!("{name}_s"), s));
    Json::obj()
        .set("name", p.name.as_str())
        .set("busy_s", secs(ph.busy()))
        .set("idle_s", secs(ph.idle))
        .set("unattributed_s", unattributed(p, wall))
        .set("phases", phases)
        .set("spans", spans)
        .set("trace_events", p.trace.len())
        .set("trace_dropped", p.trace.dropped())
        .set("messages_sent", p.messages_sent)
        .set("bytes_sent", p.bytes_sent)
}

/// Seconds per call of `f`, repeated for at least `min_iters` calls and
/// `min_secs` seconds.
fn per_call(
    min_iters: usize,
    min_secs: f64,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut n = 0usize;
    while n < min_iters || secs(t0.elapsed()) < min_secs {
        f()?;
        n += 1;
    }
    Ok(secs(t0.elapsed()) / n as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Encrypted histogram of every feature of `rows`, as the host builds it.
fn build_hist(
    suite: &Suite,
    csr: &RowMajorBins,
    cfg: &TrainConfig,
    rows: std::ops::Range<usize>,
    enc: &[Ciphertext],
) -> Result<EncHistBuilder, String> {
    let reordered = cfg.protocol.reordered_accumulation;
    let mut hist = EncHistBuilder::new(&csr.col_meta, &cfg.encoding, reordered);
    for r in rows {
        for &(f, bin) in csr.row(r) {
            let c = &enc[r % enc.len()];
            hist.add(suite, f as usize, bin as usize, c).map_err(ctx("hist add"))?;
        }
    }
    Ok(hist)
}

/// Times each layer's public functions at the workload's key size and
/// shape. `out` is a finished run of the same workload: its final margins
/// give the gradients and its model the checkpoint contents. Every probe
/// also checks its result, so a wrong answer fails the run.
pub fn probes(
    cfg: &TrainConfig,
    split: &VerticalScenario,
    out: &TrainOutput,
    tmp: &Path,
) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let vf2boost_core::config::CryptoConfig::Paillier { key_bits } = cfg.crypto else {
        return Err("probes need a Paillier workload".into());
    };

    // crypto: key generation as the trainer does it, then per-op costs.
    let t0 = Instant::now();
    let keys = KeyPair::generate_seeded(key_bits, cfg.seed).map_err(ctx("keygen"))?;
    m.push(("crypto.keygen_s", secs(t0.elapsed())));
    let guest = Suite::paillier_with_backend(keys, cfg.encoding, cfg.crypto_backend);
    let host = guest.public_half();

    let loss = cfg.gbdt.loss;
    let labels = split.guest.labels().ok_or("guest carries no labels")?;
    let grads = loss.grad_hess_all(labels, &out.train_margins);
    let g: Vec<f64> = grads.iter().map(|p| p.g).collect();
    let h: Vec<f64> = grads.iter().map(|p| p.h).collect();
    let n = g.len();

    // Encrypt the first rows only and let every row use the cipher of row
    // `r % k`: histograms keep the workload's shape at a bounded probe cost.
    let k = n.min(PROBE_ROWS);
    let t0 = Instant::now();
    let enc_g = guest.encrypt_batch(&g[..k], 1).map_err(ctx("encrypt g"))?;
    let enc_h = guest.encrypt_batch(&h[..k], 2).map_err(ctx("encrypt h"))?;
    m.push(("crypto.enc_us", secs(t0.elapsed()) * 1e6 / (2 * k) as f64));

    let k = k.min(PROBE_ROWS / 3);
    let plan = GhPlan::new(loss.grad_bound(), loss.hess_bound(), n as u64, &cfg.encoding)
        .map_err(ctx("gh plan"))?;
    let t0 = Instant::now();
    let enc_gh = guest.encrypt_gh_batch(&g[..k], &h[..k], &plan, 3).map_err(ctx("encrypt gh"))?;
    m.push(("crypto.enc_gh_us", secs(t0.elapsed()) * 1e6 / k as f64));
    for (i, c) in enc_gh.iter().enumerate() {
        let (dg, dh) = guest.decrypt_gh(c, &plan).map_err(ctx("decrypt gh"))?;
        if (dg - g[i]).abs() > 1e-9 || (dh - h[i]).abs() > 1e-9 {
            return Err(format!("gh round trip of row {i}: ({dg}, {dh}) != ({}, {})", g[i], h[i]));
        }
    }

    let t0 = Instant::now();
    for (i, c) in enc_g[..k].iter().enumerate() {
        let v = guest.decrypt(c).map_err(ctx("decrypt"))?;
        if (v - g[i]).abs() > 1e-9 {
            return Err(format!("decrypt of row {i}: {v} != {}", g[i]));
        }
    }
    m.push(("crypto.dec_us", secs(t0.elapsed()) * 1e6 / k as f64));

    let mut i = 0usize;
    let hadd = per_call(1000, 0.05, || {
        let c = &enc_g[i % enc_g.len()];
        i += 1;
        host.add(c, c).map(black_box).map(drop).map_err(ctx("hadd"))
    })?;
    m.push(("crypto.hadd_us", hadd * 1e6));

    // hist_enc: the widest host's root histogram, a child derived by
    // subtraction, and the packed prefix sums the host ships back.
    let widest = (0..split.hosts.len())
        .max_by_key(|&p| (split.hosts[p].num_features(), std::cmp::Reverse(p)))
        .ok_or("no host party")?;
    let csr =
        RowMajorBins::from_binned(&BinnedDataset::bin(&split.hosts[widest], &cfg.gbdt.binning));
    let t0 = Instant::now();
    let root_g = build_hist(&host, &csr, cfg, 0..n, &enc_g)?;
    let root_h = build_hist(&host, &csr, cfg, 0..n, &enc_h)?;
    m.push(("hist_enc.build_ms", secs(t0.elapsed()) * 1e3));

    let small_g = build_hist(&host, &csr, cfg, 0..n / 3, &enc_g)?;
    let small_h = build_hist(&host, &csr, cfg, 0..n / 3, &enc_h)?;
    let t0 = Instant::now();
    root_g.subtract(&host, &small_g).map_err(ctx("subtract g"))?;
    root_h.subtract(&host, &small_h).map_err(ctx("subtract h"))?;
    m.push(("hist_enc.subtract_ms", secs(t0.elapsed()) * 1e3));

    let target = max_exponent(&cfg.encoding);
    let (gb, hb) = (loss.grad_bound(), loss.hess_bound());
    let mut packed: Vec<PackedFeatureHist> = Vec::new();
    let mut pack_s = 0.0;
    for f in 0..root_g.num_features() {
        let bins_g = root_g.finalize_feature(&host, f, Some(target)).map_err(ctx("fin"))?;
        let bins_h = root_h.finalize_feature(&host, f, Some(target)).map_err(ctx("fin"))?;
        let t0 = Instant::now();
        let p = pack_feature_hist(
            &host,
            &bins_g,
            &bins_h,
            n,
            gb,
            hb,
            cfg.protocol.target_slot_bits,
            &cfg.encoding,
        )
        .map_err(ctx("pack"))?;
        pack_s += secs(t0.elapsed());
        packed.push(p);
    }
    m.push(("hist_enc.pack_ms", pack_s * 1e3));

    let row_sum = |v: &[f64]| (0..n).map(|r| v[r % enc_g.len()]).sum::<f64>();
    let (sum_g, sum_h) = (row_sum(&g), row_sum(&h));
    let t0 = Instant::now();
    let unpacked = packed
        .iter()
        .map(|p| unpack_feature_hist(&guest, p, n, gb, hb))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ctx("unpack"))?;
    m.push(("hist_enc.unpack_ms", secs(t0.elapsed()) * 1e3));
    for (f, bins) in unpacked.iter().enumerate() {
        let (fg, fh) = bins.iter().fold((0.0, 0.0), |(a, b), p| (a + p.g, b + p.h));
        if (fg - sum_g).abs() > 1e-6 * n as f64 || (fh - sum_h).abs() > 1e-6 * n as f64 {
            return Err(format!("feature {f} histogram sums ({fg}, {fh}) != ({sum_g}, {sum_h})"));
        }
    }

    // wire: a bulk gradient batch and a packed node histogram.
    let payload = HistPayload::Packed(packed);
    let msgs = [
        Msg::GradBatch { tree: 0, start_row: 0, g: enc_g.clone(), h: enc_h.clone(), last: true },
        Msg::NodeHistograms { tree: 0, node: 0, epoch: 0, payload: payload.clone() },
    ];
    let encoded: Vec<(u16, Bytes)> = msgs
        .iter()
        .map(|msg| wire::encode(msg).map(|b| (msg.kind(), b)))
        .collect::<Result<_, _>>()
        .map_err(ctx("encode"))?;
    for ((kind, bytes), msg) in encoded.iter().zip(&msgs) {
        let back = wire::decode(*kind, bytes.clone()).map_err(ctx("decode"))?;
        if &back != msg {
            return Err(format!("wire round trip of kind {kind} changed the message"));
        }
    }
    let wire_bytes: usize = encoded.iter().map(|(_, b)| b.len()).sum();
    let enc_s = per_call(5, 0.1, || {
        msgs.iter()
            .try_for_each(|msg| wire::encode(msg).map(black_box).map(drop).map_err(ctx("encode")))
    })?;
    m.push(("wire.encode_mb_s", wire_bytes as f64 / enc_s / 1e6));
    let dec_s = per_call(5, 0.1, || {
        encoded.iter().try_for_each(|(kind, b)| {
            wire::decode(*kind, b.clone()).map(black_box).map(drop).map_err(ctx("decode"))
        })
    })?;
    m.push(("wire.decode_mb_s", wire_bytes as f64 / dec_s / 1e6));

    // admission: the guest's semantic check of that histogram.
    let metas: Vec<FeatureMeta> = csr
        .col_meta
        .iter()
        .map(|c| FeatureMeta { num_bins: c.num_bins, zero_bin: c.zero_bin })
        .collect();
    let check = per_call(200, 0.02, || {
        validate::check_hist_payload(
            PartyId::Host(widest),
            &payload,
            &metas,
            &guest,
            cfg.gh_packing,
        )
        .map_err(ctx("admission"))
    })?;
    m.push(("admission.check_us", check * 1e6));

    // channel: round trips of a small message over an instant link, then
    // bulk deliveries over the workload's WAN against its model.
    let (a, b) = duplex(WanConfig::instant());
    let ping = Bytes::from(vec![7u8; 64]);
    let mut rtts = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        a.send(1, ping.clone());
        let env = b.recv().map_err(ctx("channel recv"))?;
        b.send(1, env.payload);
        a.recv().map_err(ctx("channel recv"))?;
        rtts.push(secs(t0.elapsed()) * 1e6);
    }
    m.push(("channel.rtt_us", median(rtts)));
    drop((a, b));

    let (a, b) = duplex(cfg.wan);
    let mut overshoot = Vec::new();
    for round in 0..6 {
        let (kind, bytes) = &encoded[round % encoded.len()];
        let t0 = Instant::now();
        a.send(*kind, bytes.clone());
        let env = b.recv().map_err(ctx("wan recv"))?;
        let delivered = secs(t0.elapsed());
        if env.payload != *bytes {
            return Err("wan link delivered a different payload".into());
        }
        let modeled = secs(cfg.wan.serialize_time(bytes.len()) + cfg.wan.latency);
        overshoot.push((delivered - modeled) * 1e3);
    }
    m.push(("channel.wan_overshoot_ms", median(overshoot)));
    drop((a, b));

    // persist: the guest's end-of-run checkpoint, encoded and written.
    let ck = GuestCheckpoint {
        session_id: 1,
        seed: cfg.seed,
        config_digest: config_digest(cfg),
        tree_count: out.model.trees.len() as u32,
        trees: out.model.trees.clone(),
        preds: out.train_margins.clone(),
    };
    std::fs::create_dir_all(tmp).map_err(ctx("checkpoint dir"))?;
    let path = tmp.join("guest.vf2ck");
    let mut writes = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        atomic_write(&path, &encode_guest_checkpoint(&ck)).map_err(ctx("checkpoint"))?;
        writes.push(secs(t0.elapsed()) * 1e3);
    }
    m.push(("persist.checkpoint_ms", median(writes)));
    let read = std::fs::read(&path).map_err(ctx("checkpoint read"))?;
    let back = decode_guest_checkpoint(Bytes::from(read)).map_err(ctx("checkpoint"))?;
    if back != ck {
        return Err("checkpoint round trip changed the snapshot".into());
    }
    Ok(m)
}
