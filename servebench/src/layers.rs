//! Per-layer metrics of a traced run: the server's own counters plus the
//! benchmark's timed calls into each layer's public functions on the
//! workload's inputs.

use crate::loadgen::Frames;
use crate::stats;
use crate::workload::{out_dir, Common, Measured, ReadQuery, Served};
use duet_core::{DuetEstimator, DuetWorkspace};
use duet_data::Table;
use duet_serve::wire::frame::{self, Status, DEFAULT_MAX_FRAME_LEN};
use duet_serve::{
    canonical_key_from_parts, DuetServer, ModelSlot, OnlineConfig, ServeConfig, ShardedCache,
};
use std::hint::black_box;
use std::time::Instant;

/// The workload inputs the layer timings run on.
pub struct LayerInputs<'a> {
    /// The workload's (first) model, as trained.
    pub model: &'a DuetEstimator,
    /// Requests of the workload against that model.
    pub queries: &'a [&'a ReadQuery],
    /// The workload's pre-encoded request frames.
    pub frames: &'a Frames,
    /// Frame index of each request in `frames`.
    pub frame_ids: &'a [u32],
    /// The table of the online-loop measurements.
    pub online_table: &'a Table,
    /// Rows the online-loop measurements ingest.
    pub online_rows: &'a [Vec<u32>],
    /// Whether the workload repeats keys (cache lookups hit) or not.
    pub repeated_keys: bool,
}

/// Median over `passes` of the per-item time (ns) of `f` over `items`.
fn per_item_ns(passes: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(passes);
    for _ in 0..passes {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    stats::median(&samples)
}

/// Approximate mean of a bucketed histogram (`(upper bound, count)` with
/// `usize::MAX` as the open last bucket), taking each bucket's midpoint.
fn histogram_mean(hist: &[(usize, u64)]) -> f64 {
    let mut prev = 0usize;
    let (mut sum, mut n) = (0.0, 0u64);
    for &(ub, count) in hist {
        let ub = if ub == usize::MAX { prev * 2 } else { ub };
        sum += count as f64 * (prev + 1 + ub) as f64 / 2.0;
        n += count;
        prev = ub;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Emit every per-layer metric of a traced run into `c.report`.
pub(crate) fn report(
    c: &mut Common<'_>,
    served: &Served,
    run: &Measured<'_>,
    li: &LayerInputs<'_>,
) -> Result<(), String> {
    let (ev, nominal, ops) = (&run.eval, run.nominal, run.nominal_ops);
    let snap = served.server.metrics();
    let mut rec = c.recorder.take().expect("traced run has a recorder");
    let root = rec.open("layers");
    let mut m: Vec<(&str, f64, &'static str)> = Vec::new();

    // ---- wire ----
    let frame_bytes: Vec<&[u8]> = li.frame_ids.iter().map(|&f| li.frames.get(f)).collect();
    let (_, decode_ns) = rec.time("layer.wire", Some(root), || {
        per_item_ns(15, frame_bytes.len(), || {
            for bytes in &frame_bytes {
                black_box(frame::next_frame(black_box(bytes), DEFAULT_MAX_FRAME_LEN).ok());
            }
        })
    });
    let mut buf = Vec::with_capacity(1 << 16);
    let (_, encode_ns) = rec.time("layer.wire", Some(root), || {
        per_item_ns(15, 1000, || {
            buf.clear();
            for i in 0..1000u64 {
                frame::encode_response(&mut buf, i, Status::Ok, i as f64);
            }
            black_box(&buf);
        })
    });
    let (res, _) = nominal;
    m.push(("wire.decode_ns", decode_ns, "ns"));
    m.push(("wire.encode_ns", encode_ns, "ns"));
    m.push(("wire.req_bytes", res.bytes_out as f64 / ops.len().max(1) as f64, "bytes"));
    m.push(("wire.frames_in", snap.frames_in as f64, "count"));
    m.push(("wire.frames_out", snap.frames_out as f64, "count"));
    m.push(("wire.decode_errors", snap.wire_decode_errors as f64, "count"));
    m.push(("wire.pipeline_depth_mean", histogram_mean(&snap.pipeline_depth_histogram), "count"));

    // ---- router ---- (wait derived by Little's law, not measured)
    let depth_mean = if nominal.1.depths.is_empty() {
        0.0
    } else {
        nominal.1.depths.iter().sum::<usize>() as f64 / nominal.1.depths.len() as f64
    };
    let completions = ev.samples as f64 / ev.duration_s.max(1e-9);
    m.push(("router.queue_depth_mean", depth_mean, "count"));
    m.push(("router.wait_us", stats::littles_law_wait_us(depth_mean, completions), "us"));
    m.push(("router.shed_overload", snap.shed_overload as f64, "count"));
    m.push(("router.shed_deadline", snap.shed_deadline as f64, "count"));

    // ---- batcher ----
    m.push(("batcher.batches", snap.batches as f64, "count"));
    m.push(("batcher.mean_batch", snap.mean_batch_size, "count"));
    m.push(("batcher.steals", snap.steals as f64, "count"));
    m.push(("batcher.panics", snap.panics_caught as f64, "count"));

    // ---- cache ----
    let schema = li.model.schema();
    let cache = ShardedCache::new(4096, 8);
    if li.repeated_keys {
        for q in li.queries {
            cache.insert(canonical_key_from_parts(schema, 0, &q.preds, &q.intervals), 1.0);
        }
    }
    let (_, lookup_ns) = rec.time("layer.cache", Some(root), || {
        per_item_ns(15, li.queries.len(), || {
            for q in li.queries {
                let key = canonical_key_from_parts(schema, 0, &q.preds, &q.intervals);
                black_box(cache.get(&key));
            }
        })
    });
    m.push(("cache.hit_rate", snap.cache_hit_rate, "ratio"));
    m.push(("cache.lookups", (snap.cache_hits + snap.cache_misses) as f64, "count"));
    m.push(("cache.lookup_ns", lookup_ns, "ns"));

    // ---- core ----
    let bmean = snap.mean_batch_size.round().clamp(1.0, 64.0) as usize;
    let mut ws = DuetWorkspace::new();
    let mut out = Vec::new();
    let rows: Vec<_> = li.queries.iter().cycle().take(64).map(|q| q.preds.clone()).collect();
    let ivs: Vec<_> = li.queries.iter().cycle().take(64).map(|q| q.intervals.clone()).collect();
    for (name, b) in [
        ("core.forward_us.b1", 1usize),
        ("core.forward_us.bmean", bmean),
        ("core.forward_us.b64", 64),
    ] {
        li.model.estimate_encoded_batch_with(&rows[..b], &ivs[..b], &mut ws, &mut out);
        let (_, ns) = rec.time("layer.core", Some(root), || {
            per_item_ns(25, 1, || {
                li.model.estimate_encoded_batch_with(&rows[..b], &ivs[..b], &mut ws, &mut out);
                black_box(&out);
            })
        });
        m.push((name, ns / 1e3, "us"));
    }

    // ---- tier ----
    let spill = out_dir().join(format!("layer-spill-{}", std::process::id()));
    let slot = ModelSlot::new(li.model.clone());
    let (mut evict_ms, mut reload_ms) = (Vec::new(), Vec::new());
    rec.time("layer.tier", Some(root), || -> Result<(), String> {
        for _ in 0..5 {
            let start = Instant::now();
            slot.evict(Some(&spill)).map_err(|e| format!("evict: {e}"))?;
            evict_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            black_box(slot.current());
            reload_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(())
    })
    .1?;
    let _ = std::fs::remove_dir_all(&spill);
    m.push(("tier.evictions", snap.model_evictions as f64, "count"));
    m.push(("tier.reloads", snap.model_reloads as f64, "count"));
    m.push(("tier.reload_failures", snap.reload_failures as f64, "count"));
    m.push(("tier.spill_failures", snap.spill_failures as f64, "count"));
    m.push(("tier.evict_ms", stats::median(&evict_ms), "ms"));
    m.push(("tier.reload_ms", stats::median(&reload_ms), "ms"));

    // ---- trainer ----
    let epoch_s: Vec<f64> = run.epochs.iter().map(|e| e.seconds).collect();
    let tps: Vec<f64> =
        run.epochs.iter().map(|e| e.tuples_processed as f64 / e.seconds.max(1e-9)).collect();
    m.push(("trainer.epoch_s", stats::median(&epoch_s), "s"));
    m.push(("trainer.tuples_per_s", stats::median(&tps), "1/s"));

    // ---- online ---- (on a twin server with the same model and rows)
    let (_, online) = rec.time("layer.online", Some(root), || online_costs(li));
    let (ingest_us, tick_ms) = online?;
    m.push(("online.ingest_us", ingest_us, "us"));
    if !c.report.metrics.iter().any(|(n, ..)| n == "online.tick_ms") {
        m.push(("online.tick_ms", tick_ms, "ms"));
    }
    m.push(("online.ingest_p99_us", run.ingest_p99, "us"));
    m.push(("online.drift_ticks", snap.drift_detections as f64, "count"));
    m.push(("online.retrains", snap.retrains as f64, "count"));
    m.push(("online.swaps", snap.swaps_published as f64, "count"));
    m.push(("online.feedback_rejected", snap.feedback_rejected as f64, "count"));

    // ---- loadgen and run-level ----
    m.push(("loadgen.late_p99_us", ev.late_p99, "us"));
    m.push(("failed_share", ev.failed as f64 / ev.attempted.max(1) as f64, "ratio"));
    m.push(("latency.samples", ev.samples as f64, "count"));
    m.push(("latency.p99_pooled_us", ev.p99_pooled, "us"));
    m.push(("latency.p99_median_window_us", ev.p99, "us"));

    rec.close(root);
    let self_us = rec.self_time_medians_us();
    for (span, name) in [
        ("request", "span.request.self_us"),
        ("client.send", "span.client_send.self_us"),
        ("client.decode", "span.client_decode.self_us"),
    ] {
        m.push((name, self_us.get(span).copied().unwrap_or(0.0), "us"));
    }
    let path = out_dir().join(format!("spans-{}-{}.jsonl", c.args.workload, c.args.seed));
    rec.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
    c.report.note(format!("spans written to {}", path.display()));
    for (name, value, unit) in m {
        c.report.metric(name, value, unit);
    }
    Ok(())
}

/// `DuetServer::ingest` latency (µs, median) and the duration of the
/// retraining `maintain_online` tick (ms) on a twin server holding the
/// same model, after ingesting the workload's shifted rows.
fn online_costs(li: &LayerInputs<'_>) -> Result<(f64, f64), String> {
    let twin = DuetServer::new(ServeConfig::default());
    twin.register("twin", li.model.clone());
    twin.enable_online("twin", li.online_table.clone(), OnlineConfig::default())
        .map_err(|e| format!("twin enable_online: {e}"))?;
    let mut ingest_us = Vec::with_capacity(li.online_rows.len());
    for row in li.online_rows {
        let start = Instant::now();
        twin.ingest("twin", row).map_err(|e| format!("twin ingest: {e}"))?;
        ingest_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut tick_ms = 0.0;
    for _ in 0..4 {
        let start = Instant::now();
        let report = twin.maintain_online("twin").map_err(|e| format!("twin tick: {e}"))?;
        if report.retrained {
            tick_ms = start.elapsed().as_secs_f64() * 1e3;
            break;
        }
    }
    twin.shutdown(std::time::Duration::from_secs(5));
    Ok((stats::median(&ingest_us), tick_ms))
}
