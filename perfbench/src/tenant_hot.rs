//! The `tenant-hot` workload: authenticated queries to the daemon's
//! tenant port over TCP on two ~300-cell designs that fit both serve
//! caches, half greedy (selection-cache hits after the warm-up) and half
//! seeded samples, on a fixed ladder of arrival rates, and a closed loop
//! of greedy queries sent back to back on each connection.

use crate::plan::ServePlan;
use crate::report::{Json, Report};
use crate::serving::{self, Harness, RungResult, LIMIT};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use rl_ccd_serve::Mode;
use std::path::Path;
use std::time::Instant;

/// Runs the workload and fills `report`.
pub fn run(plan: &ServePlan, seed: u64, tr: &Tracer, work: &Path, report: &mut Report) {
    if let Err(e) = run_inner(plan, seed, tr, work, report) {
        report.check("tenant_hot_runs", false, e);
    }
}

fn run_inner(
    plan: &ServePlan,
    seed: u64,
    tr: &Tracer,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let ckpt = work.join("champion");
    let (model, params) = serving::write_checkpoint(&ckpt, seed)?;
    // Set-up blocks before the closed loop, before the ladder and at the
    // end. Warming the designs is not set-up: its cost follows how many
    // violating endpoints each seed's designs have.
    let mut setups = Vec::new();
    let mut harness = serving::setup_block(&ckpt, None, &mut setups)?;
    let t = Instant::now();
    harness.warm(&plan.designs)?;
    report.note("warm_up_ms", Json::Num(crate::layers::ms_since(t)));

    crate::procfs::reset_peak_rss();
    let usage = crate::procfs::Usage::now();
    let closed = plan
        .back_to_back
        .as_ref()
        .ok_or("tenant-hot plans have a closed loop")?;
    let back_to_back = serving::drive(
        &mut harness.clients,
        &plan.designs,
        closed,
        &Tracer::off(),
        0,
    );
    harness.stop();
    let mut harness = serving::setup_block(&ckpt, None, &mut setups)?;
    harness.warm(&plan.designs)?;
    // Untraced: the whole ladder. Traced: the nominal rung untraced for
    // the overhead baseline, then the ladder on a traced daemon.
    let untraced = ladder(&mut harness, plan, &Tracer::off(), !tr.enabled());
    let stats = harness.daemon.handle().stats();
    harness.stop();
    serving::setup_block(&ckpt, None, &mut setups)?.stop();
    report.setup(&setups);
    let mut traced = Vec::new();
    if tr.enabled() {
        let recorder = rl_ccd_obs::Recorder::new();
        let _obs = rl_ccd_obs::attach(&recorder);
        let mut h = Harness::start(&ckpt, None)?;
        h.warm(&plan.designs)?;
        traced = ladder(&mut h, plan, tr, true);
        serving::front_probe(&mut h, plan, tr, report);
        report.layer(
            "serve.batch_p50",
            h.daemon.handle().stats().batch_p50() as f64,
            "count",
        );
        h.stop();
        report.layer(
            "serve.env_cache_hit_ratio",
            serving::env_cache_hit_ratio(&recorder),
            "ratio",
        );
    } else {
        report.layer("serve.batch_p50", stats.batch_p50() as f64, "count");
    }
    let used = crate::procfs::Usage::now().since(usage);
    report.e2e("peak_rss_mb", crate::procfs::peak_rss_mb(), "MB");

    let ladder_rungs: &[RungResult] = if tr.enabled() { &traced } else { &untraced };
    let rungs: Vec<&RungResult> = std::iter::once(&back_to_back)
        .chain(&untraced)
        .chain(&traced)
        .collect();
    for r in &rungs {
        serving::count(report, r);
    }
    let (checked, bad, first) = serving::check_parity(&model, &params, &plan.designs, &rungs)?;
    report.check(
        "served_equals_in_process",
        bad == 0 && checked > 0,
        if bad == 0 {
            format!("{checked} selections checked")
        } else {
            format!("{bad} of {checked} differ; first: {first}")
        },
    );

    let nominal = &untraced[0];
    let lat = nominal.latencies();
    let p50 = median(&lat).unwrap_or(f64::NAN);
    report.e2e("query_p50_ms", p50, "ms");
    match tail(&lat) {
        Some(t) => {
            report.e2e("query_tail_ms", t.value, "ms");
            report.note(
                "query_tail",
                Json::Str(format!(
                    "p{:.1} of {} queries at {} req/s",
                    t.percentile, t.samples, nominal.rate
                )),
            );
        }
        None => report.check(
            "nominal_rung_has_a_tail",
            false,
            format!("{} served", lat.len()),
        ),
    }
    let slo = ladder_rungs
        .iter()
        .take_while(|r| r.sustained())
        .last()
        .map_or(0.0, |r| r.achieved_rps());
    report.e2e("slo_rps", slo, "req/s");
    let (throttled, refused, failed) = serving::error_kinds(&rungs);
    let sent: usize = rungs.iter().map(|r| r.sent()).sum();
    report.e2e(
        "error_rate",
        (throttled + refused + failed) as f64 / sent.max(1) as f64,
        "ratio",
    );
    let class_p50 = |greedy: bool| {
        let lat: Vec<f64> = nominal
            .served()
            .filter(|s| (s.mode == Mode::Greedy) == greedy)
            .map(|s| s.latency_ms)
            .collect();
        median(&lat).unwrap_or(f64::NAN)
    };
    report.e2e("query_p50_greedy_ms", class_p50(true), "ms");
    report.e2e("query_p50_sample_ms", class_p50(false), "ms");
    // The op in the result line is a greedy query sent back to back on its
    // connection: a selection-cache hit whose cost is all front end and
    // batching, with no idle gap for the front-end stall to hide in, and
    // which does not depend on how many violating endpoints the seeded
    // designs happen to have.
    let b2b = median(&back_to_back.latencies()).unwrap_or(f64::NAN);
    report.e2e("query_p50_back_to_back_ms", b2b, "ms");
    report.e2e("op_ms", b2b, "ms");
    report.note("latency_limit_ms", Json::Num(LIMIT.as_secs_f64() * 1e3));
    report.note("ladder", serving::rung_notes(ladder_rungs));
    if let Some(e) = serving::first_error(&rungs) {
        report.note("first_error", Json::Str(e));
    }

    let served: Vec<_> = rungs.iter().flat_map(|r| r.served()).collect();
    let cached = served
        .iter()
        .filter(|s| matches!(&s.outcome, serving::Outcome::Served(r) if r.cached))
        .count();
    report.layer(
        "serve.selection_cache_hit_ratio",
        cached as f64 / served.len().max(1) as f64,
        "ratio",
    );
    report.layer("bench.gen_lag_ms", serving::gen_lag_ms(&rungs), "ms");
    if let Some(t) = traced.first().and_then(|r| median(&r.latencies())) {
        report.layer("bench.trace_overhead_share", t / p50 - 1.0, "ratio");
    }
    report.layer("proc.cpu_user_s", used.user_s, "s");
    report.layer("proc.cpu_sys_s", used.sys_s, "s");
    report.layer("proc.minor_faults", used.minor_faults as f64, "count");

    let config = rl_ccd::RlConfig {
        seed,
        ..rl_ccd::RlConfig::default()
    };
    crate::layers::probe(
        report,
        tr,
        &config,
        &params,
        &plan.designs[0],
        seed ^ 0x5eed,
    );
    Ok(())
}

/// Runs the nominal rung, then (when `full`) the rest of the ladder until
/// a rung misses the limit.
fn ladder(h: &mut Harness, plan: &ServePlan, tr: &Tracer, full: bool) -> Vec<RungResult> {
    let mut out = Vec::new();
    for (i, rung) in plan.rungs.iter().enumerate() {
        let r = serving::drive(
            &mut h.clients,
            &plan.designs,
            rung,
            tr,
            (i as u64 + 1) << 32,
        );
        let sustained = r.sustained();
        out.push(r);
        if !full || (!sustained && i > 0) {
            break;
        }
    }
    out
}
