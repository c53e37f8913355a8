//! The `learn-loop` workload: seeded sampled queries at one fixed rate
//! through a daemon that logs experience, on ~1.2k-cell designs whose
//! working set dwarfs the serve env cache, then one
//! `exp::retrain` from the log the phase wrote.

use crate::plan::ServePlan;
use crate::report::{Json, Report};
use crate::serving::{self, Harness, RungResult};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use rl_ccd::{fnv1a64, RlCcd};
use rl_ccd_exp::{retrain, ExpRecord, ReplayBuffer, RetrainConfig, RetrainReport, SinkReport};
use rl_ccd_netlist::EndpointId;
use rl_ccd_nn::ParamSet;
use rl_ccd_serve::DesignKey;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Runs the workload and fills `report`.
pub fn run(plan: &ServePlan, seed: u64, tr: &Tracer, work: &Path, report: &mut Report) {
    if let Err(e) = run_inner(plan, seed, tr, work, report) {
        report.check("learn_loop_runs", false, e);
    }
}

/// One serving phase: its rung and the sink's accounting.
struct Phase {
    rung: RungResult,
    sink: Option<SinkReport>,
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
    let log_a = work.join("exp-a.jsonl");
    // Set-up blocks before the load, after it and after each retrain; the
    // later ones log to a file of their own.
    let mut setups = Vec::new();
    let mut harness = serving::setup_block(&ckpt, Some(&log_a), &mut setups)?;
    let log_setup = work.join("exp-setup.jsonl");
    let setup_block = |setups: &mut Vec<f64>| {
        serving::setup_block(&ckpt, Some(&log_setup), setups).map(Harness::stop)
    };

    crate::procfs::reset_peak_rss();
    let usage = crate::procfs::Usage::now();
    let rung = serving::drive(
        &mut harness.clients,
        &plan.designs,
        &plan.rungs[0],
        &Tracer::off(),
        1 << 32,
    );
    let stats = harness.daemon.handle().stats();
    let untraced = Phase {
        rung,
        sink: harness.stop().experience,
    };
    // CPU time of the phase in every thread of the process: daemon, serve
    // workers, the experience sink (drained by the stop) and the load
    // generator.
    let phase_cpu = crate::procfs::Usage::now().since(usage);
    setup_block(&mut setups)?;

    // A traced run serves the same schedule again on a traced daemon; its
    // log must retrain to the same checkpoint as the untraced one.
    let mut traced = None;
    let log_b = work.join("exp-b.jsonl");
    if tr.enabled() {
        let recorder = rl_ccd_obs::Recorder::new();
        let _obs = rl_ccd_obs::attach(&recorder);
        let mut h = Harness::start(&ckpt, Some(log_b.clone()))?;
        let rung = serving::drive(&mut h.clients, &plan.designs, &plan.rungs[0], tr, 1 << 32);
        serving::front_probe(&mut h, plan, tr, report);
        report.layer(
            "serve.batch_p50",
            h.daemon.handle().stats().batch_p50() as f64,
            "count",
        );
        let sink = h.stop().experience;
        report.layer(
            "serve.env_cache_hit_ratio",
            serving::env_cache_hit_ratio(&recorder),
            "ratio",
        );
        traced = Some(Phase { rung, sink });
    } else {
        report.layer("serve.batch_p50", stats.batch_p50() as f64, "count");
    }

    report.note(
        "peak_rss_serving_mb",
        Json::Num(crate::procfs::peak_rss_mb()),
    );
    let cfg = RetrainConfig {
        seed: plan.retrain_seed,
        ..RetrainConfig::default()
    };
    let out_a = work.join("retrained-a");
    let t = Instant::now();
    let first = retrain(&ckpt, &log_a, &out_a, &cfg).map_err(|e| format!("retrain: {e}"));
    let retrain_s = t.elapsed().as_secs_f64();
    report.attempted += 1;
    if first.is_err() {
        report.failed += 1;
    }
    setup_block(&mut setups)?;
    // The second retrain: from the traced phase's log, or from the same
    // log in reverse line order. Either must give the same bytes.
    let (log_2, what) = if tr.enabled() {
        (log_b.clone(), "traced phase's log")
    } else {
        let reversed = work.join("exp-a-reversed.jsonl");
        reverse_lines(&log_a, &reversed)?;
        (reversed, "reversed log")
    };
    let out_2 = work.join("retrained-2");
    let second = {
        let _s = tr.span("exp.retrain");
        retrain(&ckpt, &log_2, &out_2, &cfg).map_err(|e| format!("retrain: {e}"))
    };
    setup_block(&mut setups)?;
    report.setup(&setups);
    report.attempted += 1;
    if second.is_err() {
        report.failed += 1;
    }
    let used = crate::procfs::Usage::now().since(usage);
    report.e2e("peak_rss_mb", crate::procfs::peak_rss_mb(), "MB");
    let (hash_a, hash_2) = (state_hash(&out_a), state_hash(&out_2));
    report.check(
        "retrain_is_reproducible",
        first.is_ok() && second.is_ok() && hash_a.is_some() && hash_a == hash_2,
        format!(
            "state.txt fnv1a64 {} vs {} from the {what}",
            hex(hash_a),
            hex(hash_2)
        ),
    );
    report.note("retrained_state_fnv1a64", Json::Str(hex(hash_a)));
    if let Ok(r) = &first {
        report.note("retrain", retrain_notes(r));
    }

    let rungs: Vec<&RungResult> = std::iter::once(&untraced.rung)
        .chain(traced.as_ref().map(|p| &p.rung))
        .collect();
    for r in &rungs {
        serving::count(report, r);
    }
    let (checked, bad, first_bad) = serving::check_parity(&model, &params, &plan.designs, &rungs)?;
    report.check(
        "served_equals_in_process",
        bad == 0 && checked > 0,
        if bad == 0 {
            format!("{checked} selections checked")
        } else {
            format!("{bad} of {checked} differ; first: {first_bad}")
        },
    );

    let lat = untraced.rung.latencies();
    let p50 = median(&lat).unwrap_or(f64::NAN);
    report.e2e("query_p50_ms", p50, "ms");
    match tail(&lat) {
        Some(t) => {
            report.e2e("query_tail_ms", t.value, "ms");
            report.note(
                "query_tail",
                Json::Str(format!(
                    "p{:.1} of {} queries at {} req/s",
                    t.percentile, t.samples, untraced.rung.rate
                )),
            );
        }
        None => report.check("rung_has_a_tail", false, format!("{} served", lat.len())),
    }
    let (throttled, refused, failed) = serving::error_kinds(&rungs);
    let sent: usize = rungs.iter().map(|r| r.sent()).sum();
    report.e2e(
        "error_rate",
        (throttled + refused + failed) as f64 / sent.max(1) as f64,
        "ratio",
    );
    report.e2e("retrain_s", retrain_s, "s");
    let query_cpu_ms =
        (phase_cpu.user_s + phase_cpu.sys_s) * 1e3 / untraced.rung.served().count().max(1) as f64;
    report.e2e("query_cpu_ms", query_cpu_ms, "ms");
    report.e2e("op_ms", query_cpu_ms, "ms");
    report.note(
        "rung",
        serving::rung_notes(std::slice::from_ref(&untraced.rung)),
    );
    if let Some(e) = serving::first_error(&rungs) {
        report.note("first_error", Json::Str(e));
    }

    let sinks: Vec<SinkReport> = std::iter::once(&untraced)
        .chain(traced.as_ref())
        .filter_map(|p| p.sink)
        .collect();
    report.layer(
        "exp.sink_written",
        sinks.iter().map(|s| s.written).sum::<u64>() as f64,
        "count",
    );
    report.layer(
        "exp.sink_dropped",
        sinks.iter().map(|s| s.dropped).sum::<u64>() as f64,
        "count",
    );
    report.layer("bench.gen_lag_ms", serving::gen_lag_ms(&rungs), "ms");
    if let Some(t) = traced.as_ref().and_then(|p| median(&p.rung.latencies())) {
        report.layer("bench.trace_overhead_share", t / p50 - 1.0, "ratio");
    }
    report.layer("proc.cpu_user_s", used.user_s, "s");
    report.layer("proc.cpu_sys_s", used.sys_s, "s");
    report.layer("proc.minor_faults", used.minor_faults as f64, "count");
    if tr.enabled() {
        if let Ok(r) = &second {
            let total = tr
                .spans()
                .iter()
                .filter(|s| s.name == "exp.retrain")
                .map(|s| s.dur_ns())
                .sum::<u64>();
            report.layer(
                "exp.retrain_step_ms",
                total as f64 / 1e6 / (r.new_version - r.base_version).max(1) as f64,
                "ms",
            );
        }
        exp_probe(&model, &params, &log_b, tr, report)?;
    }

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

/// Designs the traced `exp` probe rebuilds and replays one record of.
const EXP_PROBE_DESIGNS: usize = 24;

/// Times the experience layer's pieces on the traced phase's log: the
/// record codec, buffer admission, environment rebuild, and the
/// teacher-forced replay of logged trajectories.
fn exp_probe(
    model: &RlCcd,
    params: &ParamSet,
    log: &Path,
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let text = std::fs::read_to_string(log).map_err(|e| format!("read {}: {e}", log.display()))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    let t = Instant::now();
    let records: Vec<ExpRecord> = {
        let _s = tr.span("exp.record_parse");
        lines
            .iter()
            .filter_map(|l| ExpRecord::parse(l).ok())
            .collect()
    };
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    report.check(
        "experience_log_parses",
        records.len() == lines.len() && !records.is_empty(),
        format!("{} of {} lines", records.len(), lines.len()),
    );
    let version = records.first().map_or(0, |r| r.policy_version);
    let mut buffer = ReplayBuffer::new(version, 16);
    let t = Instant::now();
    {
        let _s = tr.span("exp.buffer_push");
        for r in &records {
            buffer.push(r.clone());
        }
    }
    let push_us = t.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;

    let mut keys: Vec<DesignKey> = records
        .iter()
        .filter_map(|r| r.design.parse().ok())
        .collect();
    keys.sort();
    keys.dedup();
    keys.truncate(EXP_PROBE_DESIGNS);
    let mut rebuild_ms = Vec::new();
    let mut replay_ms = Vec::new();
    for key in &keys {
        let t = Instant::now();
        let env = {
            let _s = tr.span("exp.rebuild_env");
            rl_ccd_exp::build_env(key, rl_ccd::RlConfig::default().fanout_cap)?
        };
        rebuild_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let name = key.to_string();
        if let Some(r) = records.iter().find(|r| r.design == name) {
            let actions: Vec<EndpointId> = r
                .selection
                .iter()
                .map(|&v| EndpointId::new(v as usize))
                .collect();
            let t = Instant::now();
            let _s = tr.span("exp.replay");
            let ok = model.replay_trajectory(params, &env, &actions).is_ok();
            replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !ok {
                report.check("logged_trajectory_replays", false, name.clone());
            }
        }
    }
    report.layer("exp.record_parse_us", parse_us, "us");
    report.layer("exp.buffer_push_us", push_us, "us");
    report.layer(
        "exp.rebuild_env_ms",
        median(&rebuild_ms).unwrap_or(f64::NAN),
        "ms",
    );
    report.layer(
        "exp.replay_ms",
        median(&replay_ms).unwrap_or(f64::NAN),
        "ms",
    );
    Ok(())
}

fn retrain_notes(r: &RetrainReport) -> Json {
    Json::Obj(vec![
        ("records_loaded".into(), Json::Num(r.records_loaded as f64)),
        ("steps_taken".into(), Json::Num(r.steps_taken as f64)),
        (
            "replay_failures".into(),
            Json::Num(r.replay_failures as f64),
        ),
        (
            "mean_importance_weight".into(),
            Json::Num(r.mean_importance_weight),
        ),
    ])
}

fn reverse_lines(from: &Path, to: &PathBuf) -> Result<(), String> {
    let text =
        std::fs::read_to_string(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    let mut lines: Vec<&str> = text.lines().collect();
    lines.reverse();
    let mut out = lines.join("\n");
    out.push('\n');
    std::fs::write(to, out).map_err(|e| format!("write {}: {e}", to.display()))
}

fn state_hash(dir: &Path) -> Option<u64> {
    std::fs::read(dir.join("state.txt"))
        .ok()
        .map(|b| fnv1a64(&b))
}

fn hex(h: Option<u64>) -> String {
    h.map_or_else(|| "missing".to_string(), |h| format!("{h:016x}"))
}
