//! The `train` workload: REINFORCE on one ~5k-cell 7nm design with the
//! paper's model dimensions and two rollout workers, a fixed iteration
//! count (patience off), warm-up iterations excluded from timing.

use crate::layers;
use crate::plan::TrainPlan;
use crate::procfs::Usage;
use crate::report::{Json, Report};
use crate::stats::median;
use crate::trace::{Guard, Tracer};
use rl_ccd::{
    try_train_with, CcdEnv, ExecutorBatch, LocalExecutor, RlCcd, RlConfig, RolloutExecutor,
    RolloutRequest, TrainOutcome, TrainSession,
};
use rl_ccd_flow::FlowResult;
use std::time::Instant;

/// Set-ups timed per block. A run times a block before each training run
/// and one after the last, and `setup_s` is the median over every block:
/// the host's speed moves in spells of a few seconds, and one block sees
/// only one.
const SETUP_BLOCK: usize = 7;
/// Rollout workers (the box has two cores).
const WORKERS: usize = 2;

/// Wraps the in-process executor and clocks every batch. In a traced
/// benchmark run every odd iteration is traced: its batch and the rest of
/// the iteration run under spans, with the program's obs recorder attached
/// to the trainer thread (the executor hands it to the rollout workers).
/// Even iterations run bare, so traced and untraced iterations of one
/// training run compare under the same allocator and host state.
struct Clocked {
    tr: Tracer,
    recorder: Option<rl_ccd_obs::Recorder>,
    starts: Vec<Instant>,
    traced: Vec<bool>,
    /// Held for the current traced iteration; dropped when the next batch
    /// starts (span first, then the obs attachment).
    open: Option<(Guard, rl_ccd_obs::AttachGuard)>,
    traced_batch_ns: u64,
}

impl Clocked {
    fn new(tr: &Tracer) -> Self {
        Self {
            tr: tr.clone(),
            recorder: tr.enabled().then(rl_ccd_obs::Recorder::new),
            starts: Vec::new(),
            traced: Vec::new(),
            open: None,
            traced_batch_ns: 0,
        }
    }
}

impl std::fmt::Debug for Clocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clocked")
            .field("batches", &self.starts.len())
            .finish()
    }
}

impl RolloutExecutor for Clocked {
    fn run_batch(&mut self, req: &RolloutRequest<'_>) -> ExecutorBatch {
        self.open = None;
        let t = Instant::now();
        let trace = self.recorder.is_some() && self.starts.len() % 2 == 1;
        self.starts.push(t);
        self.traced.push(trace);
        let Some(rec) = self.recorder.as_ref().filter(|_| trace) else {
            return LocalExecutor.run_batch(req);
        };
        let attached = rl_ccd_obs::attach(rec);
        self.open = Some((self.tr.span("train.iteration"), attached));
        let batch = {
            let _s = self.tr.span("core.rollout_batch");
            LocalExecutor.run_batch(req)
        };
        self.traced_batch_ns += t.elapsed().as_nanos() as u64;
        batch
    }
}

/// One training run: its outcome and timed iterations as (seconds, traced).
fn train_once(
    env: &rl_ccd::CcdEnv,
    config: &RlConfig,
    warmup: usize,
    clocked: &mut Clocked,
) -> Result<(TrainOutcome, Vec<(f64, bool)>), String> {
    let outcome =
        try_train_with(env, config, TrainSession::default(), clocked).map_err(|e| e.to_string())?;
    clocked.open = None;
    let mut bounds = std::mem::take(&mut clocked.starts);
    bounds.push(Instant::now());
    let traced = std::mem::take(&mut clocked.traced);
    let iters = bounds
        .windows(2)
        .zip(traced)
        .skip(warmup)
        .map(|(w, t)| ((w[1] - w[0]).as_secs_f64(), t))
        .collect();
    Ok((outcome, iters))
}

/// Times [`SETUP_BLOCK`] set-ups (design generation, environment build,
/// default flow, model init) into `times`; returns the last environment
/// and its default-flow result.
fn setup_block(plan: &TrainPlan, config: &RlConfig, times: &mut Vec<f64>) -> (CcdEnv, FlowResult) {
    let mut built = None;
    for _ in 0..SETUP_BLOCK {
        let t = Instant::now();
        let env = rl_ccd_exp::build_env(&plan.design, config.fanout_cap)
            .expect("the train design is on a known technology node");
        let base = env.default_flow();
        let model = RlCcd::init(config.clone());
        times.push(t.elapsed().as_secs_f64());
        drop(model);
        built = Some((env, base));
    }
    built.expect("a block has set-ups")
}

/// Runs the workload and fills `report`.
pub fn run(plan: &TrainPlan, tr: &Tracer, report: &mut Report) {
    let config = RlConfig {
        seed: plan.rl_seed,
        workers: WORKERS,
        max_iterations: plan.warmup + plan.measured,
        patience: usize::MAX,
        ..RlConfig::default()
    };

    let mut setups = Vec::new();
    let (env, base) = setup_block(plan, &config, &mut setups);
    let base_tns = base.final_qor.tns_ps;
    report.note("design", Json::Str(plan.design.to_string()));
    report.note("cells", Json::Num(env.design().netlist.cell_count() as f64));
    report.note("pool", Json::Num(env.pool().len() as f64));
    report.note("rl_seed", Json::Str(plan.rl_seed.to_string()));
    report.note(
        "iterations",
        Json::Str(format!(
            "{} runs x ({} warm-up + {} timed), {WORKERS} workers",
            plan.runs, plan.warmup, plan.measured
        )),
    );

    crate::procfs::reset_peak_rss();
    let usage = Usage::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut outcomes = Vec::new();
    let mut clocked = Clocked::new(tr);
    for run in 0..plan.runs {
        if run > 0 {
            setup_block(plan, &config, &mut setups);
        }
        report.attempted += (plan.warmup + plan.measured) as u64;
        match train_once(&env, &config, plan.warmup, &mut clocked) {
            Ok((outcome, iters)) => {
                for (s, t) in iters {
                    if t {
                        traced.push(s)
                    } else {
                        untraced.push(s)
                    }
                }
                outcomes.push(outcome);
            }
            Err(e) => {
                report.failed += (plan.warmup + plan.measured) as u64;
                report.check("train_completes", false, e);
            }
        }
    }
    setup_block(plan, &config, &mut setups);
    let used = Usage::now().since(usage);
    report.e2e("peak_rss_mb", crate::procfs::peak_rss_mb(), "MB");

    if let Some(first) = outcomes.first() {
        let same = outcomes.iter().all(|o| {
            o.best_selection == first.best_selection
                && o.best_result.final_qor.tns_ps.to_bits()
                    == first.best_result.final_qor.tns_ps.to_bits()
        });
        report.check(
            "same_seed_training_is_deterministic",
            same && outcomes.len() == plan.runs,
            format!(
                "{} runs, final TNS {:?} ps, {} endpoints selected",
                outcomes.len(),
                outcomes
                    .iter()
                    .map(|o| o.best_result.final_qor.tns_ps)
                    .collect::<Vec<_>>(),
                first.best_selection.len()
            ),
        );
    }

    let iter_s = median(&untraced).unwrap_or(f64::NAN);
    let gain = outcomes.first().map_or(f64::NAN, |o| {
        100.0 * (o.best_result.final_qor.tns_ps - base_tns) / base_tns.abs()
    });
    report.setup(&setups);
    report.e2e("train_iter_s", iter_s, "s");
    report.e2e("train_tns_gain_pct", gain, "%");
    report.e2e("op_ms", iter_s * 1e3, "ms");
    report.note("iteration_s", crate::report::samples(&untraced));
    report.note("default_flow_tns_ps", Json::Num(base_tns));

    if let Some(rec) = &clocked.recorder {
        let traced_s = median(&traced).unwrap_or(f64::NAN);
        report.layer(
            "bench.trace_overhead_share",
            traced_s / iter_s - 1.0,
            "ratio",
        );
        // Rollout busy time from the trainer's own obs spans, over the
        // traced iterations' batch wall time.
        let busy: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == "train.rollout")
            .map(|s| s.dur_ns)
            .sum();
        report.layer(
            "core.parallel_efficiency",
            busy as f64 / (WORKERS as f64 * clocked.traced_batch_ns.max(1) as f64),
            "ratio",
        );
    }
    report.layer("proc.cpu_user_s", used.user_s, "s");
    report.layer("proc.cpu_sys_s", used.sys_s, "s");
    report.layer("proc.minor_faults", used.minor_faults as f64, "count");

    // The replay check and layer probes run on the trained policy.
    let params = outcomes
        .last()
        .map_or_else(|| RlCcd::init(config.clone()).1, |o| o.params.clone());
    layers::probe(report, tr, &config, &params, &plan.design, plan.probe_seed);
}
