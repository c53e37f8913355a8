//! Per-layer probes that every workload runs on one of its own designs:
//! design generation, environment build, STA, the flow, the outside-in
//! rollout with backward and one Adam step, and greedy and sampled
//! inference. Each probe calls one crate's public functions with a span
//! around the call.

use crate::replay::Parts;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{accounts, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{CcdEnv, InferSession, RlCcd, RlConfig};
use rl_ccd_flow::FlowRecipe;
use rl_ccd_netlist::{generate, DesignSpec, Library};
use rl_ccd_nn::{Adam, GradSet, ParamSet};
use rl_ccd_serve::DesignKey;
use rl_ccd_sta::{analyze, Constraints, EndpointMargins, TimingGraph};
use std::time::Instant;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` `reps` times under a span named `name`; returns the median
/// in ms and the last result.
fn timed<T>(tr: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let _s = tr.span(name);
        let t = Instant::now();
        last = Some(f());
        times.push(ms_since(t));
    }
    (
        median(&times).unwrap_or(0.0),
        last.expect("at least one repetition"),
    )
}

/// Runs the replay check, and with tracing on every layer probe, on the
/// design `key` with the model `config` and parameters `params`.
/// `sample_seed` seeds the replayed trajectory.
pub fn probe(
    report: &mut Report,
    tr: &Tracer,
    config: &RlConfig,
    params: &ParamSet,
    key: &DesignKey,
    sample_seed: u64,
) {
    let parts = Parts::init(config);
    let (model, fresh) = RlCcd::init(config.clone());
    report.check(
        "replay_parts_match_init",
        parts.params == fresh,
        format!("{} parameter tensors", fresh.len()),
    );
    let env = match rl_ccd_exp::build_env(key, config.fanout_cap) {
        Ok(env) => env,
        Err(e) => return report.check("replay_design_builds", false, e),
    };
    if env.pool().is_empty() {
        report.check("replay_design_has_violations", false, key.to_string());
        return;
    }

    // The outside-in replay must select exactly what the program does.
    let replayed = {
        let _s = tr.span("probe.replay");
        parts.rollout(params, &env, sample_seed, tr)
    };
    let reference = model.rollout(params, &env, &mut StdRng::seed_from_u64(sample_seed));
    let ref_lp = reference.tape.value(reference.total_log_prob).data()[0];
    report.check(
        "replay_matches_rollout",
        replayed.selected == reference.selected
            && replayed.log_prob().to_bits() == ref_lp.to_bits(),
        format!(
            "{} steps replayed, {} in RlCcd::rollout",
            replayed.selected.len(),
            reference.selected.len()
        ),
    );
    drop(reference);
    if !tr.enabled() {
        return;
    }

    let reps = 5;
    let tech = Library::parse_tech(&key.tech).expect("build_env accepted this node above");
    let spec = DesignSpec::new(key.name.clone(), key.cells, tech, key.seed);
    let (generate_ms, design) = timed(tr, "netlist.generate", reps, || generate(&spec));
    let (env_ms, _) = timed(tr, "core.env_build", reps, || {
        CcdEnv::new(design.clone(), FlowRecipe::default(), config.fanout_cap)
    });
    let netlist = &design.netlist;
    let clocks = FlowRecipe::default().clock_schedule(netlist, design.period_ps);
    let constraints = Constraints::with_period(design.period_ps);
    let (sta_ms, _) = timed(tr, "sta.analyze", reps, || {
        let graph = TimingGraph::new(netlist);
        analyze(
            netlist,
            &graph,
            &constraints,
            &clocks,
            &EndpointMargins::zero(netlist),
        )
    });
    let (flow_ms, _) = timed(tr, "flow.run", reps, || env.default_flow());

    let steps = replayed.selected.len();
    let tape_len = replayed.tape.len();
    let (backward_ms, mut grads) = timed(tr, "nn.backward", 1, || {
        replayed.tape.backward(replayed.total_log_prob)
    });
    let mut merged = GradSet::new();
    merged.accumulate(&replayed.binding, &mut grads);
    drop(replayed);
    let mut stepped = params.clone();
    let mut adam = Adam::new(config.learning_rate);
    let (adam_ms, _) = timed(tr, "nn.adam", 1, || adam.step(&mut stepped, &merged));

    let mut session = InferSession::new(&model, params);
    let (greedy_ms, _) = timed(tr, "core.greedy_eval", 3, || session.select(&env));
    let (infer_ms, _) = timed(tr, "core.infer", 3, || {
        session.sample(&env, &mut StdRng::seed_from_u64(sample_seed))
    });

    let acc = accounts(&tr.spans());
    let self_ms = |name: &str| acc.get(name).map_or(0.0, |a| a.self_ns as f64 / 1e6);
    let rollout = acc.get("core.rollout").copied().unwrap_or_default();
    let rollouts = rollout.count.max(1) as f64;
    for (metric, span) in [
        ("core.epgnn_ms", "core.epgnn"),
        ("core.features_ms", "core.features"),
        ("core.encoder_ms", "core.encoder"),
        ("core.decoder_ms", "core.decoder"),
        ("core.mask_ms", "core.mask"),
    ] {
        report.layer(metric, self_ms(span) / rollouts, "ms");
    }
    report.layer(
        "core.rollout_ms",
        rollout.total_ns as f64 / 1e6 / rollouts,
        "ms",
    );
    report.layer("core.rollout_steps", steps as f64, "count");
    report.layer(
        "core.rollout_unattributed_share",
        rollout.self_ns as f64 / rollout.total_ns.max(1) as f64,
        "ratio",
    );
    report.layer("nn.backward_ms", backward_ms, "ms");
    report.layer("nn.tape_len", tape_len as f64, "count");
    report.layer("nn.adam_ms", adam_ms, "ms");
    report.layer("core.greedy_eval_ms", greedy_ms, "ms");
    report.layer("core.infer_ms", infer_ms, "ms");
    report.layer("flow.run_ms", flow_ms, "ms");
    report.layer("sta.analyze_ms", sta_ms, "ms");
    report.layer("netlist.generate_ms", generate_ms, "ms");
    report.layer("core.env_build_ms", env_ms, "ms");

    let dominant = [
        "core.epgnn",
        "core.features",
        "core.encoder",
        "core.decoder",
        "core.mask",
    ]
    .into_iter()
    .max_by(|a, b| self_ms(a).total_cmp(&self_ms(b)))
    .expect("non-empty layer list");
    let rollout_ms = rollout.total_ns as f64 / 1e6 / rollouts;
    report.note(
        "rollout_dominant_layer",
        crate::report::Json::Str(format!(
            "{dominant}: {:.2} of {:.2} ms per rollout ({:.1}%), {} cells, {} steps",
            self_ms(dominant) / rollouts,
            rollout_ms,
            100.0 * self_ms(dominant) / rollouts / rollout_ms.max(1e-9),
            netlist.cell_count(),
            steps
        )),
    );
}
