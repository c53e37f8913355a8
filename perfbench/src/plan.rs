//! The workload generator: every input a run hands the program is a pure
//! function of the workload name and `--seed` (and, for the amount of
//! work, `--seconds`). Nothing here calls into the crates under test, so
//! a change to the program cannot change the inputs it is measured on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_ccd_serve::{DesignKey, Mode};
use std::time::Duration;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// REINFORCE on one ~5k-cell design.
    Train,
    /// Authenticated queries on two small designs over TCP, on a ladder
    /// of arrival rates.
    TenantHot,
    /// Sampled queries on ~1.2k-cell designs with experience logging,
    /// then one offline retrain.
    LearnLoop,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [Workload::Train, Workload::TenantHot, Workload::LearnLoop];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::TenantHot => "tenant-hot",
            Workload::LearnLoop => "learn-loop",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn tag(self) -> u64 {
        match self {
            Workload::Train => 0x7472_6169_6e00_0001,
            Workload::TenantHot => 0x686f_7400_0000_0002,
            Workload::LearnLoop => 0x6c6f_6f70_0000_0003,
        }
    }
}

/// One REINFORCE workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrainPlan {
    /// The design trained on.
    pub design: DesignKey,
    /// `RlConfig::seed`: weight init and every rollout's sampling.
    pub rl_seed: u64,
    /// Seeds the trajectory of the replay check and the layer probes.
    pub probe_seed: u64,
    /// Iterations per training run excluded from timing.
    pub warmup: usize,
    /// Timed iterations per training run.
    pub measured: usize,
    /// Same-seed training runs per benchmark run: at least two, so the
    /// determinism check always has a pair, and enough that the median
    /// spans several allocator states (each training run settles in one).
    pub runs: usize,
}

/// One query of an open-loop phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// When it is due, from the start of its rung.
    pub due: Duration,
    /// Which of the generator's connections sends it.
    pub conn: usize,
    /// Index into [`ServePlan::designs`].
    pub design: usize,
    /// Greedy or a seeded sample.
    pub mode: Mode,
}

/// A fixed arrival rate and its arrival schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rung {
    /// Nominal arrivals per second; infinite for a closed loop.
    pub rate: f64,
    /// Arrivals in due order.
    pub queries: Vec<Query>,
}

impl Rung {
    /// When the last query is due.
    pub fn span(&self) -> Duration {
        self.queries.last().map_or(Duration::ZERO, |q| q.due)
    }

    /// Whether this is a closed loop: each connection sends its next query
    /// as soon as the reply to the previous one arrives.
    pub fn closed(&self) -> bool {
        self.rate.is_infinite()
    }
}

/// One open-loop serving workload.
#[derive(Clone, Debug, PartialEq)]
pub struct ServePlan {
    /// The designs queried.
    pub designs: Vec<DesignKey>,
    /// Rungs in the order they run; the first is the nominal rate.
    pub rungs: Vec<Rung>,
    /// A closed-loop phase of greedy queries (tenant-hot).
    pub back_to_back: Option<Rung>,
    /// Seed for the offline retrain (learn-loop).
    pub retrain_seed: u64,
}

/// Connections (and load-generator threads) of the serving workloads.
pub const CONNECTIONS: usize = 2;
/// The tenant-hot ladder, in requests per second. The first rung is the
/// nominal rate; the top is far above what a stalled front end sustains.
pub const LADDER: [f64; 8] = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0];
/// Queries per tenant-hot rung above the nominal one: a fixed count gives
/// every such rung the same tail percentile (p90, ten samples beyond it).
pub const QUERIES_PER_RUNG: usize = 100;
/// Queries at the nominal rate, whose median is `query_p50_ms`.
pub const NOMINAL_QUERIES: usize = 200;
/// Greedy queries of the tenant-hot closed loop, whose median is the op.
pub const BACK_TO_BACK_QUERIES: usize = 200;
/// Target cell count of the ~5k-cell training design.
pub const TRAIN_CELLS: usize = 4000;
/// Generator seed of the training design.
pub const TRAIN_DESIGN_SEED: u64 = 1;
/// Policy seed of the training runs: `RlConfig::default().seed`.
pub const RL_SEED: u64 = 0xCCD;
/// Target cell count of the two ~300-cell tenant-hot designs.
pub const HOT_CELLS: usize = 240;
/// Target cell count of the ~1.2k-cell learn-loop designs.
pub const LOOP_CELLS: usize = 950;
/// Learn-loop designs: far more than the serve env cache's default
/// capacity of four, so environments keep being rebuilt, and enough that
/// one run's median does not hang on a few of them (a query's cost follows
/// its design's violating-endpoint count).
pub const LOOP_DESIGNS: usize = 128;
/// The learn-loop arrival rate, requests per second: each connection is
/// busy about a fifth of the time.
pub const LOOP_RATE: f64 = 6.0;

fn rng_for(workload: Workload, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ workload.tag())
}

fn design(name: &str, cells: usize, seed: u64) -> DesignKey {
    DesignKey {
        name: name.to_string(),
        cells,
        tech: "7nm".to_string(),
        seed,
    }
}

/// The train workload. The design and the policy seed are the same for
/// every `--seed`: iteration time on one design moves by up to 1.9x with
/// the policy seed alone, through the allocator's state rather than the
/// work done (see the README), which no bound could absorb across seeds.
/// `--seed` picks the trajectory the replay check and layer probes step
/// through. `seconds` sets how many iterations are timed: about `seconds`
/// of iterations in all at ~2.6 s each on a 2-core box.
pub fn train(seed: u64, seconds: u64) -> TrainPlan {
    let mut rng = rng_for(Workload::Train, seed);
    TrainPlan {
        design: design("train", TRAIN_CELLS, TRAIN_DESIGN_SEED),
        rl_seed: RL_SEED,
        probe_seed: rng.next_u64(),
        warmup: 1,
        measured: (seconds as usize / 10).max(2),
        runs: 4,
    }
}

/// The tenant-hot workload for `seed`: two designs, the ladder with half
/// greedy queries and half seeded samples, and a closed loop of greedy
/// queries.
pub fn tenant_hot(seed: u64) -> ServePlan {
    let mut rng = rng_for(Workload::TenantHot, seed);
    let designs: Vec<DesignKey> = (0..2)
        .map(|i| design(&format!("hot{i}"), HOT_CELLS, rng.next_u64() % 1_000_000))
        .collect();
    let rungs = LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let count = if i == 0 {
                NOMINAL_QUERIES
            } else {
                QUERIES_PER_RUNG
            };
            schedule(&mut rng, rate, count, designs.len(), 0.5)
        })
        .collect();
    let back_to_back = schedule(
        &mut rng,
        f64::INFINITY,
        BACK_TO_BACK_QUERIES,
        designs.len(),
        1.0,
    );
    ServePlan {
        designs,
        rungs,
        back_to_back: Some(back_to_back),
        retrain_seed: 0,
    }
}

/// The learn-loop workload for `seed`: one rung of sampled queries at
/// [`LOOP_RATE`] whose length follows `seconds`.
pub fn learn_loop(seed: u64, seconds: u64) -> ServePlan {
    let mut rng = rng_for(Workload::LearnLoop, seed);
    let designs: Vec<DesignKey> = (0..LOOP_DESIGNS)
        .map(|i| design(&format!("loop{i}"), LOOP_CELLS, rng.next_u64() % 1_000_000))
        .collect();
    let count = ((seconds as f64 * LOOP_RATE) as usize).max(40);
    let rung = schedule(&mut rng, LOOP_RATE, count, designs.len(), 0.0);
    ServePlan {
        designs,
        rungs: vec![rung],
        back_to_back: None,
        retrain_seed: rng.next_u64(),
    }
}

/// Poisson arrivals at `rate`, assigned round-robin to the connections;
/// at an infinite rate every query is due at once (a closed loop).
fn schedule(rng: &mut StdRng, rate: f64, count: usize, designs: usize, greedy: f64) -> Rung {
    let mut t = 0.0f64;
    let queries = (0..count)
        .map(|i| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            let design = rng.gen_range(0..designs);
            let mode = if rng.gen_bool(greedy) {
                Mode::Greedy
            } else {
                Mode::Sample(rng.next_u64() % 1_000_000_000)
            };
            Query {
                due: Duration::from_secs_f64(t),
                conn: i % CONNECTIONS,
                design,
                mode,
            }
        })
        .collect();
    Rung { rate, queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_is_a_pure_function_of_the_seed() {
        assert_eq!(train(7, 20), train(7, 20));
        assert_eq!(tenant_hot(7), tenant_hot(7));
        assert_eq!(learn_loop(7, 20), learn_loop(7, 20));
    }

    #[test]
    fn another_seed_gives_other_designs_and_arrivals() {
        assert_ne!(train(7, 20).probe_seed, train(8, 20).probe_seed);
        let (a, b) = (tenant_hot(7), tenant_hot(8));
        assert_ne!(a.designs, b.designs);
        assert_ne!(a.rungs[0].queries, b.rungs[0].queries);
        let (a, b) = (learn_loop(7, 20), learn_loop(8, 20));
        assert_ne!(a.designs, b.designs);
        assert_ne!(a.rungs[0].queries, b.rungs[0].queries);
        assert_ne!(a.retrain_seed, b.retrain_seed);
    }

    #[test]
    fn train_trains_on_one_input_for_every_seed() {
        let (a, b) = (train(7, 30), train(8, 30));
        assert_eq!((&a.design, a.rl_seed), (&b.design, b.rl_seed));
        assert_eq!(a.rl_seed, rl_ccd::RlConfig::default().seed);
        assert!(a.runs >= 2, "the determinism check needs a pair");
        assert_eq!(a.measured, 3);
        assert!(train(7, 60).measured > a.measured);
        assert_eq!(train(7, 1).measured, 2);
    }

    #[test]
    fn workloads_draw_from_separate_streams() {
        let hot = tenant_hot(7);
        let lp = learn_loop(7, 20);
        assert_ne!(hot.designs[0].seed, lp.designs[0].seed);
    }

    #[test]
    fn schedules_match_their_nominal_rates() {
        let hot = tenant_hot(3);
        assert_eq!(hot.rungs.len(), LADDER.len());
        for (i, (rung, rate)) in hot.rungs.iter().zip(LADDER).enumerate() {
            assert_eq!(rung.rate, rate);
            let count = if i == 0 {
                NOMINAL_QUERIES
            } else {
                QUERIES_PER_RUNG
            };
            assert_eq!(rung.queries.len(), count);
            assert!(rung.queries.windows(2).all(|w| w[0].due <= w[1].due));
            let achieved = rung.queries.len() as f64 / rung.span().as_secs_f64();
            assert!(
                (achieved / rate - 1.0).abs() < 0.35,
                "rate {rate}: schedule averages {achieved}"
            );
            let conns: Vec<usize> = rung.queries.iter().map(|q| q.conn).collect();
            assert!(conns.iter().all(|&c| c < CONNECTIONS));
        }
        let greedy = hot
            .rungs
            .iter()
            .flat_map(|r| &r.queries)
            .filter(|q| q.mode == Mode::Greedy)
            .count();
        let total: usize = hot.rungs.iter().map(|r| r.queries.len()).sum();
        assert!(
            greedy > total / 3 && greedy < 2 * total / 3,
            "{greedy} of {total}"
        );
        let closed = hot.back_to_back.expect("tenant-hot has a closed loop");
        assert!(closed.closed() && !hot.rungs[0].closed());
        assert_eq!(closed.queries.len(), BACK_TO_BACK_QUERIES);
        assert!(closed
            .queries
            .iter()
            .all(|q| q.mode == Mode::Greedy && q.due == Duration::ZERO));
        assert!(learn_loop(3, 20).back_to_back.is_none());
    }

    #[test]
    fn learn_loop_samples_only_and_scales_with_seconds() {
        let short = learn_loop(1, 10);
        let long = learn_loop(1, 40);
        assert!(long.rungs[0].queries.len() > short.rungs[0].queries.len());
        assert!(long.rungs[0]
            .queries
            .iter()
            .all(|q| matches!(q.mode, Mode::Sample(_))));
        assert_eq!(long.designs.len(), LOOP_DESIGNS);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
