//! The outside-in rollout: the agent is rebuilt from its public parts
//! exactly as `RlCcd::init` builds it, and one trajectory is stepped
//! through `EpGnn::forward`, `ActionEncoder::step`,
//! `AttentionDecoder::decode` and `SelectionMask::select` with a span
//! around each call. The replay must select exactly what `RlCcd::rollout`
//! does for the same seed, or its accounts describe some other program.

use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{ActionEncoder, AttentionDecoder, CcdEnv, EpGnn, RlConfig, SelectionMask};
use rl_ccd_netlist::{CellId, EndpointId};
use rl_ccd_nn::{ParamBinding, ParamSet, Tape, Var};
use std::sync::Arc;

/// The model's parts, in `RlCcd::init` order.
pub struct Parts {
    config: RlConfig,
    gnn: EpGnn,
    encoder: ActionEncoder,
    decoder: AttentionDecoder,
    /// The freshly initialised parameters.
    pub params: ParamSet,
}

impl Parts {
    /// Initialises the parts with one RNG seeded from `config.seed`,
    /// drawing in the same order as `RlCcd::init`.
    pub fn init(config: &RlConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = ParamSet::new();
        let gnn = EpGnn::init(config, &mut params, &mut rng);
        let encoder = ActionEncoder::init(config, &mut params, &mut rng);
        let decoder = AttentionDecoder::init(config, &mut params, &mut rng);
        Self {
            config: config.clone(),
            gnn,
            encoder,
            decoder,
            params,
        }
    }

    /// One sampled trajectory with per-call spans (`core.features`,
    /// `core.epgnn`, `core.encoder`, `core.decoder`, `core.mask`) under a
    /// `core.rollout` span.
    pub fn rollout(&self, params: &ParamSet, env: &CcdEnv, seed: u64, tr: &Tracer) -> Replayed {
        let _rollout = tr.span("core.rollout");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tape = Tape::new();
        let binding = params.bind(&mut tape);
        let pool = env.pool();
        let mut mask = SelectionMask::new(pool.len(), self.config.rho);
        let (mut state, mut prev_embed) = self.encoder.start(&mut tape);
        let mut selected = Vec::new();
        let mut total: Option<Var> = None;
        while mask.any_valid() {
            let x = {
                let _s = tr.span("core.features");
                let flags: Vec<CellId> = mask
                    .flagged()
                    .iter()
                    .map(|&i| env.pool_cells()[i])
                    .collect();
                tape.leaf(env.features().with_flags(&flags))
            };
            let embeddings = {
                let _s = tr.span("core.epgnn");
                self.gnn
                    .forward(&mut tape, &binding, x, env.adjacency(), env.readout())
            };
            state = {
                let _s = tr.span("core.encoder");
                self.encoder.step(&mut tape, &binding, prev_embed, state)
            };
            let valid = {
                let _s = tr.span("core.mask");
                mask.valid_mask()
            };
            let step = {
                let _s = tr.span("core.decoder");
                self.decoder.decode(
                    &mut tape,
                    &binding,
                    embeddings,
                    state.query(),
                    &valid,
                    &mut rng,
                )
            };
            {
                let _s = tr.span("core.mask");
                mask.select(step.action, env.cones());
            }
            selected.push(pool[step.action]);
            prev_embed = tape.gather_rows(embeddings, Arc::new(vec![step.action as u32]));
            total = Some(match total {
                Some(acc) => tape.add(acc, step.action_log_prob),
                None => step.action_log_prob,
            });
        }
        Replayed {
            selected,
            total_log_prob: total.expect("a rollout starts only on a non-empty pool"),
            tape,
            binding,
        }
    }
}

/// A replayed trajectory with its tape, ready for backward.
pub struct Replayed {
    /// Selected endpoints in order.
    pub selected: Vec<EndpointId>,
    /// Σ log π(a_t | s_t).
    pub total_log_prob: Var,
    /// The trajectory's tape.
    pub tape: Tape,
    /// Parameter handles on the tape.
    pub binding: ParamBinding,
}

impl Replayed {
    /// The summed log-probability's value.
    pub fn log_prob(&self) -> f32 {
        self.tape.value(self.total_log_prob).data()[0]
    }
}
