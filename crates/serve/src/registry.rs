//! Versioned model registry: validated checkpoint loading for serving.
//!
//! A registry entry is born from a training checkpoint directory. Loading
//! goes through the same integrity gate as training resume —
//! [`rl_ccd::verify_manifest`] checks the manifest header, byte length,
//! and FNV-1a 64 checksum before a single byte is parsed — and the
//! verified bytes' checksum becomes the model's *fingerprint* (the
//! selection cache keys on it, so two registry entries with identical
//! weights share cached selections and a re-trained checkpoint never
//! serves stale ones).
//!
//! Checkpoints store parameters but not the architecture, so the registry
//! reconstructs the [`RlConfig`] from the parameter shapes themselves
//! (layer widths, encoder kind) and then cross-validates: a freshly built
//! model must want exactly the tensors the checkpoint provides, shape for
//! shape. Any mismatch is a typed [`ServeError`] at load time — never a
//! panic at query time.

use crate::protocol::ModelVersion;
use crate::ServeError;
use rl_ccd::{load_training_state, verify_manifest, EncoderKind, RlCcd, RlConfig};
use rl_ccd_nn::ParamSet;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// One loaded, validated model.
#[derive(Debug)]
pub struct ServeModel {
    /// Registry name clients address the model by.
    pub name: String,
    /// Checkpoint version: the training iteration the state would resume
    /// at (monotonically increasing as a run progresses).
    pub version: usize,
    /// FNV-1a 64 checksum of the verified state bytes.
    pub fingerprint: u64,
    /// The assembled policy.
    pub model: RlCcd,
    /// Its trained parameters.
    pub params: ParamSet,
}

impl ServeModel {
    /// Name, version and fingerprint: what health probes and audits name.
    pub fn identity(&self) -> ModelVersion {
        ModelVersion {
            name: self.name.clone(),
            version: self.version,
            fingerprint: self.fingerprint,
        }
    }
}

/// Name → model map the server answers queries from.
///
/// The map lives behind a [`RwLock`] so entries can be *hot-swapped*
/// while the server is running: [`ModelRegistry::install`] atomically
/// replaces a name's entry, and because every query batch resolves its
/// model to an `Arc<ServeModel>` once up front, in-flight work finishes
/// on the version it started with while new batches see the new one —
/// the zero-downtime reload the daemon's promotion path builds on.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ServeModel>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies and assembles the checkpoint in `dir` as `name` *without*
    /// installing it: the manifest/shape validation and model
    /// construction happen on the caller's thread, off the request path,
    /// so a follow-up [`ModelRegistry::install`] is a pointer swap.
    ///
    /// # Errors
    /// [`ServeError::Checkpoint`] when the manifest or state fails
    /// verification, [`ServeError::Registry`] when the parameter set does
    /// not describe a complete RL-CCD model.
    pub fn prepare(
        name: impl Into<String>,
        dir: impl AsRef<Path>,
        rho: f32,
    ) -> Result<Arc<ServeModel>, ServeError> {
        let name = name.into();
        let bytes = verify_manifest(&dir)?;
        let fingerprint = rl_ccd::fnv1a64(&bytes);
        let state = load_training_state(&dir)?;
        Ok(Arc::new(Self::assemble(
            name,
            state.next_iteration,
            fingerprint,
            state.params,
            rho,
        )?))
    }

    /// Atomically installs (or replaces) the entry under its own name,
    /// returning the previous occupant. Queries already grouped on the
    /// old `Arc` finish on it; the next batch resolves the new one.
    pub fn install(&self, entry: Arc<ServeModel>) -> Option<Arc<ServeModel>> {
        self.models
            .write()
            .expect("registry lock")
            .insert(entry.name.clone(), entry)
    }

    /// Atomically removes a name, returning the evicted entry.
    pub fn remove(&self, name: &str) -> Option<Arc<ServeModel>> {
        self.models.write().expect("registry lock").remove(name)
    }

    /// Loads the checkpoint in `dir` under `name`, replacing any previous
    /// entry with that name ([`ModelRegistry::prepare`] followed by
    /// [`ModelRegistry::install`]). `rho` is a serving-side knob the
    /// checkpoint does not store (the cone-overlap threshold).
    ///
    /// # Errors
    /// Same as [`ModelRegistry::prepare`].
    pub fn load(
        &self,
        name: impl Into<String>,
        dir: impl AsRef<Path>,
        rho: f32,
    ) -> Result<Arc<ServeModel>, ServeError> {
        let entry = Self::prepare(name, dir, rho)?;
        self.install(entry.clone());
        Ok(entry)
    }

    /// Registers an in-memory parameter set (tests, warm handoff from a
    /// trainer in the same process). Version 0; the fingerprint is the
    /// hash of the serialized parameters.
    ///
    /// # Errors
    /// [`ServeError::Registry`] when the set is not a complete model.
    pub fn insert_params(
        &self,
        name: impl Into<String>,
        params: ParamSet,
        rho: f32,
    ) -> Result<Arc<ServeModel>, ServeError> {
        let name = name.into();
        let mut buf = Vec::new();
        params
            .save(&mut buf)
            .map_err(|e| ServeError::Registry(format!("serialize params: {e}")))?;
        let fingerprint = rl_ccd::fnv1a64(&buf);
        let entry = Arc::new(Self::assemble(name, 0, fingerprint, params, rho)?);
        self.install(entry.clone());
        Ok(entry)
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<Arc<ServeModel>> {
        self.models
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Identity of every live entry — name, version, fingerprint — sorted
    /// by name (what health probes report as `active`).
    pub fn versions(&self) -> Vec<ModelVersion> {
        self.models
            .read()
            .expect("registry lock")
            .values()
            .map(|m| m.identity())
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.read().expect("registry lock").is_empty()
    }

    /// Rebuilds the architecture from parameter shapes and cross-checks
    /// every tensor.
    fn assemble(
        name: String,
        version: usize,
        fingerprint: u64,
        params: ParamSet,
        rho: f32,
    ) -> Result<ServeModel, ServeError> {
        let config = infer_config(&params, rho)?;
        let (model, fresh) = RlCcd::init(config);
        // Cross-validation: the architecture implied by the shapes must
        // want exactly the tensors the checkpoint provides.
        for (required, tensor) in fresh.iter() {
            match params.get(required) {
                None => {
                    return Err(ServeError::Registry(format!(
                        "checkpoint is missing parameter {required:?}"
                    )))
                }
                Some(provided) if provided.shape() != tensor.shape() => {
                    return Err(ServeError::Registry(format!(
                        "parameter {required:?} is {:?}, model wants {:?}",
                        provided.shape(),
                        tensor.shape()
                    )))
                }
                Some(_) => {}
            }
        }
        for (provided, _) in params.iter() {
            if fresh.get(provided).is_none() {
                return Err(ServeError::Registry(format!(
                    "checkpoint has unexpected parameter {provided:?}"
                )));
            }
        }
        Ok(ServeModel {
            name,
            version,
            fingerprint,
            model,
            params,
        })
    }
}

/// Reconstructs the [`RlConfig`] a parameter set was trained with from the
/// tensor shapes (checkpoints store weights, not hyper-parameters).
fn infer_config(params: &ParamSet, rho: f32) -> Result<RlConfig, ServeError> {
    let dim = |name: &str, col: bool| -> Result<usize, ServeError> {
        let t = params.get(name).ok_or_else(|| {
            ServeError::Registry(format!("checkpoint is missing parameter {name:?}"))
        })?;
        Ok(if col { t.cols() } else { t.rows() })
    };
    // dec.w2 maps the encoder query (lstm_hidden wide) into attention
    // space, so its row count pins the query width for every encoder kind.
    Ok(RlConfig {
        rho,
        gnn_hidden: dim("gnn.l0.proj.w", true)?,
        embed_dim: dim("gnn.fc.w", true)?,
        attn_dim: dim("dec.v", false)?,
        lstm_hidden: dim("dec.w2.w", false)?,
        encoder: if params.get("enc.lstm.wx_i").is_some() {
            EncoderKind::Lstm
        } else if params.get("enc.gru.wx_r").is_some() {
            EncoderKind::Gru
        } else {
            EncoderKind::None
        },
        ..RlConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_ccd::{save_training_state, TrainingState};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rl_ccd_serve_registry_{tag}"));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn state_with(config: &RlConfig) -> TrainingState {
        let (_, params) = RlCcd::init(config.clone());
        TrainingState {
            next_iteration: 3,
            seed_base: config.seed,
            best_reward: -1.0,
            best_mean: -2.0,
            stale: 0,
            best_selection: vec![],
            params,
            adam: rl_ccd_nn::Adam::new(config.learning_rate),
            history: vec![],
            faults: vec![],
        }
    }

    #[test]
    fn loads_checkpoint_and_reconstructs_architecture() {
        let dir = tmp_dir("load");
        let mut config = RlConfig::fast();
        config.gnn_hidden = 12;
        config.embed_dim = 10;
        config.lstm_hidden = 14;
        config.attn_dim = 9;
        let state = state_with(&config);
        save_training_state(&state, &dir).expect("save");
        let reg = ModelRegistry::new();
        let entry = reg.load("default", &dir, 0.3).expect("load");
        assert_eq!(entry.version, 3);
        assert_eq!(entry.model.config.gnn_hidden, 12);
        assert_eq!(entry.model.config.embed_dim, 10);
        assert_eq!(entry.model.config.lstm_hidden, 14);
        assert_eq!(entry.model.config.attn_dim, 9);
        assert_eq!(entry.model.config.encoder, EncoderKind::Lstm);
        assert_eq!(entry.params, state.params);
        assert_eq!(reg.names(), ["default"]);
        let versions = reg.versions();
        assert_eq!(versions.len(), 1);
        assert_eq!(versions[0].name, "default");
        assert_eq!(versions[0].version, 3);
        assert_eq!(versions[0].fingerprint, entry.fingerprint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encoder_kind_is_recovered_from_parameter_names() {
        for kind in [EncoderKind::Lstm, EncoderKind::Gru, EncoderKind::None] {
            let mut config = RlConfig::fast();
            config.encoder = kind;
            let (_, params) = RlCcd::init(config);
            let inferred = infer_config(&params, 0.3).expect("infer");
            assert_eq!(inferred.encoder, kind);
        }
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let state = state_with(&RlConfig::fast());
        save_training_state(&state, &dir).expect("save");
        // Flip one byte of the state: the manifest checksum must catch it.
        let path = dir.join("state.txt");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = ModelRegistry::new().load("bad", &dir, 0.3).unwrap_err();
        assert!(matches!(err, ServeError::Checkpoint(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn incomplete_parameter_sets_are_rejected() {
        let (_, params) = RlCcd::init(RlConfig::fast());
        let mut incomplete = ParamSet::new();
        for (name, t) in params.iter() {
            if name != "dec.w1.w" {
                incomplete.insert(name.to_string(), t.clone());
            }
        }
        let err = ModelRegistry::new()
            .insert_params("m", incomplete, 0.3)
            .unwrap_err();
        assert!(matches!(err, ServeError::Registry(_)), "{err}");
    }

    #[test]
    fn identical_weights_share_a_fingerprint() {
        let (_, params) = RlCcd::init(RlConfig::fast());
        let reg = ModelRegistry::new();
        let a = reg.insert_params("a", params.clone(), 0.3).unwrap();
        let b = reg.insert_params("b", params, 0.3).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn install_swaps_atomically_and_returns_the_old_entry() {
        let dir = tmp_dir("swap");
        let state = state_with(&RlConfig::fast());
        save_training_state(&state, &dir).expect("save");
        let reg = ModelRegistry::new();
        let old = reg.load("champion", &dir, 0.3).expect("load");
        // A holder of the old Arc keeps serving it across the swap.
        let held = reg.get("champion").expect("entry");
        assert_eq!(held.fingerprint, old.fingerprint);
        let fresh = ModelRegistry::prepare("champion", &dir, 0.3).expect("prepare");
        let evicted = reg.install(fresh.clone()).expect("previous entry");
        assert!(Arc::ptr_eq(&evicted, &old));
        let now = reg.get("champion").expect("entry");
        assert!(Arc::ptr_eq(&now, &fresh));
        assert_eq!(held.fingerprint, now.fingerprint, "same checkpoint bytes");
        assert!(reg.remove("champion").is_some());
        assert!(reg.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
