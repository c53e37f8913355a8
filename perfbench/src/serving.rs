//! What `tenant-hot` and `learn-loop` share: a daemon started in this
//! process from a checkpoint on disk, tenants with limits far above the
//! offered load, and an open-loop load generator of one process with
//! [`CONNECTIONS`] threads, one connection each.
//!
//! Each query is timed from when it was due, so a stall on one query
//! shows in every query queued behind it on that connection. A query not
//! sent by the end of its rung plus [`LIMIT`] is abandoned: it was already
//! late beyond the latency limit. In a closed-loop rung a query is due
//! when its connection becomes free, so it is timed from its send.

use crate::plan::{Query, Rung, ServePlan, CONNECTIONS};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl_ccd::{save_training_state, InferSession, RlCcd, RlConfig, TrainingState};
use rl_ccd_daemon::{Daemon, DaemonConfig, DaemonReport, SystemClock, TenantConfig, CHAMPION};
use rl_ccd_nn::{Adam, ParamSet};
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryReply, QueryRequest, Response, ServeClient,
};
use rl_ccd_wire::RetryPolicy;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency limit on a rung's tail percentile.
pub const LIMIT: Duration = Duration::from_millis(100);
/// Set-ups timed per block. A run times a block at each of several points
/// seconds apart, and `setup_s` is the median over every block: the host's
/// speed moves in spells of a few seconds, and one block sees only one.
pub const SETUP_BLOCK: usize = 10;
/// Longest a client waits for one reply before counting it failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// The policy every serving workload answers with: freshly initialised
/// paper-dimension weights, committed as a version-3 checkpoint.
pub fn write_checkpoint(dir: &Path, seed: u64) -> Result<(RlCcd, ParamSet), String> {
    let config = RlConfig {
        seed,
        ..RlConfig::default()
    };
    let (model, params) = RlCcd::init(config.clone());
    let state = TrainingState {
        next_iteration: 3,
        seed_base: config.seed,
        best_reward: -1.0e9,
        best_mean: -1.0e9,
        stale: 0,
        best_selection: vec![],
        params: params.clone(),
        adam: Adam::new(config.learning_rate),
        history: vec![],
        faults: vec![],
    };
    save_training_state(&state, dir).map_err(|e| format!("write checkpoint: {e}"))?;
    Ok((model, params))
}

fn credentials(conn: usize) -> Credentials {
    Credentials {
        tenant: format!("bench{conn}"),
        token: format!("token{conn}"),
    }
}

/// Tenants whose limits the load never reaches, so no query is throttled.
pub fn tenant_configs() -> Vec<TenantConfig> {
    (0..CONNECTIONS)
        .map(|c| {
            let creds = credentials(c);
            TenantConfig {
                id: creds.tenant,
                token: creds.token,
                rate_per_sec: 1.0e9,
                burst: 1.0e9,
                monthly_quota: u64::MAX,
            }
        })
        .collect()
}

/// A started daemon with its tenant port bound and clients connected.
pub struct Harness {
    /// The daemon.
    pub daemon: Daemon,
    /// One client per connection.
    pub clients: Vec<ServeClient>,
}

impl Harness {
    /// Model load, daemon start, tenants, port and connections.
    pub fn start(checkpoint: &Path, experience: Option<PathBuf>) -> Result<Self, String> {
        let registry = ModelRegistry::new();
        registry
            .load(CHAMPION, checkpoint, RlConfig::default().rho)
            .map_err(|e| format!("load checkpoint: {e}"))?;
        if let Some(path) = &experience {
            let _ = std::fs::remove_file(path);
        }
        let mut daemon = Daemon::start(
            registry,
            DaemonConfig {
                experience_path: experience,
                ..DaemonConfig::default()
            },
            Arc::new(SystemClock),
        );
        for t in tenant_configs() {
            daemon.tenants().add(t);
        }
        let addr = daemon
            .bind_query("127.0.0.1:0")
            .map_err(|e| format!("bind tenant port: {e}"))?;
        let clients = (0..CONNECTIONS)
            .map(|_| {
                ServeClient::builder()
                    .addr(addr)
                    .retry(RetryPolicy::none())
                    .timeout(REPLY_TIMEOUT)
                    .connect()
                    .map_err(|e| format!("connect: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { daemon, clients })
    }

    /// One greedy query through the in-process handle for each design, so
    /// their environments and greedy selections are cached before timing.
    pub fn warm(&self, designs: &[DesignKey]) -> Result<(), String> {
        let handle = self.daemon.handle();
        for key in designs {
            match handle.query(request(key.clone(), Mode::Greedy, None)) {
                Response::Ok(_) => {}
                other => return Err(format!("warm-up query on {key}: {other:?}")),
            }
        }
        Ok(())
    }

    /// Closes the connections and drains the daemon.
    pub fn stop(self) -> DaemonReport {
        drop(self.clients);
        self.daemon.shutdown()
    }
}

/// Starts and stops the harness [`SETUP_BLOCK`] times, adding each
/// set-up's seconds to `times`, and keeps the last one running.
pub fn setup_block(
    checkpoint: &Path,
    experience: Option<&Path>,
    times: &mut Vec<f64>,
) -> Result<Harness, String> {
    let mut last: Option<Harness> = None;
    for _ in 0..SETUP_BLOCK {
        if let Some(h) = last.take() {
            h.stop();
        }
        let t = Instant::now();
        last = Some(Harness::start(
            checkpoint,
            experience.map(Path::to_path_buf),
        )?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("a block has set-ups"))
}

/// A query request as a tenant sends it.
pub fn request(design: DesignKey, mode: Mode, auth: Option<Credentials>) -> QueryRequest {
    QueryRequest {
        model: CHAMPION.into(),
        design,
        mode,
        deadline_ms: None,
        auth,
    }
}

/// How one query ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Answered with a selection.
    Served(QueryReply),
    /// Throttled by the tenant book.
    Throttled,
    /// Shed or refused by the server.
    Refused(String),
    /// Transport failure or an unexpected reply.
    Failed(String),
    /// Not sent: already later than the latency limit.
    Abandoned,
}

/// One query's timings.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index into the rung's queries.
    pub index: usize,
    /// Index of the query's design in the plan.
    pub design: usize,
    /// The query's mode.
    pub mode: Mode,
    /// Due to reply, ms (served queries).
    pub latency_ms: f64,
    /// How late the generator sent it, ms: time past the later of its due
    /// time and the moment its connection became free.
    pub lag_ms: f64,
    /// Due to send, ms: waiting behind earlier queries on its connection.
    pub wait_ms: f64,
    /// What came back.
    pub outcome: Outcome,
}

/// A rung's results.
pub struct RungResult {
    /// Nominal rate.
    pub rate: f64,
    /// Per-query samples, in query order.
    pub samples: Vec<Sample>,
    /// Wall time from rung start to the last reply, s.
    pub wall_s: f64,
}

impl RungResult {
    /// Latencies of served queries.
    pub fn latencies(&self) -> Vec<f64> {
        self.served().map(|s| s.latency_ms).collect()
    }

    /// Served samples.
    pub fn served(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Served(_)))
    }

    /// Queries sent (everything not abandoned).
    pub fn sent(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !matches!(s.outcome, Outcome::Abandoned))
            .count()
    }

    /// Sent queries that did not come back with a selection.
    pub fn errors(&self) -> usize {
        self.sent() - self.served().count()
    }

    /// Queries never sent.
    pub fn abandoned(&self) -> usize {
        self.samples.len() - self.sent()
    }

    /// Whether the queue wait at the end of the rung grew past a quarter
    /// of the limit over the wait at its start, or queries were abandoned.
    pub fn backlog_grew(&self) -> bool {
        if self.abandoned() > 0 {
            return true;
        }
        let waits: Vec<f64> = self.samples.iter().map(|s| s.wait_ms).collect();
        let q = waits.len() / 4;
        if q == 0 {
            return false;
        }
        let first = median(&waits[..q]).unwrap_or(0.0);
        let last = median(&waits[waits.len() - q..]).unwrap_or(0.0);
        last > first + LIMIT.as_secs_f64() * 1e3 / 4.0
    }

    /// Whether the rung met the limit: every query served, the tail within
    /// [`LIMIT`], and no growing backlog.
    pub fn sustained(&self) -> bool {
        self.errors() == 0
            && !self.backlog_grew()
            && tail(&self.latencies()).is_some_and(|t| t.value <= LIMIT.as_secs_f64() * 1e3)
    }

    /// Achieved rate of served queries over the rung's wall time.
    pub fn achieved_rps(&self) -> f64 {
        self.served().count() as f64 / self.wall_s.max(1e-9)
    }
}

/// Runs one rung over `clients` on `designs`. With a tracer on, each query
/// records a `query` span timed from its due time, with `query.wait` and
/// `wire.roundtrip` children, all under request id `req_base + index`.
pub fn drive(
    clients: &mut [ServeClient],
    designs: &[DesignKey],
    rung: &Rung,
    tr: &Tracer,
    req_base: u64,
) -> RungResult {
    let start = Instant::now();
    // A closed loop abandons nothing: no query is late.
    let give_up = (!rung.closed()).then(|| start + rung.span() + LIMIT);
    let per_conn: Vec<Vec<(usize, &Query)>> = (0..clients.len())
        .map(|c| {
            rung.queries
                .iter()
                .enumerate()
                .filter(|(_, q)| q.conn == c)
                .collect()
        })
        .collect();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(per_conn)
            .enumerate()
            .map(|(conn, (client, queries))| {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(queries.len());
                    let mut free_at = start;
                    for (index, q) in queries {
                        let due = if rung.closed() {
                            free_at
                        } else {
                            start + q.due
                        };
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let lag_ms = ms(sent.saturating_duration_since(due.max(free_at)));
                        let wait_ms = ms(sent.saturating_duration_since(due));
                        if give_up.is_some_and(|g| sent > g) {
                            out.push(Sample {
                                index,
                                design: q.design,
                                mode: q.mode,
                                latency_ms: f64::NAN,
                                lag_ms,
                                wait_ms,
                                outcome: Outcome::Abandoned,
                            });
                            continue;
                        }
                        let req =
                            request(designs[q.design].clone(), q.mode, Some(credentials(conn)));
                        let outcome = match client.query(req) {
                            Ok(Response::Ok(reply)) => Outcome::Served(reply),
                            Ok(Response::QuotaExceeded { .. }) => Outcome::Throttled,
                            Ok(Response::Overloaded { .. }) => {
                                Outcome::Refused("overloaded".into())
                            }
                            Ok(Response::Err { kind, msg }) => {
                                Outcome::Refused(format!("{kind:?}: {msg}"))
                            }
                            Ok(other) => Outcome::Failed(format!("unexpected reply {other:?}")),
                            Err(e) => Outcome::Failed(e.to_string()),
                        };
                        let done = Instant::now();
                        free_at = done;
                        let id = req_base + index as u64;
                        let root = tr.record("query", None, id, due, done);
                        tr.record("query.wait", Some(root), id, due, sent);
                        tr.record("wire.roundtrip", Some(root), id, sent, done);
                        out.push(Sample {
                            index,
                            design: q.design,
                            mode: q.mode,
                            latency_ms: ms(done - due),
                            lag_ms,
                            wait_ms,
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    RungResult {
        rate: rung.rate,
        samples,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks every served selection against an in-process `InferSession`
/// with the checkpoint's parameters, the same design key and the same
/// seed. Returns (checked, mismatches, first mismatch).
pub fn check_parity(
    model: &RlCcd,
    params: &ParamSet,
    designs: &[DesignKey],
    rungs: &[&RungResult],
) -> Result<(usize, usize, String), String> {
    let envs = designs
        .iter()
        .map(|k| rl_ccd_exp::build_env(k, RlConfig::default().fanout_cap))
        .collect::<Result<Vec<_>, _>>()?;
    let mut session = InferSession::new(model, params);
    let mut expected: BTreeMap<(usize, Option<u64>), Vec<usize>> = BTreeMap::new();
    let (mut checked, mut bad, mut first) = (0, 0, String::new());
    for &rung in rungs {
        for s in rung.served() {
            let Outcome::Served(reply) = &s.outcome else {
                continue;
            };
            let sample_seed = match s.mode {
                Mode::Greedy => None,
                Mode::Sample(seed) => Some(seed),
            };
            let want = expected.entry((s.design, sample_seed)).or_insert_with(|| {
                let env = &envs[s.design];
                let sel = match sample_seed {
                    None => session.select(env),
                    Some(seed) => session.sample(env, &mut StdRng::seed_from_u64(seed)),
                };
                sel.into_iter().map(|e| e.index()).collect()
            });
            checked += 1;
            if &reply.selection != want {
                bad += 1;
                if first.is_empty() {
                    first = format!(
                        "{} {}: served {:?}, in-process {:?}",
                        designs[s.design], s.mode, reply.selection, want
                    );
                }
            }
        }
    }
    Ok((checked, bad, first))
}

/// Counts a rung's operations into the report: every sent query is
/// attempted, and every one not served is failed.
pub fn count(report: &mut Report, rung: &RungResult) {
    report.attempted += rung.sent() as u64;
    report.failed += rung.errors() as u64;
}

/// (throttled, refused, failed) among sent queries.
pub fn error_kinds(rungs: &[&RungResult]) -> (usize, usize, usize) {
    let mut out = (0, 0, 0);
    for s in rungs.iter().flat_map(|r| &r.samples) {
        match s.outcome {
            Outcome::Throttled => out.0 += 1,
            Outcome::Refused(_) => out.1 += 1,
            Outcome::Failed(_) => out.2 += 1,
            Outcome::Served(_) | Outcome::Abandoned => {}
        }
    }
    out
}

/// The first error message among sent queries, if any.
pub fn first_error(rungs: &[&RungResult]) -> Option<String> {
    rungs
        .iter()
        .flat_map(|r| &r.samples)
        .find_map(|s| match &s.outcome {
            Outcome::Refused(m) | Outcome::Failed(m) => Some(m.clone()),
            Outcome::Throttled => Some("throttled".into()),
            _ => None,
        })
}

/// Requests in the traced front-end probe.
const FRONT_PAIRS: usize = 40;
/// Repetitions of the admission and codec micro-probes.
const MICRO_REPS: usize = 2000;

/// The traced run's request-path probe on an idle daemon. For the first
/// [`FRONT_PAIRS`] queries of the nominal rung it times the query over
/// TCP and then the same request through the in-process `ServeHandle`;
/// `wire.front_ms` is the median difference. Admission is timed on a
/// separate `TenantBook` holding the same tenants, and the codec on the
/// protocol's own encode/decode. What those leave of a TCP query is
/// `query.unattributed_share`.
pub fn front_probe(h: &mut Harness, plan: &ServePlan, tr: &Tracer, report: &mut Report) {
    let handle = h.daemon.handle();
    let (mut tcp, mut inproc, mut front) = (Vec::new(), Vec::new(), Vec::new());
    let mut reply = None;
    for (i, q) in plan.rungs[0].queries.iter().take(FRONT_PAIRS).enumerate() {
        let id = 1_000_000_000 + i as u64;
        let key = plan.designs[q.design].clone();
        let t = Instant::now();
        let over_tcp = h.clients[0].query(request(key.clone(), q.mode, Some(credentials(0))));
        let t_tcp = Instant::now();
        let local = handle.query(request(key, q.mode, None));
        let t_local = Instant::now();
        tr.record("probe.tcp_query", None, id, t, t_tcp);
        tr.record("serve.inproc_query", None, id, t_tcp, t_local);
        report.attempted += 2;
        match (over_tcp, local) {
            (Ok(Response::Ok(a)), Response::Ok(b)) if a.selection == b.selection => {
                let (a_ms, b_ms) = (ms(t_tcp - t), ms(t_local - t_tcp));
                tcp.push(a_ms);
                inproc.push(b_ms);
                front.push(a_ms - b_ms);
                reply = Some(a);
            }
            other => {
                report.failed += 2;
                report.check("front_probe_pairs_agree", false, format!("{other:?}"));
            }
        }
    }

    let book = rl_ccd_daemon::TenantBook::new(Arc::new(SystemClock));
    for t in tenant_configs() {
        book.add(t);
    }
    let creds = credentials(0);
    let t = Instant::now();
    for _ in 0..MICRO_REPS {
        std::hint::black_box(book.admit(std::hint::black_box(&creds)));
    }
    let admit_us = t.elapsed().as_secs_f64() * 1e6 / MICRO_REPS as f64;

    let q = &plan.rungs[0].queries[0];
    let req =
        rl_ccd_serve::Request::Query(request(plan.designs[q.design].clone(), q.mode, Some(creds)));
    let resp = Response::Ok(reply.unwrap_or(QueryReply {
        model: CHAMPION.into(),
        version: 0,
        steps: 0,
        batch: 1,
        cached: false,
        selection: vec![],
    }));
    let t = Instant::now();
    for _ in 0..MICRO_REPS {
        let a = rl_ccd_serve::Request::decode(&std::hint::black_box(&req).encode());
        let b = Response::decode(&std::hint::black_box(&resp).encode());
        std::hint::black_box((a.is_ok(), b.is_ok()));
    }
    let codec_us = t.elapsed().as_secs_f64() * 1e6 / MICRO_REPS as f64;

    let tcp_ms = median(&tcp).unwrap_or(f64::NAN);
    let inproc_ms = median(&inproc).unwrap_or(f64::NAN);
    report.layer("serve.inproc_query_ms", inproc_ms, "ms");
    report.layer("wire.front_ms", median(&front).unwrap_or(f64::NAN), "ms");
    report.layer("daemon.admit_us", admit_us, "us");
    report.layer("serve.codec_us", codec_us, "us");
    report.layer(
        "query.unattributed_share",
        1.0 - (inproc_ms + (admit_us + codec_us) / 1e3) / tcp_ms,
        "ratio",
    );
    report.note("front_probe_tcp_p50_ms", crate::report::Json::Num(tcp_ms));
}

/// Hit ratio of the serve env cache from the program's own obs counters.
pub fn env_cache_hit_ratio(recorder: &rl_ccd_obs::Recorder) -> f64 {
    let counter = |name: &str| {
        recorder
            .metrics()
            .snapshot()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0, |(_, _, v)| match v {
                rl_ccd_obs::MetricValue::Counter(c) => c,
                _ => 0,
            })
    };
    let (hit, miss) = (
        counter("serve.cache.env.hit"),
        counter("serve.cache.env.miss"),
    );
    hit as f64 / (hit + miss).max(1) as f64
}

/// Rung-level figures every serving workload reports.
pub fn rung_notes(rungs: &[RungResult]) -> crate::report::Json {
    use crate::report::Json;
    Json::Arr(
        rungs
            .iter()
            .map(|r| {
                let lat = r.latencies();
                let t = tail(&lat);
                Json::Obj(vec![
                    ("rate".into(), Json::Num(r.rate)),
                    ("sent".into(), Json::Num(r.sent() as f64)),
                    ("served".into(), Json::Num(r.served().count() as f64)),
                    ("abandoned".into(), Json::Num(r.abandoned() as f64)),
                    ("p50_ms".into(), Json::Num(median(&lat).unwrap_or(f64::NAN))),
                    (
                        "tail_pct".into(),
                        Json::Num(t.map_or(f64::NAN, |t| t.percentile)),
                    ),
                    ("tail_ms".into(), Json::Num(t.map_or(f64::NAN, |t| t.value))),
                    ("achieved_rps".into(), Json::Num(r.achieved_rps())),
                    ("backlog_grew".into(), Json::Bool(r.backlog_grew())),
                    ("sustained".into(), Json::Bool(r.sustained())),
                ])
            })
            .collect(),
    )
}

/// The generator's lateness over every sent query: the tail value, ms.
pub fn gen_lag_ms(rungs: &[&RungResult]) -> f64 {
    let lags: Vec<f64> = rungs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| !matches!(s.outcome, Outcome::Abandoned))
        .map(|s| s.lag_ms)
        .collect();
    tail(&lags)
        .map(|t| t.value)
        .or_else(|| lags.iter().copied().reduce(f64::max))
        .unwrap_or(0.0)
}
