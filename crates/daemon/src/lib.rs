//! rl-ccd-daemon: the multi-tenant serving daemon.
//!
//! Wraps the [`rl_ccd_serve`] inference core in production concerns:
//!
//! * [`tenant`] — per-tenant auth tokens (constant-time comparison),
//!   token-bucket rate limits, and 30-day quotas on an injectable
//!   [`Clock`], with per-tenant usage counters and labeled obs metrics;
//! * [`promotion`] — the champion/challenger state machine: staged
//!   checkpoint loads through the manifest gate, tenant-stable canary
//!   routing, the seeded held-out eval gate ([`rl_ccd::gate`]), atomic
//!   zero-downtime promotion, one-level rollback, and a versioned JSONL
//!   audit trail;
//! * [`admin`] — the framed `rl-ccd-admin v1` control protocol and its
//!   TCP client;
//! * [`Daemon`] — the process itself: a tenant query port speaking the
//!   serve protocol (credentials required) and an admin port, over one
//!   shared hot-swappable model registry.
//!
//! Both ports run on the serve crate's epoll front
//! ([`rl_ccd_serve::Front`]): one loop thread per port, whatever the
//! number of connections. The tenant loop admits and routes each query
//! inline and never waits for its answer, which the serving core's batch
//! worker hands back; the admin loop runs `load`, `gate`, `promote`,
//! `rollback` and `retrain` in arrival order on one executor thread, so
//! `status` answers while a retrain runs. The front needs Linux epoll:
//! elsewhere [`Daemon::bind_query`] and [`Daemon::bind_admin`] return
//! `Unsupported`.
//!
//! ```no_run
//! use rl_ccd_daemon::{Daemon, DaemonConfig, SystemClock};
//! use rl_ccd_serve::ModelRegistry;
//! use std::sync::Arc;
//!
//! let registry = ModelRegistry::new();
//! registry.load("champion", "ckpt/", 0.3)?;
//! let mut daemon = Daemon::start(registry, DaemonConfig::default(), Arc::new(SystemClock));
//! daemon.tenants().add("acme:s3cret:10:20:100000".parse().unwrap());
//! let query_addr = daemon.bind_query("127.0.0.1:7791")?;
//! let admin_addr = daemon.bind_admin("127.0.0.1:7792")?;
//! println!("serving tenants on {query_addr}, admin on {admin_addr}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod clock;
pub mod daemon;
pub mod promotion;
pub mod tenant;

pub use admin::{AdminClient, AdminReply, AdminRequest, DaemonStatus, ADMIN_PROTOCOL_VERSION};
pub use clock::{Clock, ManualClock, SystemClock};
pub use daemon::{Daemon, DaemonConfig, DaemonReport};
pub use promotion::{in_canary, AuditRecord, Promoter, CHALLENGER, CHAMPION};
pub use tenant::{
    constant_time_eq, Admission, TenantBook, TenantConfig, TenantSummary, TenantUsage,
    QUOTA_WINDOW_MS,
};
