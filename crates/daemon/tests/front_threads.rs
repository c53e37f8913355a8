//! The daemon's ports hold connections without a thread each: 500 idle
//! connections plus 10,000 short-lived ones leave the process thread
//! count where it was. Alone in its test binary, so no concurrent test
//! moves the count.

#![cfg(target_os = "linux")]

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_daemon::CHAMPION;
use rl_ccd_daemon::{AdminClient, AdminReply, AdminRequest, Daemon, DaemonConfig, ManualClock};
use rl_ccd_serve::{ModelRegistry, ServeClient};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Opens 500 idle connections and churns 10,000 short-lived ones, then
/// returns the thread count while the idle ones are still open.
fn threads_under_connections(addr: SocketAddr, answers: impl Fn()) -> usize {
    let idle: Vec<TcpStream> = (0..500)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    for i in 0..10_000 {
        drop(TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}")));
    }
    // The port still answers, and has had time to accept everything.
    answers();
    std::thread::sleep(Duration::from_millis(100));
    let during = threads();
    drop(idle);
    during
}

#[test]
fn connections_leave_the_thread_count_flat_on_both_ports() {
    let registry = ModelRegistry::new();
    let (_, params) = RlCcd::init(RlConfig::fast());
    registry
        .insert_params(CHAMPION, params, 0.3)
        .expect("champion");
    let mut daemon = Daemon::start(
        registry,
        DaemonConfig::default(),
        Arc::new(ManualClock::at(0)),
    );
    let query = daemon.bind_query("127.0.0.1:0").expect("bind query");
    let admin = daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    let before = threads();

    let on_query = threads_under_connections(query, || {
        let mut client = ServeClient::connect(query).expect("connect");
        assert!(client.health().expect("health").ready);
    });
    let on_admin = threads_under_connections(admin, || {
        let reply = AdminClient::new(admin, None)
            .call(&AdminRequest::Status)
            .expect("status");
        assert!(matches!(reply, AdminReply::Status(_)), "{reply:?}");
    });
    for (port, during) in [("tenant", on_query), ("admin", on_admin)] {
        assert!(
            during <= before + 2,
            "{port} port: {during} threads with 500 open connections, {before} before"
        );
    }
    assert_eq!(daemon.shutdown().drain.dropped(), 0);
}
