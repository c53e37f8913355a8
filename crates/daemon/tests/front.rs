//! The daemon's tenant and admin ports on the epoll front, against the
//! defects of a blocking thread-per-connection front:
//!
//! - a frame whose header and payload arrive 400 ms apart is answered,
//!   not reset, on both ports;
//! - back-to-back queries on one tenant connection never wait out a
//!   delayed ACK (Linux's minimum delayed-ACK timer is 40 ms);
//! - a slow admin command (`gate`) does not hold up `status` on another
//!   admin connection.

#![cfg(target_os = "linux")]

use rl_ccd::gate::GateSpec;
use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_daemon::{
    AdminReply, AdminRequest, Daemon, DaemonConfig, ManualClock, CHALLENGER, CHAMPION,
};
use rl_ccd_netlist::{DesignSpec, TechNode};
use rl_ccd_serve::{
    Credentials, DesignKey, Mode, ModelRegistry, QueryRequest, Request, Response, ServeClient,
};
use rl_ccd_wire::{read_frame, write_frame};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry(with_challenger: bool) -> ModelRegistry {
    let reg = ModelRegistry::new();
    let (_, params) = RlCcd::init(RlConfig::fast());
    reg.insert_params(CHAMPION, params, 0.3).expect("champion");
    if with_challenger {
        let (_, params) = RlCcd::init(RlConfig {
            seed: 7,
            ..RlConfig::fast()
        });
        reg.insert_params(CHALLENGER, params, 0.3)
            .expect("challenger");
    }
    reg
}

fn daemon(config: DaemonConfig, with_challenger: bool) -> Daemon {
    let mut daemon = Daemon::start(
        registry(with_challenger),
        config,
        Arc::new(ManualClock::at(0)),
    );
    daemon
        .tenants()
        .add("acme:s3cret:100000:100000:100000000".parse().unwrap());
    daemon.bind_query("127.0.0.1:0").expect("bind query");
    daemon.bind_admin("127.0.0.1:0").expect("bind admin");
    daemon
}

fn greedy_query() -> QueryRequest {
    QueryRequest {
        model: CHAMPION.into(),
        design: DesignKey {
            name: "front".into(),
            cells: 300,
            tech: "7nm".into(),
            seed: 4,
        },
        mode: Mode::Greedy,
        deadline_ms: Some(30_000),
        auth: Some(Credentials {
            tenant: "acme".into(),
            token: "s3cret".into(),
        }),
    }
}

/// Sends `payload` as one frame whose 4-byte header and body are 400 ms
/// apart, and returns the reply frame.
fn split_roundtrip(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut frame = Vec::new();
    write_frame(&mut frame, payload).expect("encode");
    stream.write_all(&frame[..4]).expect("send header");
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(&frame[4..]).expect("send payload");
    read_frame(&mut stream).expect("a reply, not a reset")
}

#[test]
fn tenant_port_answers_a_frame_split_by_a_long_gap() {
    let daemon = daemon(DaemonConfig::default(), false);
    let request = Request::Query(greedy_query()).encode();
    let reply = split_roundtrip(daemon.query_addr().unwrap(), &request);
    let response = Response::decode(&reply).expect("decode");
    let Response::Ok(reply) = response else {
        panic!("expected a selection, got {response:?}")
    };
    assert!(!reply.selection.is_empty());
    assert_eq!(daemon.shutdown().drain.dropped(), 0);
}

#[test]
fn admin_port_answers_a_frame_split_by_a_long_gap() {
    let daemon = daemon(DaemonConfig::default(), false);
    let request = AdminRequest::Status.encode(None);
    let reply = split_roundtrip(daemon.admin_addr().unwrap(), &request);
    let reply = AdminReply::decode(&reply).expect("decode");
    let AdminReply::Status(status) = reply else {
        panic!("expected status, got {reply:?}")
    };
    assert!(status.ready);
    assert_eq!(daemon.shutdown().drain.dropped(), 0);
}

#[test]
fn back_to_back_cached_queries_do_not_wait_for_delayed_acks() {
    let daemon = daemon(DaemonConfig::default(), false);
    let mut client = ServeClient::connect(daemon.query_addr().unwrap()).expect("connect");
    // The first answer fills the env and selection caches.
    assert!(matches!(
        client.query(greedy_query()).unwrap(),
        Response::Ok(_)
    ));
    let mut times: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            let r = client.query(greedy_query()).expect("query");
            assert!(matches!(&r, Response::Ok(q) if q.cached), "{r:?}");
            t.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median cached query took {median:?}: a delayed-ACK stall is 40 ms or more"
    );
    drop(client);
    assert_eq!(daemon.shutdown().drain.dropped(), 0);
}

#[test]
fn admin_status_answers_while_a_gate_runs_on_another_connection() {
    // A gate over larger held-out designs takes long enough to observe.
    let gate = GateSpec {
        designs: (0..6)
            .map(|i| DesignSpec::new(format!("slow{i}"), 4_000, TechNode::N7, i))
            .collect(),
        ..GateSpec::quick(3)
    };
    let daemon = daemon(
        DaemonConfig {
            gate,
            ..DaemonConfig::default()
        },
        true,
    );
    let admin = rl_ccd_daemon::AdminClient::new(daemon.admin_addr().unwrap(), None);
    let gate_admin = admin.clone();
    let started = Instant::now();
    let gate = std::thread::spawn(move || {
        let reply = gate_admin.call(&AdminRequest::Gate).expect("gate");
        (reply, started.elapsed())
    });
    // Give the gate time to reach the executor.
    std::thread::sleep(Duration::from_millis(100));
    let status_sent = started.elapsed();
    let reply = admin.call(&AdminRequest::Status).expect("status");
    let status_done = started.elapsed();
    assert!(matches!(reply, AdminReply::Status(_)), "{reply:?}");
    let (gate_reply, gate_done) = gate.join().expect("gate thread");
    assert!(
        matches!(gate_reply, AdminReply::Ok { .. }),
        "{gate_reply:?}"
    );
    // Inline on the admin loop, status would have waited out the gate.
    assert!(
        status_done + Duration::from_millis(500) < gate_done,
        "status (asked at {status_sent:?}) answered at {status_done:?}, \
         too close to the gate's end at {gate_done:?}"
    );
    assert_eq!(daemon.shutdown().drain.dropped(), 0);
}
