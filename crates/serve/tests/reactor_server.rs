//! End-to-end tests for the epoll TCP front behind `Server::bind`: the
//! query/health protocol, request pipelining on one connection, a frame
//! split by a long gap, slow-client eviction on a write stall, the
//! shutdown-request path, and the 1k-idle-connection soak pinning that
//! wakeups scale with *active* connections, not open ones. One test
//! drives the generic front with its own handler: replies finished from
//! another thread arrive, and a reply dropped unfinished closes the
//! connection instead of leaving the client waiting.

#![cfg(target_os = "linux")]

use rl_ccd::{RlCcd, RlConfig};
use rl_ccd_serve::protocol::{DesignKey, Mode, QueryRequest, Request, Response};
use rl_ccd_serve::{
    FrameHandler, Front, FrontConfig, ModelRegistry, Reply, Responder, ServeClient, ServeConfig,
    Server,
};
use rl_ccd_wire::{read_frame, write_frame};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry() -> ModelRegistry {
    let (_, params) = RlCcd::init(RlConfig::fast());
    let reg = ModelRegistry::new();
    reg.insert_params("default", params, 0.3).expect("insert");
    reg
}

fn query(name: &str, seed: u64, mode: Mode) -> QueryRequest {
    QueryRequest {
        model: "default".into(),
        design: DesignKey {
            name: name.into(),
            cells: 360,
            tech: "7nm".into(),
            seed,
        },
        mode,
        deadline_ms: None,
        auth: None,
    }
}

fn reactor_server(config: ServeConfig) -> (Server, std::net::SocketAddr) {
    let mut server = Server::start(registry(), config);
    let addr = server.bind("127.0.0.1:0").expect("bind");
    (server, addr)
}

#[test]
fn reactor_serves_queries_health_and_drains_clean() {
    let (server, addr) = reactor_server(ServeConfig::default());
    let mut client = ServeClient::connect(addr).expect("connect");

    let first = client
        .query(query("react", 3, Mode::Greedy))
        .expect("query");
    let Response::Ok(g) = first else {
        panic!("greedy failed: {first:?}")
    };
    assert_eq!(g.steps, g.selection.len());
    assert!(!g.selection.is_empty());

    let again = client
        .query(query("react", 3, Mode::Greedy))
        .expect("query");
    let Response::Ok(a) = again else {
        panic!("repeat failed: {again:?}")
    };
    assert!(a.cached, "repeat greedy must hit the selection cache");
    assert_eq!(a.selection, g.selection);

    let health = client.health().expect("health");
    assert!(health.ready);
    assert_eq!(health.models, 1);

    let report = server.shutdown();
    assert_eq!(report.dropped(), 0, "clean drain");
    assert_eq!(report.stats.completed, 2);
    assert!(
        report.stats.reactor_polls > 0,
        "the reactor actually polled"
    );
}

#[test]
fn reactor_front_end_answers_pipelined_requests_in_order() {
    // The blocking front-end reads one request per response; the reactor
    // decodes everything buffered. Fire a burst of requests without
    // waiting, then collect every response off the same connection.
    let (server, addr) = reactor_server(ServeConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    const BURST: usize = 8;
    let mut burst = Vec::new();
    for seed in 0..BURST as u64 {
        let req = Request::Query(query("pipeline", 1, Mode::Sample(seed)));
        write_frame(&mut burst, &req.encode()).expect("encode");
    }
    stream.write_all(&burst).expect("send burst");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut replies = Vec::new();
    for _ in 0..BURST {
        let payload = read_frame(&mut stream).expect("response frame");
        replies.push(Response::decode(&payload).expect("decode"));
    }
    assert!(
        replies.iter().all(|r| matches!(r, Response::Ok(_))),
        "every pipelined query answered: {replies:?}"
    );
    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
    assert_eq!(report.stats.completed, BURST as u64);
}

#[test]
fn frame_split_by_a_long_gap_is_answered_not_reset() {
    // Header now, payload 400 ms later: a front that times out a
    // half-read frame resets here; this one must just wait for the rest.
    let (server, addr) = reactor_server(ServeConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut frame = Vec::new();
    write_frame(&mut frame, &Request::Health.encode()).expect("encode");
    stream.write_all(&frame[..4]).expect("send header");
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(&frame[4..]).expect("send payload");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let payload = read_frame(&mut stream).expect("reply, not a reset");
    let reply = Response::decode(&payload).expect("decode");
    assert!(
        matches!(&reply, Response::Health(h) if h.ready),
        "{reply:?}"
    );
    drop(stream);
    assert_eq!(server.shutdown().dropped(), 0);
}

#[test]
fn shutdown_request_over_the_reactor_acks_and_sets_draining() {
    let (server, addr) = reactor_server(ServeConfig::default());
    let mut client = ServeClient::connect(addr).expect("connect");
    client.shutdown().expect("shutdown ack");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.shutdown_requested() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.shutdown_requested(), "drain flag set by the request");
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}

#[test]
fn slow_client_is_evicted_on_write_stall() {
    // A client that pipelines a flood of queries and never reads a byte:
    // once the kernel buffers fill, the reactor's send buffer stays
    // non-empty past write_timeout and the connection must be evicted —
    // not buffered without bound, not kept forever.
    let config = ServeConfig {
        queue_capacity: 8192,
        write_timeout: Duration::from_millis(150),
        // Cap the kernel send buffer so the stall surfaces as write
        // backpressure instead of vanishing into autotuned buffers.
        sock_send_buffer: Some(16 * 1024),
        ..ServeConfig::default()
    };
    let (server, addr) = reactor_server(config);
    let handle = server.handle();
    // Warm the caches so the flood is answered from memo, quickly.
    let warm = handle.query(query("stall", 9, Mode::Greedy));
    assert!(matches!(warm, Response::Ok(_)), "warmup failed: {warm:?}");

    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = Request::Query(query("stall", 9, Mode::Greedy)).encode();
    let mut burst = Vec::new();
    for _ in 0..6000 {
        write_frame(&mut burst, &req).expect("encode");
    }
    // The server may evict us mid-send; a reset while we still write is
    // this test passing, not failing.
    let _ = stream.write_all(&burst);

    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().evicted == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        handle.stats().evicted >= 1,
        "a write stalled past write_timeout must evict the client: {:?}",
        handle.stats()
    );
    drop(stream);
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0, "evicted replies still count answered");
}

#[test]
fn thousand_idle_connections_cost_no_wakeups() {
    let (server, addr) = reactor_server(ServeConfig::default());
    let handle = server.handle();

    // Park 1000 idle connections on the reactor.
    let idle: Vec<TcpStream> = (0..1000)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    // Let the accept bursts land, then snapshot the event counter.
    let mut client = ServeClient::connect(addr).expect("connect");
    let h = client.health().expect("health");
    assert!(h.ready);
    std::thread::sleep(Duration::from_millis(100));
    let before = handle.stats().reactor_events;

    const QUERIES: usize = 50;
    for seed in 0..QUERIES as u64 {
        let r = client
            .query(query("soak", 2, Mode::Sample(seed)))
            .expect("query");
        assert!(matches!(r, Response::Ok(_)), "soak query failed: {r:?}");
    }
    let delta = handle.stats().reactor_events - before;
    // Each query costs a handful of events (readable, completion wake,
    // maybe a writable). 1000 idle sockets must contribute nothing: the
    // O(open-connections) failure mode would put delta in the tens of
    // thousands.
    let bound = (QUERIES * 8 + 50) as u64;
    assert!(
        delta <= bound,
        "wakeups must scale with active connections, not open ones: \
         {delta} events for {QUERIES} queries with 1000 idle conns (bound {bound})"
    );

    drop(idle);
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.dropped(), 0);
}

/// Echoes every frame from a spawned thread, except an empty one, whose
/// promised reply it drops unfinished.
struct EchoLater(Arc<AtomicBool>);

impl FrameHandler for EchoLater {
    fn on_frame(&mut self, payload: &[u8], responder: &Responder<'_>) -> Reply {
        let later = responder.defer();
        let payload = payload.to_vec();
        std::thread::spawn(move || {
            if !payload.is_empty() {
                later.finish(payload);
            }
        });
        Reply::Deferred
    }

    fn draining(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

#[test]
fn deferred_replies_arrive_and_a_dropped_one_closes_the_connection() {
    let draining = Arc::new(AtomicBool::new(false));
    let config = FrontConfig {
        write_timeout: Duration::from_secs(5),
        sock_send_buffer: None,
        recorder: None,
        stats: Arc::default(),
    };
    let front =
        Front::bind("127.0.0.1:0", "echo", config, EchoLater(draining.clone())).expect("bind");
    let mut stream = TcpStream::connect(front.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    write_frame(&mut stream, b"hello").expect("send");
    assert_eq!(read_frame(&mut stream).expect("echo"), b"hello");
    write_frame(&mut stream, b"").expect("send");
    let err = read_frame(&mut stream).expect_err("a dropped reply closes");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err:?}");
    draining.store(true, Ordering::SeqCst);
    front.join();
}
