//! The TCP front: one epoll thread multiplexing every client connection
//! of a port, generic over what a frame means.
//!
//! The loop owns the listener and every accepted socket as a
//! [`FramedConn`] (non-blocking incremental frame decode, one buffered
//! write per frame, `TCP_NODELAY`). Each complete inbound frame goes to
//! the port's [`FrameHandler`], which answers it inline ([`Reply::Frame`])
//! or takes a [`Deferred`] and finishes it later from another thread — a
//! batch worker, an admin executor. A deferred answer comes back through
//! the completion queue, whose waker interrupts the poll. Per-connection
//! deadlines live in a [`TimerWheel`]: a send buffer that stays non-empty
//! for [`FrontConfig::write_timeout`] evicts the connection as a slow
//! client.
//!
//! Idle connections cost nothing per request: a socket with no traffic
//! produces no events, so the work per poll is proportional to *active*
//! connections, and the thread count is one per port whatever the number
//! of connections. A frame may arrive in any number of segments with any
//! gap between them; nothing times out a half-received frame.
//!
//! Three handlers plug in: `rl-ccd-serve`'s query port
//! ([`Server::bind`]), and the daemon's tenant and admin ports. Off Linux
//! there is no epoll, and [`Front::bind`] returns `Unsupported`.
//!
//! [`Server::bind`]: crate::Server::bind

use rl_ccd_wire::frames::FramedConn;
use rl_ccd_wire::reactor::{Interest, Poller, Waker};
use rl_ccd_wire::timer::{TimerId, TimerWheel};
use std::cell::Cell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: u64 = 0;
const WAKER: u64 = 1;
const FIRST_CONN: u64 = 2;

/// Idle heartbeat: an otherwise-quiet loop re-checks
/// [`FrameHandler::draining`] at this cadence.
const HEARTBEAT: Duration = Duration::from_millis(200);

/// What a port does with each inbound frame.
pub trait FrameHandler: Send + 'static {
    /// Answers one frame. Runs on the loop thread, so it must not block:
    /// work that waits on anything takes a [`Deferred`] from `responder`
    /// and finishes it on another thread.
    fn on_frame(&mut self, payload: &[u8], responder: &Responder<'_>) -> Reply;

    /// True once the port is shutting down: the loop stops accepting,
    /// closes idle connections, and exits when every owed reply is out.
    fn draining(&self) -> bool;
}

/// A handler's answer to one frame.
#[derive(Debug)]
pub enum Reply {
    /// Send this frame now.
    Frame(Vec<u8>),
    /// Send this frame, then close the connection once it is flushed;
    /// frames pipelined behind it are dropped.
    Last(Vec<u8>),
    /// Nothing now: the answer comes through a [`Deferred`] taken with
    /// [`Responder::defer`].
    Deferred,
}

/// The connection a frame arrived on, as seen by its handler.
#[derive(Debug)]
pub struct Responder<'a> {
    token: u64,
    queue: &'a Arc<CompletionQueue>,
    deferred: Cell<usize>,
}

impl Responder<'_> {
    /// Promises this frame's answer later. The connection stays open until
    /// the promise is kept with [`Deferred::finish`]; a promise dropped
    /// unkept closes the connection instead of leaving the peer waiting.
    #[must_use]
    pub fn defer(&self) -> Deferred {
        self.deferred.set(self.deferred.get() + 1);
        Deferred {
            token: self.token,
            queue: Some(self.queue.clone()),
        }
    }
}

/// A reply owed to one connection, deliverable from any thread.
#[derive(Debug)]
pub struct Deferred {
    token: u64,
    queue: Option<Arc<CompletionQueue>>,
}

impl Deferred {
    /// Delivers the reply frame and wakes the loop to send it.
    pub fn finish(mut self, payload: Vec<u8>) {
        if let Some(queue) = self.queue.take() {
            queue.push(self.token, Some(payload));
        }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        if let Some(queue) = self.queue.take() {
            queue.push(self.token, None);
        }
    }
}

/// Replies finished off the loop thread, plus the waker that interrupts
/// the loop's poll to deliver them. `None` is a promise dropped unkept.
#[derive(Debug)]
struct CompletionQueue {
    done: Mutex<Vec<(u64, Option<Vec<u8>>)>>,
    waker: Waker,
}

impl CompletionQueue {
    fn push(&self, token: u64, payload: Option<Vec<u8>>) {
        self.done
            .lock()
            .expect("completion queue lock")
            .push((token, payload));
        self.waker.wake();
    }

    fn take(&self) -> Vec<(u64, Option<Vec<u8>>)> {
        std::mem::take(&mut *self.done.lock().expect("completion queue lock"))
    }
}

/// Lifetime counters of one front.
#[derive(Debug, Default)]
pub struct FrontStats {
    /// Poll returns (wakeups of the loop).
    pub polls: AtomicU64,
    /// Readiness events processed. Idle connections contribute nothing:
    /// this stays proportional to *active* connections.
    pub events: AtomicU64,
    /// Connections evicted because a reply sat unsent past the write
    /// timeout (slow clients).
    pub evicted: AtomicU64,
}

/// How a front runs its port.
#[derive(Clone, Debug)]
pub struct FrontConfig {
    /// How long a reply may sit unsent before the connection is evicted
    /// as a slow client.
    pub write_timeout: Duration,
    /// Kernel send-buffer cap (`SO_SNDBUF`) per connection; `None` keeps
    /// the kernel's autotuned default.
    pub sock_send_buffer: Option<usize>,
    /// Recorder attached on the loop thread.
    pub recorder: Option<rl_ccd_obs::Recorder>,
    /// Counters the loop updates (shared with whoever reports them).
    pub stats: Arc<FrontStats>,
}

/// A running front: one bound port and its loop thread.
#[derive(Debug)]
pub struct Front {
    addr: SocketAddr,
    thread: JoinHandle<()>,
    waker: Waker,
}

impl Front {
    /// Binds `addr` and starts the loop thread `name` serving it with
    /// `handler`.
    ///
    /// # Errors
    /// Bind and epoll setup failures; `Unsupported` off Linux.
    pub fn bind<H: FrameHandler>(
        addr: &str,
        name: &str,
        config: FrontConfig,
        handler: H,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // A connection burst beyond std's hardcoded backlog of 128 would
        // see connection resets; re-arm to a depth matching the front.
        let _ = rl_ccd_wire::reactor::set_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        // Set up on the caller, so failures surface here.
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(&listener, LISTENER, Interest::READABLE)?;
        poller.register(&waker, WAKER, Interest::READABLE)?;
        let completions = Arc::new(CompletionQueue {
            done: Mutex::new(Vec::new()),
            waker: waker.clone(),
        });
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                let _obs = config.recorder.as_ref().map(rl_ccd_obs::attach);
                run(&config, &poller, &listener, &completions, handler);
            })?;
        Ok(Self {
            addr: local,
            thread,
            waker,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the loop to finish. Call once the handler reports
    /// [`FrameHandler::draining`]: the loop then stops accepting, delivers
    /// every owed reply (or evicts its connection), closes every socket
    /// and exits.
    pub fn join(self) {
        self.waker.wake();
        let _ = self.thread.join();
    }
}

struct Conn {
    io: FramedConn,
    /// Deferred replies not yet back through the completion queue.
    inflight: usize,
    /// Armed while the send buffer is non-empty; fires an eviction.
    stall: Option<TimerId>,
    /// Close once the send buffer drains.
    closing: bool,
    /// Whether the current epoll registration includes write interest.
    writable_armed: bool,
}

/// The event loop. Runs until the handler drains, every owed reply is
/// delivered (or its connection evicted), and every socket is closed.
fn run<H: FrameHandler>(
    config: &FrontConfig,
    poller: &Poller,
    listener: &TcpListener,
    completions: &Arc<CompletionQueue>,
    mut handler: H,
) {
    let mut wheel = TimerWheel::with_ms_ticks();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut inflight_total = 0usize;
    let mut events = Vec::new();
    let mut expired = Vec::new();
    let mut accepting = true;
    loop {
        if handler.draining() {
            if accepting {
                let _ = poller.deregister(listener);
                accepting = false;
            }
            // Close idle connections (clients see EOF); connections still
            // owed a reply, or still flushing one, stay.
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.inflight == 0 && !c.io.wants_write())
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                drop_conn(poller, &mut wheel, &mut conns, token);
            }
            if conns.is_empty() && inflight_total == 0 {
                return;
            }
        }
        let timeout = wheel
            .next_timeout(Instant::now())
            .map_or(HEARTBEAT, |t| t.min(HEARTBEAT));
        if poller.poll(&mut events, Some(timeout)).is_err() {
            return;
        }
        config.stats.polls.fetch_add(1, Ordering::Relaxed);
        let n = events.len() as u64;
        config.stats.events.fetch_add(n, Ordering::Relaxed);

        for ev in &events {
            let (token, dead) = match ev.token {
                LISTENER => {
                    if accepting {
                        accept_burst(config, poller, listener, &mut conns, &mut next_token);
                    }
                    continue;
                }
                WAKER => {
                    completions.waker.drain();
                    for (token, payload) in completions.take() {
                        inflight_total = inflight_total.saturating_sub(1);
                        // An evicted or hung-up connection's reply has
                        // nowhere to go.
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        conn.inflight = conn.inflight.saturating_sub(1);
                        let dead = match payload {
                            Some(frame) => conn.io.send_frame(&frame).is_err(),
                            None => {
                                conn.closing = true;
                                false
                            }
                        };
                        conn.settle(config, poller, &mut wheel, token, dead);
                        if dead || conn.done() {
                            drop_conn(poller, &mut wheel, &mut conns, token);
                        }
                    }
                    continue;
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut dead = ev.readable
                        && conn.on_readable(&mut handler, token, completions, &mut inflight_total);
                    if !dead && ev.writable {
                        dead = conn.io.flush().is_err();
                    }
                    // Peer gone and nothing owed either way.
                    dead |= ev.hangup && !conn.io.wants_write() && conn.inflight == 0;
                    conn.settle(config, poller, &mut wheel, token, dead);
                    (token, dead || conn.done())
                }
            };
            if dead {
                drop_conn(poller, &mut wheel, &mut conns, token);
            }
        }

        expired.clear();
        wheel.poll_expired(Instant::now(), &mut expired);
        for &token in &expired {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.stall = None;
            if conn.io.wants_write() {
                // The client has not drained its socket for a full write
                // timeout: evict it rather than buffer forever.
                config.stats.evicted.fetch_add(1, Ordering::SeqCst);
                rl_ccd_obs::counter!("serve.evicted", 1);
                drop_conn(poller, &mut wheel, &mut conns, token);
            }
        }
    }
}

fn accept_burst(
    config: &FrontConfig,
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some(bytes) = config.sock_send_buffer {
                    let _ = rl_ccd_wire::reactor::set_send_buffer(&stream, bytes);
                }
                let Ok(io) = FramedConn::new(stream, crate::protocol::MAX_FRAME_LEN) else {
                    continue;
                };
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(io.stream(), token, Interest::READABLE)
                    .is_ok()
                {
                    let conn = Conn {
                        io,
                        inflight: 0,
                        stall: None,
                        closing: false,
                        writable_armed: false,
                    };
                    conns.insert(token, conn);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Per-connection accept failures (e.g. the peer already
            // reset) must not kill the loop.
            Err(_) => break,
        }
    }
}

fn drop_conn(poller: &Poller, wheel: &mut TimerWheel, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        if let Some(id) = conn.stall {
            wheel.cancel(id);
        }
        let _ = poller.deregister(conn.io.stream());
    }
}

impl Conn {
    /// Pulls bytes and hands every complete frame to the handler. Returns
    /// true when the connection is dead.
    fn on_readable<H: FrameHandler>(
        &mut self,
        handler: &mut H,
        token: u64,
        completions: &Arc<CompletionQueue>,
        inflight_total: &mut usize,
    ) -> bool {
        if self.io.on_readable().is_err() {
            return true;
        }
        while !self.closing {
            let payload = match self.io.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                // Framing is lost (oversized prefix) or the peer tore a
                // frame: unrecoverable either way.
                Err(_) => return true,
            };
            let responder = Responder {
                token,
                queue: completions,
                deferred: Cell::new(0),
            };
            let reply = handler.on_frame(&payload, &responder);
            self.inflight += responder.deferred.get();
            *inflight_total += responder.deferred.get();
            let frame = match reply {
                Reply::Frame(frame) => frame,
                Reply::Last(frame) => {
                    self.closing = true;
                    frame
                }
                Reply::Deferred => continue,
            };
            if self.io.send_frame(&frame).is_err() {
                return true;
            }
        }
        false
    }

    /// Reconciles epoll interest and the stall timer with the send
    /// buffer's state after any activity on the connection.
    fn settle(
        &mut self,
        config: &FrontConfig,
        poller: &Poller,
        wheel: &mut TimerWheel,
        token: u64,
        dead: bool,
    ) {
        if dead {
            return;
        }
        let wants = self.io.wants_write();
        if wants != self.writable_armed {
            let interest = if wants {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if poller.reregister(self.io.stream(), token, interest).is_ok() {
                self.writable_armed = wants;
            }
        }
        if wants {
            if self.stall.is_none() {
                self.stall = Some(wheel.schedule_after(config.write_timeout, token));
            }
        } else if let Some(id) = self.stall.take() {
            wheel.cancel(id);
        }
    }

    /// True when the connection has nothing left to do and should close:
    /// a last reply flushed, or the peer closed and nothing is owed.
    fn done(&self) -> bool {
        if self.io.wants_write() {
            return false;
        }
        self.closing || (self.io.is_eof() && self.inflight == 0)
    }
}
