//! A real-network host for `rapid-core` nodes.
//!
//! The paper's implementation runs over gRPC/Netty; this crate provides the
//! equivalent plumbing with `std::net` TCP and threads, with no async
//! runtime dependency. The sans-io [`rapid_core::node::Node`] is driven by
//! a single driver thread that blocks on one inbox (protocol frames from
//! the per-connection reader threads, plus leave) until a frame arrives or
//! its next tick is due. Outbound frames go onto bounded per-peer queues,
//! one writer thread per peer socket (a lazily connected stream each), so
//! a slow or dead peer backs up only its own queue instead of
//! head-of-line blocking every destination.
//!
//! The caller passes a *sink* — a closure the transport calls for every
//! event it delivers ([`AppEvent`]). Reader threads call it for app
//! frames, the driver for view, join and kick events; app sends enqueue
//! straight onto the writer queues. No thread sits between a socket and
//! the sink, or between the sender and the writer. Membership-only
//! callers pass a channel sender as their sink.
//!
//! Framing: every message is `[u32 total_len][u16 host_len][host bytes]
//! [u16 port][rapid_core::wire body]`, where `host:port` is the *logical*
//! listen address of the sender (connections are unidirectional and
//! ephemeral; the protocol addresses peers by listen address).
//!
//! Delivery is best effort, like the UDP the paper uses for gossip: a
//! failed connect or write simply drops the message — Rapid's dissemination
//! and failure detection are built to tolerate exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;

use rapid_core::config::Configuration;
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::ViewChange;
use rapid_core::node::{Action, Event, Node, NodeStatus};
use rapid_core::rng::Xoshiro256;
use rapid_core::settings::Settings;
use rapid_core::wire::{self, Message, PeerQuota, QuotaTracker};
use rapid_core::Member;

/// Application-visible events surfaced by the runtime.
#[derive(Clone, Debug)]
pub enum AppEvent {
    /// A view change was installed (the paper's view-change callback).
    View(ViewChange),
    /// This node completed its join. A seed reports its one-member view
    /// this way, as its first event.
    Joined(Arc<Configuration>),
    /// This node was removed from the membership.
    Kicked,
    /// An opaque application payload arrived from a peer (sent with
    /// [`Runtime::send_app`]) — the hook data planes (e.g. `rapid-route`'s
    /// replicated KV) build on without the transport knowing their wire
    /// format. Delivered on the connection's reader thread.
    App(Endpoint, Vec<u8>),
}

/// Maximum accepted frame size (a full 5000-member snapshot fits well
/// within this).
const MAX_FRAME: u32 = 32 * 1024 * 1024;

/// First body byte of an application-payload frame. The membership codec
/// owns the low tag space (see `rapid_core::wire`); this value is far
/// outside it, so a protocol frame can never be mistaken for an app frame
/// or vice versa.
const APP_FRAME_TAG: u8 = 0xA5;

/// Listener idle-poll backoff bounds. The non-blocking accept loop
/// sleeps `min` after the first empty poll and doubles up to `max`, so a
/// bursty joiner wave is accepted with ~1 ms latency while an idle
/// listener wakes only ten times a second instead of fifty.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// A decoded inbound frame body: either a membership-protocol message or
/// an opaque application payload.
enum Inbound {
    Proto(Message),
    App(Vec<u8>),
}

/// Writes the shared `[len][host][port]` header into `buf` (cleared
/// first), leaving the body to the caller, then returns nothing — callers
/// patch the length and flush.
fn begin_frame(from: &Endpoint, buf: &mut Vec<u8>) {
    let host = from.host().as_bytes();
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]); // Length placeholder, patched below.
    buf.extend_from_slice(&(host.len() as u16).to_le_bytes());
    buf.extend_from_slice(host);
    buf.extend_from_slice(&from.port().to_le_bytes());
}

fn finish_frame(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let total = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&total.to_le_bytes());
    stream.write_all(buf)
}

/// Writes one protocol frame, encoding straight into the caller's scratch
/// buffer (cleared first) so the steady-state send path allocates nothing.
fn write_frame(
    stream: &mut TcpStream,
    from: &Endpoint,
    msg: &Message,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    begin_frame(from, buf);
    wire::encode(msg, buf);
    finish_frame(stream, buf)
}

/// Writes one application-payload frame.
fn write_app_frame(
    stream: &mut TcpStream,
    from: &Endpoint,
    payload: &[u8],
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    begin_frame(from, buf);
    buf.push(APP_FRAME_TAG);
    buf.extend_from_slice(payload);
    finish_frame(stream, buf)
}

/// Reads one frame, returning the sender, the decoded body, and the
/// frame's wire size in bytes (header included — the unit the per-peer
/// byte quota meters).
fn read_frame(stream: &mut TcpStream) -> std::io::Result<(Endpoint, Inbound, u64)> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut frame = vec![0u8; len as usize];
    stream.read_exact(&mut frame)?;
    if frame.len() < 4 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "short frame",
        ));
    }
    let host_len = u16::from_le_bytes([frame[0], frame[1]]) as usize;
    if host_len > wire::MAX_WIRE_HOST_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "sender host name exceeds cap",
        ));
    }
    if frame.len() < 2 + host_len + 2 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "short frame header",
        ));
    }
    let host = std::str::from_utf8(&frame[2..2 + host_len])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad host"))?
        .to_string();
    let port = u16::from_le_bytes([frame[2 + host_len], frame[3 + host_len]]);
    let body = &frame[4 + host_len..];
    let inbound = if body.first() == Some(&APP_FRAME_TAG) {
        Inbound::App(body[1..].to_vec())
    } else {
        Inbound::Proto(
            wire::decode(body)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
        )
    };
    // The frame-header sender address is peer-supplied too: apply the
    // same distinct-hosts cap the body decoder enforces.
    let from = Endpoint::new_bounded(host, port, wire::MAX_DISTINCT_WIRE_HOSTS)
        .map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "sender host would exceed the distinct-hosts cap",
            )
        })?;
    Ok((from, inbound, 4 + len as u64))
}

/// A lazily connected pool of outbound streams.
struct StreamPool {
    me: Endpoint,
    streams: std::collections::HashMap<Endpoint, TcpStream>,
    connect_timeout: Duration,
    /// Reused frame-encode buffer (see [`write_frame`]).
    encode_buf: Vec<u8>,
}

impl StreamPool {
    fn new(me: Endpoint, connect_timeout: Duration) -> Self {
        StreamPool {
            me,
            streams: std::collections::HashMap::new(),
            connect_timeout,
            encode_buf: Vec::new(),
        }
    }

    /// Connects lazily; `false` means the peer is unreachable right now.
    fn ensure(&mut self, to: &Endpoint) -> bool {
        if self.streams.contains_key(to) {
            return true;
        }
        let addr = match format!("{to}").to_socket_addrs() {
            Ok(mut addrs) => addrs.next(),
            Err(_) => None,
        };
        let Some(addr) = addr else { return false };
        let Ok(stream) = TcpStream::connect_timeout(&addr, self.connect_timeout) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        self.streams.insert(*to, stream);
        true
    }

    fn after_write(&mut self, to: &Endpoint, failed: bool) {
        if failed {
            if let Some(s) = self.streams.remove(to) {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Best-effort send; drops the message on any error.
    fn send(&mut self, to: &Endpoint, msg: &Message) {
        if !self.ensure(to) {
            return;
        }
        let failed = {
            let stream = self.streams.get_mut(to).expect("just inserted");
            write_frame(stream, &self.me, msg, &mut self.encode_buf).is_err()
        };
        self.after_write(to, failed);
    }

    /// Best-effort application-payload send; drops the payload on error.
    fn send_app(&mut self, to: &Endpoint, payload: &[u8]) {
        if !self.ensure(to) {
            return;
        }
        let failed = {
            let stream = self.streams.get_mut(to).expect("just inserted");
            write_app_frame(stream, &self.me, payload, &mut self.encode_buf).is_err()
        };
        self.after_write(to, failed);
    }
}

/// Depth of each per-peer send queue — the backpressure bound. At the
/// default tick cadence this is several seconds of protocol traffic;
/// overflowing it means the peer is effectively unreachable, so further
/// frames are dropped exactly as a write timeout would have dropped
/// them.
const PEER_QUEUE_DEPTH: usize = 4 * 1024;

/// Connect timeout of every outbound stream.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// One queued outbound frame for a peer's writer thread.
enum WriteJob {
    Proto(Message),
    App(Vec<u8>),
}

/// One writer thread per peer socket, fed by bounded per-peer queues.
///
/// Every sender (the runtime's driver thread, data-plane host threads,
/// an [`AppPeer`]'s owner) enqueues straight onto the destination's
/// queue and never blocks on the network: enqueueing to a full peer
/// queue drops the frame — the same best-effort semantics as a failed
/// write. A peer whose socket stalls (slow reader, connect timeout to a
/// dead host) backs up only its own queue; it can no longer
/// head-of-line-block frames bound for every other destination.
struct PeerWriters {
    me: Endpoint,
    shutdown: Arc<AtomicBool>,
    peers: std::collections::HashMap<Endpoint, Sender<WriteJob>>,
    handles: Vec<JoinHandle<()>>,
}

impl PeerWriters {
    fn new(me: Endpoint, shutdown: Arc<AtomicBool>) -> Arc<Mutex<PeerWriters>> {
        Arc::new(Mutex::new(PeerWriters {
            me,
            shutdown,
            peers: std::collections::HashMap::new(),
            handles: Vec::new(),
        }))
    }

    /// Best-effort send: queued to the peer's writer (spawned on first
    /// use), dropped when its queue is full or the owner is shutting
    /// down. Each writer owns a single-entry [`StreamPool`], so
    /// connect/write blocking stays on that thread; it sleeps in a
    /// blocking `recv` and exits when its queue disconnects.
    fn send(&mut self, to: Endpoint, job: WriteJob) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let me = self.me;
        let stop = &self.shutdown;
        let handles = &mut self.handles;
        let queue = self.peers.entry(to).or_insert_with(|| {
            let (tx, rx) = bounded::<WriteJob>(PEER_QUEUE_DEPTH);
            let stop = Arc::clone(stop);
            handles.push(std::thread::spawn(move || {
                let mut pool = StreamPool::new(me, CONNECT_TIMEOUT);
                while let Ok(job) = rx.recv() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match job {
                        WriteJob::Proto(msg) => pool.send(&to, &msg),
                        WriteJob::App(payload) => pool.send_app(&to, &payload),
                    }
                }
            }));
            tx
        });
        let _ = queue.try_send(job);
    }

    /// Drops every queue (each writer sees the disconnect once it has
    /// drained or, past shutdown, at its next frame) and joins the
    /// writer threads. Call after setting the shutdown flag, so no new
    /// writer can spawn behind it.
    fn join_all(writers: &Mutex<PeerWriters>) {
        let handles = {
            let mut w = writers.lock();
            w.peers.clear();
            std::mem::take(&mut w.handles)
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// A cloneable handle that sends app payloads from any thread straight
/// onto the per-peer writer queues of a [`Runtime`] or [`AppPeer`] —
/// the hook data-plane host threads use to emit frames without owning
/// the transport. Delivery is best effort: a payload is dropped when
/// the peer's queue is full.
#[derive(Clone)]
pub struct AppSender(Arc<Mutex<PeerWriters>>);

impl AppSender {
    /// Queues an app payload for best-effort delivery to `to`.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.0.lock().send(to, WriteJob::App(payload));
    }
}

/// Binds the accept loop shared by [`Runtime`] and [`AppPeer`]: one
/// reader thread per inbound connection, each handing every decoded
/// frame (sender, body, wire size) to `on_frame` on its own thread. A
/// reader stops when `on_frame` returns `false`, its peer hangs up, or
/// the shutdown flag is set.
fn spawn_listener<F>(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    on_frame: F,
) -> std::io::Result<JoinHandle<()>>
where
    F: Fn(Endpoint, Inbound, u64) -> bool + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let on_frame = Arc::new(on_frame);
    Ok(std::thread::spawn(move || {
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        // Idle-poll backoff: start fast so a fresh connection is picked
        // up promptly, back off exponentially while the socket stays
        // quiet so an idle node does not spin at a fixed cadence, and
        // reset on every accepted connection.
        let mut backoff = ACCEPT_BACKOFF_MIN;
        while !shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    let on_frame = Arc::clone(&on_frame);
                    let stop = Arc::clone(&shutdown);
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    readers.push(std::thread::spawn(move || {
                        let mut stream = stream;
                        while !stop.load(Ordering::Relaxed) {
                            match read_frame(&mut stream) {
                                Ok((from, body, size)) => {
                                    if !on_frame(from, body, size) {
                                        break;
                                    }
                                }
                                Err(e)
                                    if e.kind() == std::io::ErrorKind::WouldBlock
                                        || e.kind() == std::io::ErrorKind::TimedOut =>
                                {
                                    continue
                                }
                                Err(_) => break,
                            }
                        }
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                }
                Err(_) => break,
            }
        }
        for r in readers {
            let _ = r.join();
        }
    }))
}

/// The driver thread's single inbox.
enum DriverIn {
    /// A protocol frame that passed the per-peer quota.
    Frame(Endpoint, Message),
    /// Announce a voluntary departure.
    Leave,
    /// Exit now (the shutdown flag is already set).
    Stop,
}

/// A running Rapid node bound to a real TCP socket.
///
/// Threads: one listener, one reader per inbound connection, one driver
/// that owns the sans-io [`Node`], and one writer per destination peer.
/// Readers apply the per-peer quota, then hand app frames to the
/// caller's sink and protocol frames to the driver's inbox; the driver
/// blocks until a frame arrives or its next tick is due, hands view,
/// join and kick events to the sink, and enqueues protocol frames onto
/// the writer queues. [`Runtime::send_app`] enqueues onto those queues
/// directly, so an app payload never waits for the driver.
pub struct Runtime {
    me: Member,
    view: Arc<Mutex<Arc<Configuration>>>,
    status: Arc<Mutex<NodeStatus>>,
    shutdown: Arc<AtomicBool>,
    inbox: Sender<DriverIn>,
    writers: Arc<Mutex<PeerWriters>>,
    quotas: Arc<Mutex<QuotaTracker>>,
    threads: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Starts a seed node bootstrapping a fresh cluster on `listen`.
    /// Every [`AppEvent`] is handed to `sink` (see [`Runtime`] for the
    /// threads that call it); the seed's one-member view arrives first,
    /// as [`AppEvent::Joined`].
    pub fn start_seed<S>(listen: Endpoint, settings: Settings, sink: S) -> std::io::Result<Runtime>
    where
        S: Fn(AppEvent) + Send + Sync + 'static,
    {
        Self::start(listen, settings, Vec::new(), rapid_core::Metadata::new(), sink)
    }

    /// Starts a node that joins an existing cluster through `seeds`,
    /// handing every [`AppEvent`] to `sink`.
    pub fn start_joiner<S>(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
        sink: S,
    ) -> std::io::Result<Runtime>
    where
        S: Fn(AppEvent) + Send + Sync + 'static,
    {
        Self::start(listen, settings, seeds, metadata, sink)
    }

    fn start<S>(
        listen: Endpoint,
        settings: Settings,
        seeds: Vec<Endpoint>,
        metadata: rapid_core::Metadata,
        sink: S,
    ) -> std::io::Result<Runtime>
    where
        S: Fn(AppEvent) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(format!("{listen}"))?;
        let actual: SocketAddr = listener.local_addr()?;
        let me_ep = Endpoint::new(listen.host(), actual.port());
        // Fresh logical id per join, seeded from OS entropy via the
        // address of a stack local + time (no extra dependencies).
        let seed_entropy = Instant::now().elapsed().as_nanos() as u64
            ^ std::process::id() as u64
            ^ me_ep.digest();
        let mut rng = Xoshiro256::seed_from_u64(seed_entropy);
        let id = NodeId::random(&mut rng);
        let me = Member::with_metadata(id, me_ep, metadata);

        let node = if seeds.is_empty() {
            Node::new_seed(me.clone(), settings.clone())
        } else {
            Node::new_joiner(me.clone(), settings.clone(), seeds)
        };

        let sink = Arc::new(sink);
        let (inbox, inbox_rx) = bounded::<DriverIn>(64 * 1024);
        let shutdown = Arc::new(AtomicBool::new(false));
        let view = Arc::new(Mutex::new(node.configuration()));
        let status = Arc::new(Mutex::new(node.status()));
        let writers = PeerWriters::new(me_ep, Arc::clone(&shutdown));
        let quota = PeerQuota {
            frames_per_interval: settings.peer_quota_frames,
            bytes_per_interval: settings.peer_quota_bytes,
            interval_ms: settings.peer_quota_interval_ms,
        };
        let quotas = Arc::new(Mutex::new(QuotaTracker::new(quota)));
        let start = Instant::now();

        // Readers: a peer over its frame or byte budget for this interval
        // has the frame dropped before any dispatch; app frames go
        // straight to the sink, protocol frames to the driver.
        let mut threads = vec![{
            let inbox = inbox.clone();
            let sink = Arc::clone(&sink);
            let quotas = Arc::clone(&quotas);
            spawn_listener(listener, Arc::clone(&shutdown), move |from, body, size| {
                if !quota.is_unlimited() {
                    let now_ms = start.elapsed().as_millis() as u64;
                    if quotas.lock().admit(from, size as usize, now_ms).is_err() {
                        return true;
                    }
                }
                match body {
                    Inbound::Proto(msg) => inbox.send(DriverIn::Frame(from, msg)).is_ok(),
                    Inbound::App(payload) => {
                        sink(AppEvent::App(from, payload));
                        true
                    }
                }
            })?
        }];

        // Driver: blocks until a frame arrives or the next tick is due,
        // drains the inbox, then dispatches the node's actions.
        {
            let shutdown = Arc::clone(&shutdown);
            let view = Arc::clone(&view);
            let status = Arc::clone(&status);
            let writers = Arc::clone(&writers);
            let tick = Duration::from_millis(settings.tick_interval_ms);
            threads.push(std::thread::spawn(move || {
                let mut node = node;
                let mut actions = Vec::new();
                if node.status() == NodeStatus::Active {
                    sink(AppEvent::Joined(node.configuration()));
                }
                let mut next_tick = Instant::now();
                'run: loop {
                    let mut item =
                        match inbox_rx.recv_timeout(next_tick.saturating_duration_since(Instant::now())) {
                            Ok(item) => Some(item),
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => None,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
                        };
                    while let Some(input) = item.take().or_else(|| inbox_rx.try_recv().ok()) {
                        match input {
                            DriverIn::Frame(from, msg) => {
                                node.handle(Event::Receive { from, msg }, &mut actions)
                            }
                            DriverIn::Leave => node.leave(&mut actions),
                            DriverIn::Stop => break 'run,
                        }
                    }
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    if Instant::now() >= next_tick {
                        let now_ms = start.elapsed().as_millis() as u64;
                        node.handle(Event::Tick { now_ms }, &mut actions);
                        next_tick += tick;
                    }
                    for action in actions.drain(..) {
                        match action {
                            Action::Send { to, msg } => {
                                writers.lock().send(to, WriteJob::Proto(msg))
                            }
                            Action::View(vc) => {
                                *view.lock() = Arc::clone(&vc.configuration);
                                *status.lock() = node.status();
                                sink(AppEvent::View(vc));
                            }
                            Action::Joined { config } => {
                                *view.lock() = Arc::clone(&config);
                                *status.lock() = node.status();
                                sink(AppEvent::Joined(config));
                            }
                            Action::Kicked => {
                                *status.lock() = NodeStatus::Kicked;
                                sink(AppEvent::Kicked);
                            }
                        }
                    }
                    *status.lock() = node.status();
                }
            }));
        }

        Ok(Runtime {
            me,
            view,
            status,
            shutdown,
            inbox,
            writers,
            quotas,
            threads,
        })
    }

    /// Inbound frames dropped by the per-peer decode quota so far
    /// (`Settings::peer_quota_frames` / `peer_quota_bytes`; 0 when
    /// quotas are disabled).
    pub fn quota_dropped(&self) -> u64 {
        self.quotas.lock().dropped()
    }

    /// This node's identity.
    pub fn member(&self) -> &Member {
        &self.me
    }

    /// The node's listen address (with the actual bound port).
    pub fn addr(&self) -> &Endpoint {
        &self.me.addr
    }

    /// The latest installed configuration.
    pub fn view(&self) -> Arc<Configuration> {
        Arc::clone(&self.view.lock())
    }

    /// The node's lifecycle status.
    pub fn status(&self) -> NodeStatus {
        *self.status.lock()
    }

    /// Sends an opaque application payload to a peer runtime, best
    /// effort, straight onto the peer's writer queue. The peer's sink
    /// receives it as [`AppEvent::App`].
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.writers.lock().send(to, WriteJob::App(payload));
    }

    /// A cloneable handle for the same sends from threads that do not
    /// own the runtime (e.g. KV shard host threads).
    pub fn app_sender(&self) -> AppSender {
        AppSender(Arc::clone(&self.writers))
    }

    /// Starts a loopback introspection listener and returns its bound
    /// address.
    ///
    /// Every accepted connection receives exactly one line of JSON —
    /// `{"node":"host:port","status":"Active","view_id":<u64>,
    /// "members":<n>,"quota_dropped":<n>, ...}` — and is then closed, so
    /// `nc 127.0.0.1 PORT` or a scraper can poll liveness without
    /// speaking the membership protocol. The `extra` hook appends
    /// data-plane fields (the caller writes `,"key":value` pairs into
    /// the line) so hosts like `rapid-route` can expose KV stats and
    /// op-latency quantiles through the same socket.
    ///
    /// The listener binds `127.0.0.1:0` (loopback only, ephemeral port),
    /// runs on its own thread with the same idle-poll backoff as the
    /// main accept loop, and stops with the runtime's shutdown flag.
    pub fn serve_introspection<F>(&mut self, extra: F) -> std::io::Result<SocketAddr>
    where
        F: Fn(&mut String) + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let me = self.me.addr;
        let view = Arc::clone(&self.view);
        let status = Arc::clone(&self.status);
        let quotas = Arc::clone(&self.quotas);
        let shutdown = Arc::clone(&self.shutdown);
        self.threads.push(std::thread::spawn(move || {
            let mut backoff = ACCEPT_BACKOFF_MIN;
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        let (view_id, members) = {
                            let v = view.lock();
                            (v.id().0, v.len())
                        };
                        let st = *status.lock();
                        let dropped = quotas.lock().dropped();
                        let mut line = format!(
                            "{{\"node\":\"{me}\",\"status\":\"{st:?}\",\"view_id\":{view_id},\"members\":{members},\"quota_dropped\":{dropped}"
                        );
                        extra(&mut line);
                        line.push_str("}\n");
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    }
                    Err(_) => break,
                }
            }
        }));
        Ok(bound)
    }

    /// Announces a voluntary departure, then shuts the runtime down.
    pub fn leave(self) {
        let _ = self.inbox.send(DriverIn::Leave);
        std::thread::sleep(Duration::from_millis(200));
        self.shutdown_now();
    }

    /// Stops all threads without announcing departure (a crash, as far as
    /// the cluster is concerned).
    pub fn shutdown_now(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.inbox.send(DriverIn::Stop);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        PeerWriters::join_all(&self.writers);
    }
}

/// A standalone application-frame endpoint for processes *outside* the
/// membership — the smart-client plane's transport. It speaks only the
/// opaque app-frame subset of the wire format: inbound protocol frames
/// are ignored, every received app payload is handed to the caller's
/// sink as `(sender, payload)` on its reader thread, and sends go
/// straight onto per-peer writer queues (one pooled TCP stream per
/// destination).
///
/// Unlike [`Runtime`], an `AppPeer` never joins, probes, or votes — it
/// holds no `Node` at all. A `rapid-route` smart client built on it
/// learns the membership purely from view pushes over app frames.
pub struct AppPeer {
    me: Endpoint,
    writers: Arc<Mutex<PeerWriters>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl AppPeer {
    /// Binds `listen` (port 0 for ephemeral) and starts the accept loop;
    /// `sink` receives every inbound app payload.
    pub fn start<S>(listen: Endpoint, sink: S) -> std::io::Result<AppPeer>
    where
        S: Fn(Endpoint, Vec<u8>) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(format!("{listen}"))?;
        let actual: SocketAddr = listener.local_addr()?;
        let me = Endpoint::new(listen.host(), actual.port());
        let shutdown = Arc::new(AtomicBool::new(false));
        let listener = spawn_listener(listener, Arc::clone(&shutdown), move |from, body, _| {
            // Membership traffic aimed at a client is a peer bug; drop it.
            if let Inbound::App(payload) = body {
                sink(from, payload);
            }
            true
        })?;
        Ok(AppPeer {
            me,
            writers: PeerWriters::new(me, Arc::clone(&shutdown)),
            shutdown,
            threads: vec![listener],
        })
    }

    /// The bound listen address (what peers see as the sender).
    pub fn addr(&self) -> &Endpoint {
        &self.me
    }

    /// Queues an app payload for best-effort delivery over the pooled
    /// per-peer stream.
    pub fn send_app(&self, to: Endpoint, payload: Vec<u8>) {
        self.writers.lock().send(to, WriteJob::App(payload));
    }

    /// A cloneable handle for the same sends from other threads.
    pub fn app_sender(&self) -> AppSender {
        AppSender(Arc::clone(&self.writers))
    }

    /// Stops all threads.
    pub fn shutdown_now(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        PeerWriters::join_all(&self.writers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::Receiver;

    fn fast_settings() -> Settings {
        Settings {
            tick_interval_ms: 20,
            fd_probe_interval_ms: 200,
            fd_probe_timeout_ms: 200,
            consensus_fallback_base_ms: 1_500,
            consensus_fallback_jitter_ms: 500,
            join_timeout_ms: 1_000,
            gossip_interval_ms: 50,
            ..Settings::default()
        }
    }

    /// A channel sink: the membership-only way to consume events.
    fn events() -> (impl Fn(AppEvent) + Send + Sync + 'static, Receiver<AppEvent>) {
        let (tx, rx) = bounded::<AppEvent>(16 * 1024);
        (move |ev| drop(tx.try_send(ev)), rx)
    }

    /// An app peer whose payloads land on a channel.
    fn app_peer() -> (AppPeer, Receiver<(Endpoint, Vec<u8>)>) {
        let (tx, rx) = bounded(64 * 1024);
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0), move |from, payload| {
            drop(tx.try_send((from, payload)))
        })
        .unwrap();
        (peer, rx)
    }

    fn wait_for<F: FnMut() -> bool>(mut f: F, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        false
    }

    #[test]
    fn per_peer_writers_preserve_order_across_interleaved_destinations() {
        // Frames to one peer stay FIFO through its dedicated writer even
        // when the dispatcher interleaves them with frames for other
        // peers (and for a dead endpoint, whose connect attempts now
        // block only that peer's own writer thread).
        let (a, _) = app_peer();
        let (b, b_rx) = app_peer();
        let (c, c_rx) = app_peer();
        let dead = {
            // A port that was just bound and released: nothing listens.
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let port = l.local_addr().unwrap().port();
            drop(l);
            Endpoint::new("127.0.0.1", port)
        };
        for i in 0..50u8 {
            a.send_app(*b.addr(), vec![0, i]);
            a.send_app(dead, vec![9, i]);
            a.send_app(*c.addr(), vec![1, i]);
        }
        let drain = |rx: &Receiver<(Endpoint, Vec<u8>)>, tag: u8| {
            let mut got = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while got.len() < 50 && Instant::now() < deadline {
                if let Ok((from, payload)) = rx.recv_timeout(Duration::from_millis(100)) {
                    assert_eq!(from, *a.addr());
                    assert_eq!(payload[0], tag);
                    got.push(payload[1]);
                }
            }
            got
        };
        assert_eq!(drain(&b_rx, 0), (0..50).collect::<Vec<_>>());
        assert_eq!(drain(&c_rx, 1), (0..50).collect::<Vec<_>>());
        a.shutdown_now();
        b.shutdown_now();
        c.shutdown_now();
    }

    #[test]
    fn frame_roundtrip_over_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &Endpoint::new("me", 42),
                &Message::Probe { seq: 7 },
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 42));
        assert!(matches!(inbound, Inbound::Proto(Message::Probe { seq: 7 })));
        sender.join().unwrap();
    }

    #[test]
    fn batch_frame_roundtrips_as_one_tcp_write() {
        // A coalesced outbox flush is one frame — and therefore exactly
        // one `write_all` on the stream — carrying every message in
        // order.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(
                &mut stream,
                &Endpoint::new("me", 44),
                &Message::Batch {
                    msgs: vec![
                        Message::Probe { seq: 1 },
                        Message::ProbeAck { seq: 2, config_seq: 3 },
                        Message::ConfigPull { have_seq: 4 },
                    ],
                },
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 44));
        match inbound {
            Inbound::Proto(Message::Batch { msgs }) => {
                assert_eq!(msgs.len(), 3);
                assert!(matches!(msgs[0], Message::Probe { seq: 1 }));
                assert!(matches!(msgs[1], Message::ProbeAck { seq: 2, .. }));
                assert!(matches!(msgs[2], Message::ConfigPull { have_seq: 4 }));
            }
            _ => panic!("batch frame must decode as one protocol message"),
        }
        sender.join().unwrap();
    }

    #[test]
    fn app_frame_roundtrip_over_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_app_frame(
                &mut stream,
                &Endpoint::new("me", 43),
                b"kv: hello",
                &mut Vec::new(),
            )
            .unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let (from, inbound, _) = read_frame(&mut conn).unwrap();
        assert_eq!(from, Endpoint::new("me", 43));
        match inbound {
            Inbound::App(payload) => assert_eq!(payload, b"kv: hello"),
            Inbound::Proto(_) => panic!("app frame decoded as protocol frame"),
        }
        sender.join().unwrap();
    }

    #[test]
    fn app_payloads_flow_between_runtimes() {
        let settings = fast_settings();
        let (sink, seed_events) = events();
        let seed =
            Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone(), sink).unwrap();
        let seed_addr = *seed.addr();
        let j = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            |_| {},
        )
        .unwrap();
        assert!(wait_for(|| seed.view().len() == 2, Duration::from_secs(30)));
        j.send_app(seed_addr, b"ping-42".to_vec());
        let got = wait_for(
            || {
                while let Ok(ev) = seed_events.try_recv() {
                    if let AppEvent::App(from, payload) = ev {
                        assert_eq!(from, *j.addr());
                        assert_eq!(payload, b"ping-42");
                        return true;
                    }
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app payload must arrive at the seed");
        j.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn introspection_endpoint_serves_one_json_line() {
        let settings = fast_settings();
        let mut seed =
            Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone(), |_| {}).unwrap();
        let probe_addr =
            seed.serve_introspection(|line| line.push_str(",\"probe\":1")).unwrap();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        // Poll twice: each connection gets exactly one line and a close.
        for _ in 0..2 {
            let mut conn = TcpStream::connect(probe_addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            assert!(body.ends_with("}\n"), "one newline-terminated line: {body:?}");
            assert!(body.starts_with("{\"node\":\"127.0.0.1:"), "{body:?}");
            assert!(body.contains("\"status\":\"Active\""), "{body:?}");
            assert!(body.contains("\"members\":1"), "{body:?}");
            assert!(body.contains("\"quota_dropped\":0"), "{body:?}");
            assert!(body.contains(",\"probe\":1"), "extra hook must run: {body:?}");
        }
        seed.shutdown_now();
    }

    #[test]
    fn cluster_forms_and_removes_crashed_node_over_tcp() {
        let settings = fast_settings();
        let seed =
            Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone(), |_| {}).unwrap();
        let seed_addr = *seed.addr();
        let mut joiners = Vec::new();
        for _ in 0..3 {
            joiners.push(
                Runtime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    rapid_core::Metadata::with_entry("role", "test"),
                    |_| {},
                )
                .unwrap(),
            );
        }
        assert!(
            wait_for(
                || seed.view().len() == 4 && joiners.iter().all(|j| j.view().len() == 4),
                Duration::from_secs(30)
            ),
            "4-node cluster must form over TCP, seed sees {}",
            seed.view().len()
        );
        // All views agree.
        let id = seed.view().id();
        assert!(joiners.iter().all(|j| j.view().id() == id));
        // Hard-kill one joiner; the survivors must remove it.
        let victim = joiners.pop().unwrap();
        let victim_id = victim.member().id;
        victim.shutdown_now();
        assert!(
            wait_for(
                || seed.view().len() == 3 && !seed.view().contains(victim_id),
                Duration::from_secs(60)
            ),
            "crashed node must be removed, seed sees {}",
            seed.view().len()
        );
        for j in joiners {
            j.shutdown_now();
        }
        seed.shutdown_now();
    }

    #[test]
    fn voluntary_leave_is_faster_than_crash_detection() {
        let settings = fast_settings();
        let seed =
            Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone(), |_| {}).unwrap();
        let seed_addr = *seed.addr();
        let j1 = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings.clone(),
            rapid_core::Metadata::new(),
            |_| {},
        )
        .unwrap();
        let j2 = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            |_| {},
        )
        .unwrap();
        assert!(wait_for(
            || seed.view().len() == 3,
            Duration::from_secs(30)
        ));
        let t0 = Instant::now();
        j2.leave();
        assert!(
            wait_for(|| seed.view().len() == 2, Duration::from_secs(30)),
            "leaver must be removed"
        );
        // A leave announcement skips the probe timeout path.
        assert!(t0.elapsed() < Duration::from_secs(25));
        j1.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn app_peer_exchanges_payloads_with_a_runtime() {
        // The client plane's transport: an AppPeer (no membership)
        // talking app frames with a full runtime, both directions.
        let settings = fast_settings();
        let (sink, seed_events) = events();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings, sink).unwrap();
        let seed_addr = *seed.addr();
        let (peer, peer_events) = app_peer();
        let peer_addr = *peer.addr();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        peer.send_app(seed_addr, b"sub".to_vec());
        let got = wait_for(
            || {
                while let Ok(ev) = seed_events.try_recv() {
                    if let AppEvent::App(from, payload) = ev {
                        assert_eq!(from, peer_addr);
                        assert_eq!(payload, b"sub");
                        return true;
                    }
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app frame from the peer must reach the runtime");
        // And the runtime can answer the peer at its listen address.
        seed.send_app(peer_addr, b"view".to_vec());
        let got = wait_for(
            || {
                if let Ok((from, payload)) = peer_events.try_recv() {
                    assert_eq!(from, seed_addr);
                    assert_eq!(payload, b"view");
                    return true;
                }
                false
            },
            Duration::from_secs(10),
        );
        assert!(got, "app frame from the runtime must reach the peer");
        peer.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn peer_quota_drops_flooding_frames() {
        // A tight per-peer frame budget: a flood from one AppPeer must
        // trip the quota and be counted as dropped.
        let settings = Settings {
            peer_quota_frames: 2,
            peer_quota_interval_ms: 60_000,
            ..fast_settings()
        };
        let (sink, seed_events) = events();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings, sink).unwrap();
        let seed_addr = *seed.addr();
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        assert_eq!(seed.quota_dropped(), 0);
        let (peer, _) = app_peer();
        for i in 0..20 {
            peer.send_app(seed_addr, format!("flood-{i}").into_bytes());
        }
        assert!(
            wait_for(|| seed.quota_dropped() > 0, Duration::from_secs(10)),
            "flood must trip the per-peer quota"
        );
        // Within one interval, at most the budget got through.
        let mut delivered = 0;
        while let Ok(ev) = seed_events.try_recv() {
            if matches!(ev, AppEvent::App(..)) {
                delivered += 1;
            }
        }
        assert!(delivered <= 2, "budget of 2 frames, {delivered} delivered");
        peer.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn app_send_does_not_wait_for_the_next_tick() {
        // A lone seed ticking every 10 s: nothing else wakes its driver,
        // so an app payload queued behind the driver would sit there
        // until the next tick. Sends go straight to the writer queue.
        let settings = Settings {
            tick_interval_ms: 10_000,
            ..fast_settings()
        };
        let (sink, seed_events) = events();
        let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings, sink).unwrap();
        // A seed reports its one-member view first, as a join.
        match seed_events.recv_timeout(Duration::from_secs(5)) {
            Ok(AppEvent::Joined(config)) => assert_eq!(config.len(), 1),
            other => panic!("expected the seed's initial view, got {other:?}"),
        }
        let (peer, peer_events) = app_peer();
        // Let the driver's first (immediate) tick pass.
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        seed.send_app(*peer.addr(), b"now".to_vec());
        let got = peer_events.recv_timeout(Duration::from_secs(1));
        assert!(
            matches!(&got, Ok((from, payload)) if from == seed.addr() && payload == b"now"),
            "payload must arrive within 1 s, got {got:?} after {:?}",
            t0.elapsed()
        );
        peer.shutdown_now();
        seed.shutdown_now();
    }
}
