//! Hosting the KV data plane on the real TCP transport.
//!
//! Every thread that runs a sans-io core runs the same [`host_loop`]: it
//! owns one inbox, blocks until input arrives or its next timer is due,
//! reads the clock once it wakes, drains the inbox fully, and then sends
//! everything the core emitted. The loop holds no protocol state; the
//! core lives behind a mutex that the accessors lock to read counters
//! and snapshots.
//!
//! [`KvRuntime`] owns a [`rapid_transport::Runtime`] and `W =
//! Settings::kv_shards` shard threads, each hosting a [`KvNode`]
//! restricted (via [`KvNode::with_shard`]) to the partitions
//! [`shard_of`](crate::placement::shard_of) assigns it. The runtime's
//! sink runs on the transport's threads: a reader decodes each app frame
//! and splits it across shard inboxes with [`kv::shard_route`]; the
//! driver broadcasts every view to all shards, in order. Shards send
//! through their own clone of the transport's
//! [`AppSender`](rapid_transport::AppSender), straight onto the per-peer
//! writer queues. At `W = 1` an inbound frame therefore crosses a reader
//! thread and the shard thread, and nothing else.
//!
//! [`KvClientRuntime`] runs a [`KvClient`] the same way on an
//! [`AppPeer`]; ops reach it through its inbox and verdicts come back on
//! per-op reply channels. Ops reach a [`KvNode`] only as wire frames from
//! a client.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rapid_core::config::Configuration;
use rapid_core::hash::DetHashMap;
use rapid_core::id::Endpoint;
use rapid_core::node::NodeStatus;
use rapid_core::obs::{LatencyHist, Timeline, TimelinePoint, DEFAULT_TIMELINE_CAP};
use rapid_core::settings::Settings;
use rapid_transport::{AppEvent, AppPeer, AppSender, Runtime};

use crate::client::{ClientStats, KvClient};
use crate::kv::{self, ClientOp, KvMsg, KvNode, KvOut, KvOutcome, KvStats, PartitionDigest};
use crate::placement::PlacementConfig;

/// Timer cadence of every host loop (KV ticks, client retries).
const HOST_TICK: Duration = Duration::from_millis(20);

/// Capacity of every host inbox.
const INBOX_DEPTH: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// The host loop
// ---------------------------------------------------------------------------

/// A sans-io core as seen by the one thread that drives it.
trait Plane {
    /// What the thread's inbox carries.
    type In;
    /// Applies a drained inbox batch, emptying it; `false` stops the
    /// thread.
    fn apply(&mut self, batch: &mut Vec<Self::In>, now: u64, out: &mut Vec<KvOut>) -> bool;
    /// Runs the timers due at `at` and returns the next deadline.
    fn timers(&mut self, at: Instant, now: u64, out: &mut Vec<KvOut>) -> Instant;
    /// Hands over the verdict of an op this host submitted.
    fn done(&mut self, req: u64, outcome: KvOutcome);
}

/// The one host loop every KV shard thread and the client thread run.
fn host_loop<P: Plane>(mut plane: P, inbox: Receiver<P::In>, sender: AppSender, start: Instant) {
    let mut batch = Vec::new();
    let mut out = Vec::new();
    let mut deadline = Instant::now();
    loop {
        match inbox.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(item) => batch.push(item),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        while let Ok(item) = inbox.try_recv() {
            batch.push(item);
        }
        let woke = Instant::now();
        let now = woke.duration_since(start).as_millis() as u64;
        if !batch.is_empty() && !plane.apply(&mut batch, now, &mut out) {
            return;
        }
        if woke >= deadline {
            deadline = plane.timers(woke, now, &mut out);
        }
        for item in out.drain(..) {
            match item {
                KvOut::Send(to, msg) => {
                    let mut buf = Vec::with_capacity(kv::encoded_len(&msg));
                    kv::encode(&msg, &mut buf);
                    sender.send_app(to, buf);
                }
                KvOut::Done(req, outcome) => plane.done(req, outcome),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// KV shards
// ---------------------------------------------------------------------------

/// One per-shard observability sample, taken on the `obs_sample_ms`
/// cadence by shard 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardPoint {
    /// Sample time on the process wall clock (ms since start).
    pub t_ms: u64,
    /// Client ops pending at the shard (its admission inbox).
    pub depth: u64,
    /// Successful client ops the shard completed during the interval.
    pub ops: u64,
}

/// Input to a shard thread. Only the transport's driver thread delivers
/// views, so every shard adopts them in the same order and recomputes
/// the identical placement.
enum ShardIn {
    Frame(Endpoint, KvMsg),
    View(Arc<Configuration>),
    /// The merged interval quantiles, fed back as the admission
    /// controller's latency signal.
    NoteInterval(u64, u64),
    Stop,
}

/// A shard's state machine, shared between its thread and the accessors.
type Core = Arc<Mutex<KvNode>>;

/// Process-level totals over the shard cores, read under each shard's
/// lock in turn.
struct Totals {
    stats: KvStats,
    op_hist: LatencyHist,
    client_conns: usize,
    /// `(admission-inbox depth, cumulative successful ops)` per shard.
    per_shard: Vec<(u64, u64)>,
}

fn totals(cores: &[Core]) -> Totals {
    let mut t = Totals {
        stats: KvStats::default(),
        op_hist: LatencyHist::new(),
        client_conns: 0,
        per_shard: Vec::with_capacity(cores.len()),
    };
    for core in cores {
        let kv = core.lock();
        let s = kv.stats();
        t.stats.absorb(s);
        t.op_hist.merge(kv.op_hist());
        t.client_conns += kv.client_conns();
        t.per_shard.push((kv.inbox_depth() as u64, s.puts_acked + s.gets_ok));
    }
    t
}

/// What the sampler publishes: the process timeline and one bounded
/// series per shard.
struct Sampled {
    timeline: Timeline,
    series: Vec<VecDeque<ShardPoint>>,
}

/// The `obs_sample_ms` sweep, run by shard 0: one process-level
/// timeline point of interval deltas (the simulator's delta sampler, on
/// the wall clock), the interval latency signal broadcast to every
/// shard, and one point per shard series. Membership wire counters live
/// on the transport's driver thread, so the real-driver timeline carries
/// the data plane (ops, handoff/repair bytes, view changes) — the
/// simulator fills the network columns.
struct Sampler {
    cores: Vec<Core>,
    inboxes: Vec<Sender<ShardIn>>,
    view_count: Arc<AtomicU64>,
    sampled: Arc<Mutex<Sampled>>,
    every: Duration,
    next: Instant,
    cursor: TimelinePoint,
    prev_hist: LatencyHist,
    shard_ops: Vec<u64>,
}

impl Sampler {
    fn sample(&mut self, t_ms: u64) {
        let Totals {
            stats,
            op_hist: hist,
            per_shard,
            ..
        } = totals(&self.cores);
        let (_, p50, p99) = hist.interval_quantiles(&self.prev_hist);
        // Every shard's admission controller sees the same process-level
        // p99 (shard 0's own copy arrives through its inbox too).
        for tx in &self.inboxes {
            let _ = tx.try_send(ShardIn::NoteInterval(p50, p99));
        }
        let views = self.view_count.load(Ordering::Relaxed);
        let ops = stats.puts_acked + stats.gets_ok;
        let now = TimelinePoint {
            t_ms,
            view_changes: views,
            ops,
            handoff_bytes: stats.bytes_moved,
            repair_bytes: stats.repair_bytes,
            ..TimelinePoint::default()
        };
        let mut sampled = self.sampled.lock();
        sampled.timeline.push(TimelinePoint {
            view_changes: views - self.cursor.view_changes,
            ops: ops - self.cursor.ops,
            handoff_bytes: now.handoff_bytes - self.cursor.handoff_bytes,
            repair_bytes: now.repair_bytes - self.cursor.repair_bytes,
            p50_ms: p50,
            p99_ms: p99,
            ..now
        });
        // Series carry interval deltas, like the timeline.
        for (i, &(depth, cum)) in per_shard.iter().enumerate() {
            let series = &mut sampled.series[i];
            if series.len() >= DEFAULT_TIMELINE_CAP {
                series.pop_front();
            }
            series.push_back(ShardPoint {
                t_ms,
                depth,
                ops: cum.saturating_sub(self.shard_ops[i]),
            });
            self.shard_ops[i] = cum;
        }
        self.cursor = now;
        self.prev_hist = hist;
    }
}

/// A shard thread's plane: its core, plus the sampler on shard 0.
struct ShardPlane {
    kv: Core,
    sampler: Option<Sampler>,
}

impl Plane for ShardPlane {
    type In = ShardIn;

    fn apply(&mut self, batch: &mut Vec<ShardIn>, now: u64, out: &mut Vec<KvOut>) -> bool {
        let mut kv = self.kv.lock();
        for input in batch.drain(..) {
            match input {
                ShardIn::Frame(from, msg) => kv.on_message(from, msg, now, out),
                ShardIn::View(cfg) => kv.on_view(cfg, now, out),
                ShardIn::NoteInterval(p50, p99) => kv.note_interval(p50, p99),
                ShardIn::Stop => return false,
            }
        }
        true
    }

    fn timers(&mut self, at: Instant, now: u64, out: &mut Vec<KvOut>) -> Instant {
        self.kv.lock().on_tick(now, out);
        let mut next = at + HOST_TICK;
        if let Some(s) = &mut self.sampler {
            if at >= s.next {
                s.sample(now);
                s.next += s.every;
            }
            next = next.min(s.next);
        }
        next
    }

    fn done(&mut self, _req: u64, _outcome: KvOutcome) {
        // Shards submit no ops of their own: client verdicts leave as
        // `CResp` frames.
    }
}

/// A real process running membership + the KV data plane.
pub struct KvRuntime {
    addr: Endpoint,
    /// The transport; taken only when the runtime stops.
    rt: Option<Runtime>,
    cores: Vec<Core>,
    inboxes: Vec<Sender<ShardIn>>,
    threads: Vec<JoinHandle<()>>,
    view_count: Arc<AtomicU64>,
    sampled: Arc<Mutex<Sampled>>,
    introspect_addr: Option<std::net::SocketAddr>,
}

impl KvRuntime {
    /// Starts a seed process with the data plane attached.
    /// `repair_interval_ms` sets the anti-entropy cadence (0 disables).
    pub fn start_seed(
        listen: Endpoint,
        settings: Settings,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        Self::start(listen, None, settings, route, op_timeout_ms, repair_interval_ms)
    }

    /// Starts a joining process with the data plane attached.
    pub fn start_joiner(
        listen: Endpoint,
        seeds: Vec<Endpoint>,
        settings: Settings,
        metadata: rapid_core::Metadata,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        Self::start(
            listen,
            Some((seeds, metadata)),
            settings,
            route,
            op_timeout_ms,
            repair_interval_ms,
        )
    }

    /// A shard with no partitions could never serve an op, so more
    /// shards than partitions is a configuration error, caught before
    /// any socket is bound.
    fn check_shards(kv_shards: usize, route: PlacementConfig) -> std::io::Result<usize> {
        let shards = kv_shards.max(1);
        if shards > route.partitions as usize {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "kv_shards = {shards} exceeds the {} KV partitions; every shard must \
                     own at least one partition (lower kv_shards or raise partitions)",
                    route.partitions
                ),
            ));
        }
        Ok(shards)
    }

    fn start(
        listen: Endpoint,
        join: Option<(Vec<Endpoint>, rapid_core::Metadata)>,
        settings: Settings,
        route: PlacementConfig,
        op_timeout_ms: u64,
        repair_interval_ms: u64,
    ) -> std::io::Result<KvRuntime> {
        let shards = Self::check_shards(settings.kv_shards, route)?;
        let (inboxes, rxs): (Vec<_>, Vec<_>) =
            (0..shards).map(|_| bounded::<ShardIn>(INBOX_DEPTH)).unzip();
        let view_count = Arc::new(AtomicU64::new(0));
        // The sink runs on the transport's threads, and a peer's reader
        // also carries its membership frames, so a data frame for a full
        // shard inbox is dropped rather than waited for: the wire is
        // lossy anyway, and client retries and repair cover the loss.
        // Views are rare and must stay ordered, so the driver waits for
        // room to deliver them.
        let sink = {
            let inboxes = inboxes.clone();
            let view_count = Arc::clone(&view_count);
            let partitions = route.partitions;
            move |ev: AppEvent| {
                let config = match ev {
                    AppEvent::App(from, bytes) => {
                        // Corrupt peer payloads are dropped, like the
                        // transport does.
                        if let Ok(msg) = kv::decode(&bytes) {
                            for (idx, part) in kv::shard_route(msg, partitions, shards) {
                                let _ = inboxes[idx].try_send(ShardIn::Frame(from, part));
                            }
                        }
                        return;
                    }
                    AppEvent::View(vc) => {
                        view_count.fetch_add(1, Ordering::Relaxed);
                        vc.configuration
                    }
                    AppEvent::Joined(config) => config,
                    AppEvent::Kicked => return,
                };
                for tx in &inboxes {
                    let _ = tx.send(ShardIn::View(Arc::clone(&config)));
                }
            }
        };
        let joiner = join.is_some();
        let mut rt = match join {
            None => Runtime::start_seed(listen, settings.clone(), sink)?,
            Some((seeds, metadata)) => {
                Runtime::start_joiner(listen, seeds, settings.clone(), metadata, sink)?
            }
        };
        let cores: Vec<Core> = (0..shards)
            .map(|i| {
                let mut kv = KvNode::new(rt.member().clone(), route, op_timeout_ms, None)
                    .with_shard(i, shards)
                    .with_repair_interval(repair_interval_ms)
                    .with_batching(settings.batch_wire)
                    .with_obs(settings.obs_ring)
                    // Split the admission budget so the process-level
                    // bound stays put (exact at W = 1).
                    .with_admission(settings.kv_inbox.div_ceil(shards), settings.kv_shed_p99_ms);
                if joiner {
                    kv = kv.expect_initial_handoffs();
                }
                Arc::new(Mutex::new(kv))
            })
            .collect();
        let sampling = settings.obs_sample_ms > 0;
        let sampled = Arc::new(Mutex::new(Sampled {
            timeline: Timeline::new(if sampling { DEFAULT_TIMELINE_CAP } else { 0 }),
            series: vec![VecDeque::new(); shards],
        }));
        // Opt-in live introspection: with `RAPID_INTROSPECT=1` the
        // transport serves a one-line JSON status on a loopback side
        // listener, and the KV layer appends its data-plane counters,
        // op-latency quantiles, and per-shard depth/ops to that line.
        let introspect_addr = if std::env::var("RAPID_INTROSPECT").as_deref() == Ok("1") {
            let probe = cores.clone();
            rt.serve_introspection(move |line| {
                let t = totals(&probe);
                let (p50, p99) = (t.op_hist.quantile_ppm(500_000), t.op_hist.quantile_ppm(990_000));
                let join = |f: fn(&(u64, u64)) -> u64| {
                    t.per_shard.iter().map(|p| f(p).to_string()).collect::<Vec<_>>().join(",")
                };
                let depth: u64 = t.per_shard.iter().map(|p| p.0).sum();
                let s = t.stats;
                line.push_str(&format!(
                    ",\"puts_acked\":{},\"gets_ok\":{},\"bytes_moved\":{},\"repair_bytes\":{},\"op_p50_ms\":{p50},\"op_p99_ms\":{p99},\"inbox_depth\":{depth},\"shed_ops\":{},\"client_conns\":{},\"shards\":{},\"shard_depth\":[{}],\"shard_ops\":[{}]",
                    s.puts_acked, s.gets_ok, s.bytes_moved, s.repair_bytes, s.ops_shed,
                    t.client_conns, t.per_shard.len(), join(|p| p.0), join(|p| p.1),
                ));
            })
            .ok()
        } else {
            None
        };
        let start = Instant::now();
        let threads = cores
            .iter()
            .zip(rxs)
            .enumerate()
            .map(|(i, (core, rx))| {
                let every = Duration::from_millis(settings.obs_sample_ms);
                let sampler = (i == 0 && sampling).then(|| Sampler {
                    cores: cores.clone(),
                    inboxes: inboxes.clone(),
                    view_count: Arc::clone(&view_count),
                    sampled: Arc::clone(&sampled),
                    every,
                    next: Instant::now() + every,
                    cursor: TimelinePoint::default(),
                    prev_hist: LatencyHist::new(),
                    shard_ops: vec![0; shards],
                });
                let plane = ShardPlane {
                    kv: Arc::clone(core),
                    sampler,
                };
                let sender = rt.app_sender();
                std::thread::spawn(move || host_loop(plane, rx, sender, start))
            })
            .collect();
        Ok(KvRuntime {
            addr: *rt.addr(),
            rt: Some(rt),
            cores,
            inboxes,
            threads,
            view_count,
            sampled,
            introspect_addr,
        })
    }

    fn rt(&self) -> &Runtime {
        self.rt.as_ref().expect("the transport lives as long as the runtime")
    }

    /// The node's listen address.
    pub fn addr(&self) -> Endpoint {
        self.addr
    }

    /// Lifecycle status.
    pub fn status(&self) -> NodeStatus {
        self.rt().status()
    }

    /// Current view size.
    pub fn view_len(&self) -> usize {
        self.rt().view().len()
    }

    /// View changes observed so far.
    pub fn view_count(&self) -> u64 {
        self.view_count.load(Ordering::Relaxed)
    }

    /// Data-plane counters, merged across shards.
    pub fn stats(&self) -> KvStats {
        totals(&self.cores).stats
    }

    /// Admission-inbox depth: remote client ops pending on this
    /// coordinator, summed across shards.
    pub fn inbox_depth(&self) -> usize {
        self.cores.iter().map(|c| c.lock().inbox_depth()).sum()
    }

    /// Subscribed-client count.
    pub fn client_conns(&self) -> usize {
        totals(&self.cores).client_conns
    }

    /// Per-peer-quota drop count from the transport.
    pub fn quota_dropped(&self) -> u64 {
        self.rt().quota_dropped()
    }

    /// Successful-op latency histogram (wall-clock ms), merged across
    /// shards.
    pub fn op_hist(&self) -> LatencyHist {
        totals(&self.cores).op_hist
    }

    /// `(partition, digest, settled)` for every partition this process
    /// replicates, sorted by partition — the scenario driver's
    /// `kv_converged` sweep compares these across processes.
    pub fn digest_snapshot(&self) -> Vec<(u32, PartitionDigest, bool)> {
        let mut digests: Vec<_> = self
            .cores
            .iter()
            .flat_map(|c| c.lock().digest_snapshot())
            .collect();
        digests.sort_unstable_by_key(|&(p, _, _)| p);
        digests
    }

    /// The sampled metrics timeline: one interval-delta point per
    /// elapsed `obs_sample_ms` on the wall clock, oldest first. Empty
    /// when sampling is disabled (`obs_sample_ms == 0`).
    pub fn timeline(&self) -> Vec<TimelinePoint> {
        self.sampled.lock().timeline.iter_in_order().copied().collect()
    }

    /// Timeline sweeps lost to the bounded ring wrapping.
    pub fn timeline_dropped(&self) -> u64 {
        self.sampled.lock().timeline.dropped()
    }

    /// Number of data-plane shard threads.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Per-shard admission-inbox depths, one entry per shard.
    pub fn shard_depths(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.lock().inbox_depth() as u64).collect()
    }

    /// Per-shard sampled series: one `(t_ms, depth, ops)` point per
    /// elapsed `obs_sample_ms`, oldest first, one series per shard. Rides
    /// the same cadence as [`Self::timeline`] but is never part of any
    /// report schema.
    pub fn shard_timeline(&self) -> Vec<Vec<ShardPoint>> {
        let sampled = self.sampled.lock();
        sampled.series.iter().map(|s| s.iter().copied().collect()).collect()
    }

    /// The loopback introspection listener's address, when enabled via
    /// `RAPID_INTROSPECT=1` at startup.
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect_addr
    }

    /// Stops and joins the shard threads, handing back the transport.
    fn stop_shards(&mut self) -> Option<Runtime> {
        for tx in &self.inboxes {
            let _ = tx.send(ShardIn::Stop);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.rt.take()
    }

    /// Announces a voluntary departure and stops the process.
    pub fn leave(mut self) {
        if let Some(rt) = self.stop_shards() {
            rt.leave();
        }
    }

    /// Hard-stops the process (a crash, as far as the cluster knows).
    pub fn shutdown_now(self) {
        drop(self);
    }
}

impl Drop for KvRuntime {
    fn drop(&mut self) {
        if let Some(rt) = self.stop_shards() {
            rt.shutdown_now();
        }
    }
}

// ---------------------------------------------------------------------------
// The smart client
// ---------------------------------------------------------------------------

/// A client operation submitted to the client thread.
struct RealOp {
    key: String,
    /// `Some` for puts.
    val: Option<String>,
    reply: Sender<KvOutcome>,
}

/// Input to the client thread.
enum ClientIn {
    Frame(Endpoint, KvMsg),
    Op(RealOp),
    Stop,
}

/// The client thread's plane: the client core plus the reply channel of
/// every op it has in flight.
struct ClientPlane {
    client: Arc<Mutex<KvClient>>,
    replies: DetHashMap<u64, Sender<KvOutcome>>,
    burst: Vec<RealOp>,
}

impl Plane for ClientPlane {
    type In = ClientIn;

    fn apply(&mut self, batch: &mut Vec<ClientIn>, now: u64, out: &mut Vec<KvOut>) -> bool {
        let mut client = self.client.lock();
        for input in batch.drain(..) {
            match input {
                ClientIn::Frame(from, msg) => client.on_message(from, msg, now, out),
                ClientIn::Op(op) => self.burst.push(op),
                ClientIn::Stop => return false,
            }
        }
        if !self.burst.is_empty() {
            // One pipelined burst: ops sharing a leader share a frame.
            let ops: Vec<ClientOp<'_>> = self
                .burst
                .iter()
                .map(|op| match &op.val {
                    Some(val) => ClientOp::Put { key: &op.key, val },
                    None => ClientOp::Get { key: &op.key },
                })
                .collect();
            let reqs = client.submit_ops(&ops, now, out);
            for (req, op) in reqs.into_iter().zip(self.burst.drain(..)) {
                self.replies.insert(req, op.reply);
            }
        }
        true
    }

    fn timers(&mut self, at: Instant, now: u64, out: &mut Vec<KvOut>) -> Instant {
        self.client.lock().on_tick(now, out);
        at + HOST_TICK
    }

    fn done(&mut self, req: u64, outcome: KvOutcome) {
        if let Some(reply) = self.replies.remove(&req) {
            let _ = reply.try_send(outcome);
        }
    }
}

/// A smart client hosted on the real transport: a [`KvClient`] driven by
/// the host loop on one thread, fed by an [`AppPeer`]'s reader threads.
/// The `AppPeer` keeps one pooled TCP stream per destination, so
/// steady-state traffic holds exactly one connection per partition
/// leader — the per-leader connection pooling the client plane promises.
/// The client never joins the membership; it learns views purely from
/// `Sub`/`View` push frames.
pub struct KvClientRuntime {
    addr: Endpoint,
    /// The transport; taken only when the client stops.
    peer: Option<AppPeer>,
    inbox: Sender<ClientIn>,
    client: Arc<Mutex<KvClient>>,
    thread: Option<JoinHandle<()>>,
}

impl KvClientRuntime {
    /// Starts a client subscribing through `seeds` (cluster listen
    /// addresses), with placement spec `route` (must match the
    /// cluster's), an in-flight window, and a per-op deadline.
    pub fn start(
        seeds: Vec<Endpoint>,
        route: PlacementConfig,
        window: usize,
        op_timeout_ms: u64,
    ) -> std::io::Result<KvClientRuntime> {
        let (inbox, rx) = bounded::<ClientIn>(INBOX_DEPTH);
        let frames = inbox.clone();
        let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0), move |from, bytes| {
            if let Ok(msg) = kv::decode(&bytes) {
                // Dropped when full, like a shard's frames: a lost
                // verdict fails its op at the op's deadline, as any loss
                // on the wire does.
                let _ = frames.try_send(ClientIn::Frame(from, msg));
            }
        })?;
        let addr = *peer.addr();
        let client = Arc::new(Mutex::new(KvClient::new(
            addr,
            route,
            seeds,
            window,
            op_timeout_ms,
        )));
        let plane = ClientPlane {
            client: Arc::clone(&client),
            replies: DetHashMap::default(),
            burst: Vec::new(),
        };
        let sender = peer.app_sender();
        let thread = std::thread::spawn(move || host_loop(plane, rx, sender, Instant::now()));
        Ok(KvClientRuntime {
            addr,
            peer: Some(peer),
            inbox,
            client,
            thread: Some(thread),
        })
    }

    /// The client's listen address (what nodes see as the subscriber).
    pub fn addr(&self) -> Endpoint {
        self.addr
    }

    /// Client-observed counters.
    pub fn stats(&self) -> ClientStats {
        *self.client.lock().stats()
    }

    /// Client-observed op-latency histogram (ms).
    pub fn op_hist(&self) -> LatencyHist {
        self.client.lock().op_hist().clone()
    }

    /// The adopted view's sequence, once the first push landed.
    pub fn view_seq(&self) -> Option<u64> {
        self.client.lock().view_seq()
    }

    fn submit(&self, key: &str, val: Option<&str>) -> Receiver<KvOutcome> {
        let (reply, rx) = bounded(1);
        let _ = self.inbox.try_send(ClientIn::Op(RealOp {
            key: key.to_string(),
            val: val.map(str::to_string),
            reply,
        }));
        rx
    }

    /// Begins a write through the smart client; the outcome arrives on
    /// the returned channel (dropped channel = op abandoned).
    pub fn begin_put(&self, key: &str, val: &str) -> Receiver<KvOutcome> {
        self.submit(key, Some(val))
    }

    /// Begins a read through the smart client.
    pub fn begin_get(&self, key: &str) -> Receiver<KvOutcome> {
        self.submit(key, None)
    }

    /// Stops the client thread and the peer's sockets.
    pub fn shutdown_now(self) {
        drop(self);
    }
}

impl Drop for KvClientRuntime {
    fn drop(&mut self) {
        let _ = self.inbox.send(ClientIn::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(peer) = self.peer.take() {
            peer.shutdown_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{partition_of, shard_of, Placement};

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

    fn spec() -> PlacementConfig {
        PlacementConfig {
            partitions: 8,
            replication: 2,
        }
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

    /// A smart client subscribed through `seeds`, holding a view.
    fn client_via(seeds: Vec<Endpoint>) -> KvClientRuntime {
        let client = KvClientRuntime::start(seeds, spec(), 64, 5_000).unwrap();
        assert!(
            wait_for(|| client.view_seq().is_some(), Duration::from_secs(10)),
            "client must adopt a pushed view"
        );
        client
    }

    /// A bare test endpoint that sends ops as raw `CPut`/`CGet` frames to
    /// a chosen process, which then coordinates them: a key led by
    /// another node is forwarded to its leader and the leader's ack
    /// routed back to the issuing shard (`req % W`), the path a smart
    /// client's attempt 0 skips.
    struct Injector {
        peer: AppPeer,
        verdicts: Receiver<(u64, KvOutcome)>,
        next_req: std::cell::Cell<u64>,
    }

    impl Injector {
        fn start() -> Injector {
            fn collect(msg: KvMsg, tx: &Sender<(u64, KvOutcome)>) {
                match msg {
                    KvMsg::Batch(msgs) => msgs.into_iter().for_each(|m| collect(m, tx)),
                    KvMsg::CResp {
                        req,
                        code,
                        val,
                        version,
                    } => match KvOutcome::from_cresp(code, val, version) {
                        Ok(outcome) => {
                            let _ = tx.send((req, outcome));
                        }
                        Err(e) => panic!("no op is shed here: {e}"),
                    },
                    _ => {}
                }
            }
            let (tx, verdicts) = bounded(1024);
            let peer = AppPeer::start(Endpoint::new("127.0.0.1", 0), move |_, bytes| {
                if let Ok(msg) = kv::decode(&bytes) {
                    collect(msg, &tx);
                }
            })
            .unwrap();
            Injector {
                peer,
                verdicts,
                next_req: std::cell::Cell::new(0),
            }
        }

        /// Submits `op` to `via` and waits up to 5 s for its verdict.
        fn call(&self, via: Endpoint, op: ClientOp<'_>) -> Option<KvOutcome> {
            let req = self.next_req.get() + 1;
            self.next_req.set(req);
            let msg = match op {
                ClientOp::Put { key, val } => KvMsg::CPut {
                    req,
                    key: key.into(),
                    val: val.into(),
                },
                ClientOp::Get { key } => KvMsg::CGet {
                    req,
                    key: key.into(),
                    floor: 0,
                },
            };
            let mut buf = Vec::new();
            kv::encode(&msg, &mut buf);
            self.peer.send_app(via, buf);
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.verdicts.recv_timeout(left) {
                    Ok((r, outcome)) if r == req => return Some(outcome),
                    Ok(_) => {} // A late verdict for an earlier op.
                    Err(_) => return None,
                }
            }
        }

        fn put(&self, via: Endpoint, key: &str, val: &str) -> Option<KvOutcome> {
            self.call(via, ClientOp::Put { key, val })
        }

        fn get(&self, via: Endpoint, key: &str) -> Option<KvOutcome> {
            self.call(via, ClientOp::Get { key })
        }
    }

    /// The endpoint of the node leading `key`'s partition in `rt`'s view,
    /// and the shard (of `shards`) that owns the partition.
    fn leader_and_shard(rt: &KvRuntime, key: &str, shards: usize) -> (Endpoint, usize) {
        let config = rt.rt().view();
        let partition = partition_of(key, spec().partitions);
        let leader = Placement::compute(&config, &spec()).leader(partition) as usize;
        (config.member_at(leader).addr, shard_of(partition, shards))
    }

    #[test]
    fn real_timeline_samples_ops_and_introspection_reports_them() {
        // The env gate is read once at startup; set it before the
        // runtime exists. Harmless to the other test in this module
        // (it would merely also serve a status socket).
        std::env::set_var("RAPID_INTROSPECT", "1");
        let settings = Settings {
            obs_sample_ms: 100,
            ..fast_settings()
        };
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings,
            spec(),
            2_000,
            500,
        )
        .unwrap();
        std::env::remove_var("RAPID_INTROSPECT");
        assert!(wait_for(
            || seed.status() == NodeStatus::Active,
            Duration::from_secs(10)
        ));
        let client = client_via(vec![seed.addr()]);
        for i in 0..8 {
            let rx = client.begin_put(&format!("tk{i}"), "tv");
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(KvOutcome::Acked { .. })
            ));
        }
        // Wall-clock sweeps land on the 100 ms cadence; the delta sums
        // must recover the cumulative op count.
        assert!(
            wait_for(
                || seed.timeline().iter().map(|p| p.ops).sum::<u64>() >= 8,
                Duration::from_secs(10)
            ),
            "timeline deltas must sum to the acked ops: {:?}",
            seed.timeline()
        );
        assert_eq!(seed.timeline_dropped(), 0);
        let probe = seed.introspect_addr().expect("introspection enabled by env");
        let mut conn = std::net::TcpStream::connect(probe).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut body = String::new();
        use std::io::Read as _;
        conn.read_to_string(&mut body).unwrap();
        assert!(body.contains("\"status\":\"Active\""), "{body:?}");
        assert!(body.contains("\"puts_acked\":8"), "{body:?}");
        assert!(body.contains("\"op_p99_ms\":"), "{body:?}");
        // Client-plane overload observability rides the same line.
        assert!(body.contains("\"inbox_depth\":"), "{body:?}");
        assert!(body.contains("\"shed_ops\":0"), "{body:?}");
        assert!(body.contains("\"client_conns\":"), "{body:?}");
        assert!(body.contains("\"quota_dropped\":0"), "{body:?}");
        client.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn real_smart_client_subscribes_routes_and_completes_ops() {
        let settings = fast_settings();
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let joiner = KvRuntime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        assert!(
            wait_for(
                || seed.view_len() == 2 && joiner.view_len() == 2,
                Duration::from_secs(30)
            ),
            "2-node cluster must form"
        );
        let client = client_via(vec![seed_addr]);
        for i in 0..10 {
            let rx = client.begin_put(&format!("sk{i}"), &format!("sv{i}"));
            assert!(
                matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(KvOutcome::Acked { .. })),
                "client put {i} must ack"
            );
        }
        for i in 0..10 {
            let rx = client.begin_get(&format!("sk{i}"));
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(KvOutcome::Found { val, .. }) => assert_eq!(val, format!("sv{i}")),
                other => panic!("client get {i}: {other:?}"),
            }
        }
        let cs = client.stats();
        assert_eq!(cs.acked, 10, "{cs:?}");
        assert_eq!(cs.found, 10, "{cs:?}");
        assert_eq!(cs.shed, 0, "{cs:?}");
        assert!(cs.views_adopted >= 1);
        let (p50, p99, _) = client.op_hist().percentiles();
        assert!(p50 <= p99, "client-observed quantiles sane");
        // The subscription is visible server-side.
        assert!(
            wait_for(|| seed.client_conns() >= 1, Duration::from_secs(5)),
            "seed must count the subscribed client"
        );
        client.shutdown_now();
        joiner.shutdown_now();
        seed.shutdown_now();
    }

    #[test]
    fn real_kv_cluster_serves_and_survives_a_crash() {
        let settings = fast_settings();
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let mut joiners = Vec::new();
        for i in 0..3 {
            joiners.push(
                KvRuntime::start_joiner(
                    Endpoint::new("127.0.0.1", 0),
                    vec![seed_addr],
                    settings.clone(),
                    rapid_core::Metadata::with_entry("proc", format!("{i}")),
                    spec(),
                    2_000,
                    500,
                )
                .unwrap(),
            );
        }
        assert!(
            wait_for(
                || seed.view_len() == 4 && joiners.iter().all(|j| j.view_len() == 4),
                Duration::from_secs(30)
            ),
            "4-node KV cluster must form, seed sees {}",
            seed.view_len()
        );

        // Write through different coordinators, each time a key some
        // other node leads, so every put is forwarded; read through
        // another coordinator.
        let inject = Injector::start();
        let mut acked = Vec::new();
        let mut candidates = (0..).map(|n| format!("rk{n}"));
        for i in 0..12 {
            let via = if i % 2 == 0 { seed_addr } else { joiners[i % 3].addr() };
            let key = candidates
                .by_ref()
                .find(|k| leader_and_shard(&seed, k, 1).0 != via)
                .unwrap();
            match inject.put(via, &key, &format!("rv{i}")) {
                Some(KvOutcome::Acked { version }) => acked.push((key, version)),
                other => panic!("put {i} ({key}) failed: {other:?}"),
            }
        }

        // Crash one joiner; the survivors rebalance and keep serving.
        let victim = joiners.pop().unwrap();
        victim.shutdown_now();
        assert!(
            wait_for(
                || seed.view_len() == 3 && joiners.iter().all(|j| j.view_len() == 3),
                Duration::from_secs(60)
            ),
            "crashed node must be removed everywhere"
        );
        // Give handoffs a moment, then verify every acked write.
        std::thread::sleep(Duration::from_millis(500));
        for (key, version) in &acked {
            let got = (|| {
                for _ in 0..40 {
                    match inject.get(joiners[0].addr(), key) {
                        Some(KvOutcome::Found { val, version: v }) => return Some((val, v)),
                        _ => std::thread::sleep(Duration::from_millis(250)),
                    }
                }
                None
            })();
            match got {
                Some((val, v)) => {
                    assert!(val.starts_with("rv"), "garbage value for {key}");
                    assert!(v >= *version, "version went backwards for {key}");
                }
                None => {
                    eprintln!("seed stats: {:?}", seed.stats());
                    for (i, j) in joiners.iter().enumerate() {
                        eprintln!("joiner{i} stats: {:?}", j.stats());
                    }
                    panic!("acked key {key} lost after crash");
                }
            }
        }
        let stats = seed.stats();
        assert!(stats.rebalances >= 1, "seed must have rebalanced: {stats:?}");
        inject.peer.shutdown_now();
        for j in joiners {
            j.shutdown_now();
        }
        seed.shutdown_now();
    }

    #[test]
    fn start_seed_rejects_more_shards_than_partitions() {
        let settings = Settings {
            kv_shards: 9,
            ..fast_settings()
        };
        let err =
            match KvRuntime::start_seed(Endpoint::new("127.0.0.1", 0), settings, spec(), 2_000, 0)
            {
                Err(e) => e,
                Ok(_) => panic!("9 shards cannot cover 8 partitions"),
            };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("kv_shards"), "{err}");
    }

    #[test]
    fn real_sharded_runtime_serves_ops_and_publishes_per_shard_series() {
        let settings = Settings {
            kv_shards: 2,
            obs_sample_ms: 100,
            ..fast_settings()
        };
        let seed = KvRuntime::start_seed(
            Endpoint::new("127.0.0.1", 0),
            settings.clone(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        let seed_addr = seed.addr();
        let joiner = KvRuntime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![seed_addr],
            settings,
            rapid_core::Metadata::new(),
            spec(),
            2_000,
            500,
        )
        .unwrap();
        assert_eq!(seed.shards(), 2);
        assert!(
            wait_for(
                || seed.view_len() == 2 && joiner.view_len() == 2,
                Duration::from_secs(30)
            ),
            "2-node sharded cluster must form"
        );
        // Every op goes through the process that does not lead its key,
        // eight keys per owning shard: both shards forward to the other
        // process and each ack must find its way back to the issuing
        // shard. Which process coordinates which shard's keys depends on
        // this run's node ids.
        let inject = Injector::start();
        let mut per_shard = [0; 2];
        let mut keys = Vec::new();
        for n in 0.. {
            if keys.len() == 16 {
                break;
            }
            let key = format!("shk{n}");
            let (leader, shard) = leader_and_shard(&seed, &key, 2);
            if per_shard[shard] < 8 {
                per_shard[shard] += 1;
                let via = if leader == seed_addr { joiner.addr() } else { seed_addr };
                keys.push((key, via));
            }
        }
        for (i, (key, via)) in keys.iter().enumerate() {
            assert!(
                matches!(
                    inject.put(*via, key, &format!("shv{i}")),
                    Some(KvOutcome::Acked { .. })
                ),
                "sharded put {i} ({key}) must ack"
            );
        }
        for (i, (key, via)) in keys.iter().enumerate() {
            match inject.get(*via, key) {
                Some(KvOutcome::Found { val, .. }) => assert_eq!(val, format!("shv{i}")),
                other => panic!("sharded get {i} ({key}) failed: {other:?}"),
            }
        }
        // Merged stats must cover every acked op across both processes.
        assert!(
            wait_for(
                || seed.stats().puts_acked + joiner.stats().puts_acked >= 16,
                Duration::from_secs(5)
            ),
            "merged per-shard stats must cover all acked puts"
        );
        assert_eq!(seed.shard_depths().len(), 2);
        assert!(
            wait_for(
                || {
                    seed.shard_timeline()
                        .iter()
                        .flatten()
                        .map(|p| p.ops)
                        .sum::<u64>()
                        >= 1
                },
                Duration::from_secs(10)
            ),
            "per-shard series must record completed ops"
        );
        // The merged digest snapshot lists each partition exactly once.
        assert!(
            wait_for(
                || {
                    let d = seed.digest_snapshot();
                    let mut parts: Vec<u32> = d.iter().map(|&(p, _, _)| p).collect();
                    parts.dedup();
                    !d.is_empty() && parts.len() == d.len()
                },
                Duration::from_secs(10)
            ),
            "sharded digest snapshot must merge without duplicates"
        );
        inject.peer.shutdown_now();
        joiner.shutdown_now();
        seed.shutdown_now();
    }
}
