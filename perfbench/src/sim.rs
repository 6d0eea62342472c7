//! The simulator workloads: `rapid-sim`'s engine hosting `rapid-core`
//! nodes, untraced through `RapidClusterBuilder`, traced through a
//! wrapping actor that times every call into the node and the wire-size
//! accounting.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rapid_core::config::Configuration;
use rapid_core::id::NodeId;
use rapid_core::node::{Node, NodeStatus};
use rapid_core::ring::TopologyCache;
use rapid_core::settings::Settings;
use rapid_core::wire::Message;
use rapid_sim::cluster::sim_member;
use rapid_sim::{Actor, Fault, Outbox, RapidActor, RapidClusterBuilder, Simulation};

use crate::loadgen::Rng;
use crate::report::{Metrics, Outcome};
use crate::{procfs, stats};

/// Bootstrap size: the paper's headline scale (Fig. 5).
const BOOT_N: usize = 8192;
/// Engine threads for the untraced bootstrap (the sharded engine).
const BOOT_THREADS: usize = 2;
/// Joiners start this long after the seed (the paper's 10 s).
const JOIN_DELAY_MS: u64 = 10_000;
/// Give-up horizon for bootstrap convergence (virtual).
const BOOT_LIMIT_MS: u64 = 600_000;

/// Static cluster size of the crash workload. Half the bootstrap scale so
/// a run holds several crash-and-cut iterations to take the median of.
const CRASH_N: usize = 2048;
/// Concurrent crashes: 1 % of the cluster, at one instant (Fig. 8).
const CRASH_VICTIMS: usize = 20;
/// The no-fault window before the crash (virtual).
const STEADY_MS: u64 = 20_000;
/// Give-up horizon for the cut, after the crash (virtual).
const CUT_LIMIT_MS: u64 = 120_000;

/// At least this many scripted runs per benchmark run, however short
/// `--seconds` is, so medians have something to choose from.
const MIN_ITERS: usize = 3;

/// Seed of iteration `i` of a run seeded `seed`: iterations differ, runs
/// with the same seed repeat.
fn iter_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

// ---------------------------------------------------------------------------
// Tracing actor
// ---------------------------------------------------------------------------

/// Where a call into the node is attributed.
#[derive(Clone, Copy)]
enum Layer {
    Join = 0,
    Fd,
    Tick,
    Alerts,
    Consensus,
    Sync,
}
const LAYERS: usize = 6;

/// The protocol layer a message is handled by. A batch counts as its
/// first message's layer.
fn layer_of(msg: &Message) -> Layer {
    match msg {
        Message::PreJoinReq { .. }
        | Message::PreJoinResp { .. }
        | Message::JoinReq { .. }
        | Message::JoinResp { .. } => Layer::Join,
        Message::Probe { .. } | Message::ProbeAck { .. } => Layer::Fd,
        Message::AlertBatch { .. } | Message::Gossip { .. } | Message::Leave { .. } => {
            Layer::Alerts
        }
        Message::Vote { .. }
        | Message::NeedProposal { .. }
        | Message::ProposalBody { .. }
        | Message::Phase1a { .. }
        | Message::Phase1b { .. }
        | Message::Phase2a { .. }
        | Message::Phase2b { .. }
        | Message::Decision { .. } => Layer::Consensus,
        Message::ConfigPull { .. } | Message::ConfigPush { .. } => Layer::Sync,
        Message::Batch { msgs } => msgs.first().map_or(Layer::Sync, layer_of),
    }
}

/// Calls and busy nanoseconds at one layer boundary.
#[derive(Clone, Copy, Default)]
struct Span {
    calls: u64,
    ns: u64,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// `Actor::msg_size` has no receiver, so its span lives in globals. The
/// counts publish no other data.
static SIZE_CALLS: AtomicU64 = AtomicU64::new(0);
static SIZE_NS: AtomicU64 = AtomicU64::new(0);

/// A `RapidActor` whose calls are timed per layer; spans stay in memory
/// until the run ends.
pub struct Traced {
    inner: RapidActor,
    spans: [Span; LAYERS],
}

impl Actor for Traced {
    type Msg = Message;

    fn on_tick(&mut self, now: u64, out: &mut Outbox<Message>) {
        let t = Instant::now();
        self.inner.on_tick(now, out);
        self.spans[Layer::Tick as usize].add(t);
    }

    fn on_message(
        &mut self,
        from: rapid_core::id::Endpoint,
        msg: Message,
        now: u64,
        out: &mut Outbox<Message>,
    ) {
        let layer = layer_of(&msg);
        let t = Instant::now();
        self.inner.on_message(from, msg, now, out);
        self.spans[layer as usize].add(t);
    }

    fn msg_size(msg: &Message) -> usize {
        let t = Instant::now();
        let size = RapidActor::msg_size(msg);
        SIZE_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        SIZE_CALLS.fetch_add(1, Ordering::Relaxed);
        size
    }

    fn same_size(a: &Message, b: &Message) -> bool {
        RapidActor::same_size(a, b)
    }

    fn sample(&self) -> Option<f64> {
        self.inner.sample()
    }
}

/// Read access to the hosted `RapidActor`, traced or not.
trait Hosted: Actor<Msg = Message> + Send {
    fn rapid(&self) -> &RapidActor;
}

impl Hosted for RapidActor {
    fn rapid(&self) -> &RapidActor {
        self
    }
}

impl Hosted for Traced {
    fn rapid(&self) -> &RapidActor {
        &self.inner
    }
}

fn node<A: Hosted>(sim: &Simulation<A>, i: usize) -> &Node {
    sim.actor(i)
        .rapid()
        .as_node()
        .expect("decentralized cluster")
}

/// The traced twin of `RapidClusterBuilder::build_bootstrap` /
/// `build_static`: the same nodes, seeds and start times, each wrapped
/// in [`Traced`]. The traced run checks its event count against the
/// untraced build's, so any drift between the two shows.
fn build_traced(n: usize, settings: &Settings, seed: u64, bootstrap: bool) -> Simulation<Traced> {
    let mut sim = Simulation::new(seed, settings.tick_interval_ms);
    sim.set_threads(settings.threads);
    let cache = TopologyCache::new();
    let wrap = |node| Traced {
        inner: RapidActor::node(node),
        spans: [Span::default(); LAYERS],
    };
    if bootstrap {
        let seed_member = sim_member(0);
        let seed_node = Node::with_parts(
            seed_member.clone(),
            settings.clone(),
            NodeStatus::Active,
            Configuration::bootstrap(vec![seed_member.clone()]),
            None,
            None,
            Some(cache.clone()),
            Some(seed ^ 0xBEEF),
        );
        sim.add_actor(seed_member.addr, wrap(seed_node));
        for i in 1..n {
            let m = sim_member(i);
            let node = Node::with_parts(
                m.clone(),
                settings.clone(),
                NodeStatus::Joining,
                Configuration::bootstrap(Vec::new()),
                Some(vec![seed_member.addr]),
                None,
                Some(cache.clone()),
                Some(seed.wrapping_add(i as u64)),
            );
            sim.add_actor_at(m.addr, wrap(node), JOIN_DELAY_MS);
        }
    } else {
        let members: Vec<_> = (0..n).map(sim_member).collect();
        let cfg = Configuration::bootstrap(members.clone());
        for (i, m) in members.iter().enumerate() {
            let node = Node::with_parts(
                m.clone(),
                settings.clone(),
                NodeStatus::Active,
                Arc::clone(&cfg),
                None,
                None,
                Some(cache.clone()),
                Some(seed.wrapping_add(i as u64)),
            );
            sim.add_actor(m.addr, wrap(node));
        }
    }
    sim
}

/// Whether every live member reports a view of exactly `target`.
fn all_report<A: Hosted>(sim: &Simulation<A>, target: usize) -> bool {
    (0..sim.len())
        .all(|i| sim.net.is_crashed(i) || sim.actor(i).sample().map(|v| v as usize) == Some(target))
}

// ---------------------------------------------------------------------------
// Scripted runs
// ---------------------------------------------------------------------------

/// What one scripted run measured.
struct Script {
    /// Wall seconds of the measured phases.
    wall_s: f64,
    /// Process CPU seconds over the same phases.
    cpu_s: f64,
    /// Per op, wall ms until the simulator had produced it.
    lat_ms: Vec<f64>,
    /// Phase wall seconds, by name.
    phases: Vec<(&'static str, f64)>,
    /// Virtual seconds from the trigger to the last member converging.
    virtual_s: f64,
    /// Views installed during the measured phases, summed over members.
    views: u64,
    events: u64,
    /// A failed output check, if any.
    error: Option<String>,
}

/// Wall time at the end of each virtual second of a stepped run.
struct Steps(Vec<(u64, f64)>);

impl Steps {
    /// Advances one virtual second at a time from now (as
    /// `Simulation::run_until_pred` does) until every live member reports
    /// `target`, or `limit`. Times are wall ms since `t0`.
    fn run<A: Hosted>(
        sim: &mut Simulation<A>,
        target: usize,
        limit: u64,
        t0: Instant,
    ) -> Option<Steps> {
        let mut steps = Vec::new();
        let mut t = sim.now();
        while t < limit {
            t = (t + 1_000).min(limit);
            sim.run_until(t);
            steps.push((t, t0.elapsed().as_secs_f64() * 1e3));
            if all_report(sim, target) {
                return Some(Steps(steps));
            }
        }
        None
    }

    /// Wall ms by which the step holding virtual time `at` had run.
    fn wall_ms(&self, at: u64) -> f64 {
        let i = self.0.partition_point(|s| s.0 < at);
        self.0.get(i).expect("ops happen within the stepped run").1
    }
}

/// Bootstrap to convergence. An op is one joiner's admission, timed from
/// the start of the run to the end of the virtual second it happened in.
fn boot_script<A: Hosted>(sim: &mut Simulation<A>) -> Script {
    let n = sim.len();
    let (cpu0, t0) = (procfs::cpu_s(), Instant::now());
    let steps = Steps::run(sim, n, BOOT_LIMIT_MS, t0);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;
    let mut error = steps
        .is_none()
        .then(|| format!("bootstrap of {n} did not converge"));
    let mut lat_ms = Vec::with_capacity(n);
    let mut last_ms = 0u64;
    let mut views = 0u64;
    for i in 0..n {
        let log = &sim.actor(i).rapid().log;
        views += log.views.len() as u64;
        last_ms = last_ms.max(log.views.last().map_or(0, |v| v.0));
        if i == 0 {
            continue;
        }
        match (log.joined_at, &steps) {
            (Some(t), Some(steps)) => {
                last_ms = last_ms.max(t);
                lat_ms.push(steps.wall_ms(t));
            }
            _ => {
                error.get_or_insert(format!("joiner {i} never joined"));
            }
        }
    }
    let ids: BTreeSet<_> = (0..n).map(|i| node(sim, i).configuration().id()).collect();
    if ids.len() != 1 {
        error.get_or_insert(format!(
            "members end on {} distinct configurations",
            ids.len()
        ));
    }
    Script {
        wall_s,
        cpu_s,
        lat_ms,
        phases: vec![("boot_wall_s", wall_s)],
        virtual_s: last_ms.saturating_sub(JOIN_DELAY_MS) as f64 / 1e3,
        views,
        events: sim.events_processed(),
        error,
    }
}

/// The victims of iteration seed `seed`: distinct, drawn uniformly.
fn victims(seed: u64, n: usize) -> BTreeSet<usize> {
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    let mut v = BTreeSet::new();
    while v.len() < CRASH_VICTIMS {
        v.insert(rng.below(n));
    }
    v
}

/// A no-fault window, then 1 % of the members crash at one instant, run
/// until every survivor reports the smaller view. An op is one
/// survivor's install of that view, timed from the crash to the end of
/// the virtual second it happened in.
fn crash_script<A: Hosted>(sim: &mut Simulation<A>, seed: u64) -> Script {
    let n = sim.len();
    let victims = victims(seed, n);
    for &v in &victims {
        sim.schedule_fault(STEADY_MS, Fault::Crash(v));
    }
    let (cpu0, t0) = (procfs::cpu_s(), Instant::now());
    sim.run_until(STEADY_MS - 1);
    let steady_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let survivors = n - victims.len();
    let steps = Steps::run(sim, survivors, STEADY_MS + CUT_LIMIT_MS, t1);
    let cut_s = t1.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_s() - cpu0;

    let mut error = steps
        .is_none()
        .then(|| format!("{survivors} survivors did not converge"));
    let gone: BTreeSet<NodeId> = victims.iter().map(|&v| sim_member(v).id).collect();
    let mut lat_ms = Vec::with_capacity(survivors);
    let mut ids = BTreeSet::new();
    let mut views = 0u64;
    let mut last_ms = 0;
    for i in (0..n).filter(|i| !victims.contains(i)) {
        let log = &sim.actor(i).rapid().log;
        views += log.views.len() as u64;
        ids.insert(node(sim, i).configuration().id());
        match (log.views.as_slice(), &steps) {
            ([(t, vc)], Some(steps)) if *t >= STEADY_MS => {
                if vc.removed.iter().copied().collect::<BTreeSet<_>>() != gone
                    || !vc.joined.is_empty()
                {
                    error.get_or_insert(format!(
                        "survivor {i}: the view change is not exactly the crashed set"
                    ));
                }
                last_ms = last_ms.max(*t);
                lat_ms.push(steps.wall_ms(*t));
            }
            (views, _) => {
                error.get_or_insert(format!(
                    "survivor {i} installed {} views, not one after the crash",
                    views.len()
                ));
            }
        }
    }
    if ids.len() != 1 {
        error.get_or_insert(format!(
            "survivors end on {} distinct configurations",
            ids.len()
        ));
    }
    Script {
        wall_s: steady_s + cut_s,
        cpu_s,
        lat_ms,
        phases: vec![("steady_wall_s", steady_s), ("cut_wall_s", cut_s)],
        virtual_s: last_ms.saturating_sub(STEADY_MS) as f64 / 1e3,
        views,
        events: sim.events_processed(),
        error,
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Which simulator workload.
#[derive(Clone, Copy)]
pub enum SimWorkload {
    /// Decentralized bootstrap of `BOOT_N`.
    Boot,
    /// Static `CRASH_N`, then a 1 % concurrent crash.
    Crash,
}

impl SimWorkload {
    fn n(self) -> usize {
        match self {
            SimWorkload::Boot => BOOT_N,
            SimWorkload::Crash => CRASH_N,
        }
    }

    fn build(self, threads: usize, seed: u64) -> Simulation<RapidActor> {
        let b = RapidClusterBuilder::new(self.n())
            .settings(Settings {
                threads,
                ..Settings::default()
            })
            .seed(seed);
        match self {
            SimWorkload::Boot => b.build_bootstrap(),
            SimWorkload::Crash => b.build_static(),
        }
    }

    fn script<A: Hosted>(self, sim: &mut Simulation<A>, seed: u64) -> Script {
        match self {
            SimWorkload::Boot => boot_script(sim),
            SimWorkload::Crash => crash_script(sim, seed),
        }
    }

    fn threads(self) -> usize {
        match self {
            SimWorkload::Boot => BOOT_THREADS,
            SimWorkload::Crash => 1,
        }
    }
}

/// The untraced run: scripted iterations (each a fresh cluster on its own
/// seed) until `seconds` of measured wall time and at least `MIN_ITERS`.
/// Rates and costs are medians over the iterations.
pub fn run(w: SimWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    let (mut wall, mut ops) = (0.0, 0usize);
    let mut lat = Vec::new();
    let mut error = None;
    let mut rss_mb = 0.0;
    let mut i = 0;
    while i < MIN_ITERS || wall < seconds {
        let s = iter_seed(seed, i);
        let t = Instant::now();
        let mut sim = w.build(w.threads(), s);
        setups.push(t.elapsed().as_secs_f64());
        let r = w.script(&mut sim, s);
        if i == 0 {
            // Later iterations reuse (and fragment) the first one's heap;
            // the first is the footprint of one cluster.
            rss_mb = procfs::peak_rss_mb();
        }
        drop(sim);
        eprintln!(
            "iteration {i}: seed {s} wall {:.3}s cpu {:.3}s virtual {:.3}s events {} {:?}",
            r.wall_s, r.cpu_s, r.virtual_s, r.events, r.phases
        );
        let n = r.lat_ms.len();
        rates.push(n as f64 / r.wall_s);
        cpus.push(r.cpu_s * 1e6 / n.max(1) as f64);
        wall += r.wall_s;
        ops += n;
        lat.extend(r.lat_ms);
        error = error.or(r.error);
        i += 1;
    }
    let mut m = Metrics::new();
    m.setup(&setups);
    m.put("peak_rss_mb", rss_mb, "MiB", 1);
    // Every iteration produces the same number of ops, so slices of that
    // length are the iterations.
    m.latency(&lat, &[("op_p50_ms", 0.5), ("op_p99_ms", 0.99)], |_| {
        ops / i
    });
    m.put("ops_per_s", stats::median(&rates), "1/s", ops);
    m.put(
        "op_ok_share",
        if error.is_some() { 0.0 } else { 1.0 },
        "share",
        ops,
    );
    m.put("cpu_us_per_op", stats::median(&cpus), "us", ops);
    Outcome {
        error,
        attempted: ops,
        failed: 0,
        metrics: m,
    }
}

/// The traced run: one untraced and one traced iteration on the same seed,
/// both on the sequential engine so span self-times add up to wall time.
pub fn run_traced(w: SimWorkload, seed: u64) -> Outcome {
    let s = iter_seed(seed, 0);
    let mut plain = w.build(1, s);
    let base = w.script(&mut plain, s);
    drop(plain);

    let settings = Settings::default();
    SIZE_CALLS.store(0, Ordering::Relaxed);
    SIZE_NS.store(0, Ordering::Relaxed);
    let mut sim = build_traced(w.n(), &settings, s, matches!(w, SimWorkload::Boot));
    let traced = w.script(&mut sim, s);
    let mut error = base.error.or(traced.error);
    if traced.events != base.events {
        error.get_or_insert(format!(
            "traced run processed {} events, untraced {}",
            traced.events, base.events
        ));
    }

    let mut spans = [Span::default(); LAYERS];
    let (mut msgs, mut bytes) = (0u64, 0u64);
    let mut node_sum = rapid_core::metrics::NodeMetrics::default();
    for i in 0..sim.len() {
        let a = sim.actor(i);
        for (acc, s) in spans.iter_mut().zip(a.spans) {
            acc.calls += s.calls;
            acc.ns += s.ns;
        }
        let t = sim.traffic(i);
        msgs += t.msgs_out;
        bytes += t.bytes_out;
        let nm = node(&sim, i).metrics();
        node_sum.alerts_applied += nm.alerts_applied;
        node_sum.fast_decisions += nm.fast_decisions;
        node_sum.classic_decisions += nm.classic_decisions;
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let size_ns = SIZE_NS.load(Ordering::Relaxed);
    let actor_ns: u64 = spans.iter().map(|s| s.ns).sum();
    let self_ns = (traced.wall_s * 1e9 - (actor_ns + size_ns) as f64).max(0.0);

    let mut m = Metrics::new();
    m.count("engine.events", traced.events);
    m.put("engine.self_ms", self_ns / 1e6, "ms", 1);
    m.put(
        "engine.ns_per_event",
        self_ns / traced.events as f64,
        "ns",
        traced.events as usize,
    );
    m.count("net.msgs", msgs);
    m.put("net.bytes", bytes as f64, "B", 1);
    m.count("wire.size.calls", SIZE_CALLS.load(Ordering::Relaxed));
    m.put("wire.size.ms", ms(size_ns), "ms", 1);
    for (layer, name) in [
        (Layer::Join, "join"),
        (Layer::Fd, "fd"),
        (Layer::Tick, "tick"),
        (Layer::Alerts, "alerts"),
    ] {
        let s = spans[layer as usize];
        m.count(&format!("node.{name}.calls"), s.calls);
        m.put(&format!("node.{name}.ms"), ms(s.ns), "ms", 1);
    }
    m.count("node.alerts_applied", node_sum.alerts_applied);
    m.put(
        "node.consensus.ms",
        ms(spans[Layer::Consensus as usize].ns),
        "ms",
        1,
    );
    m.put("node.sync.ms", ms(spans[Layer::Sync as usize].ns), "ms", 1);
    m.count("node.fast_decisions", node_sum.fast_decisions);
    m.count("node.classic_decisions", node_sum.classic_decisions);
    m.count("view_changes", traced.views);
    let (virt_boot, virt_cut) = match w {
        SimWorkload::Boot => (traced.virtual_s, 0.0),
        SimWorkload::Crash => (0.0, traced.virtual_s),
    };
    m.put("boot_virtual_s", virt_boot, "s", 1);
    m.put("cut_virtual_s", virt_cut, "s", 1);
    for name in ["boot_wall_s", "steady_wall_s", "cut_wall_s"] {
        let v = base
            .phases
            .iter()
            .find(|p| p.0 == name)
            .map_or(0.0, |p| p.1);
        m.put(name, v, "s", 1);
    }
    m.latency(&base.lat_ms, &[("op_p999_ms", 0.999)], |_| {
        base.lat_ms.len()
    });
    m.put(
        "trace.overhead_share",
        traced.wall_s / base.wall_s,
        "ratio",
        1,
    );
    Outcome {
        error,
        attempted: traced.lat_ms.len(),
        failed: 0,
        metrics: m,
    }
}
