//! The KV workloads: five `KvRuntime`s on loopback TCP and one
//! `KvClientRuntime`, driven open-loop by one generator thread.

use crossbeam::channel::{Receiver, TryRecvError};
use std::time::{Duration, Instant};

use rapid_core::id::Endpoint;
use rapid_core::node::NodeStatus;
use rapid_core::settings::Settings;
use rapid_route::real::KvClientRuntime;
use rapid_route::{KvOutcome, KvRuntime, PlacementConfig};

use crate::loadgen::{self, host_us_per_op, KeyDist, KeySampler, Op};
use crate::report::{Metrics, Outcome};
use crate::{mesh, procfs, stats};

/// A pending op's reply channel.
type Rx = Receiver<KvOutcome>;

/// Cluster processes.
pub const NODES: usize = 5;
/// KV placement: 64 partitions, 3 replicas each.
pub const ROUTE: PlacementConfig = PlacementConfig {
    partitions: 64,
    replication: 3,
};
/// Bytes per value.
pub const VALUE_LEN: usize = 256;
/// The data plane's per-op deadline (client and coordinators).
pub const OP_TIMEOUT_MS: u64 = 2_000;
/// Anti-entropy cadence.
pub const REPAIR_MS: u64 = 1_000;
/// The generator gives up on an op this long after it was due; a given-up
/// op counts as failed, and as this latency in the percentiles.
const GIVE_UP: Duration = Duration::from_millis(2 * OP_TIMEOUT_MS);
/// Cluster set-ups per run; `setup_s` is their median and the last one
/// is measured.
const SETUPS: usize = 5;
/// Ops kept in flight while preloading and reading back.
const BULK_INFLIGHT: usize = 64;
/// Latency percentiles are read per slice of the window and summarised
/// by the median slice, so a stall of the shared host confined to a few
/// slices does not decide a run. Slices hold at least this many ops, and
/// enough to leave 10 beyond the percentile read.
const SLICE_OPS: usize = 1_000;
/// How often the generator samples coordinator inbox depths.
const DEPTH_EVERY: Duration = Duration::from_millis(50);

/// One KV workload's shape.
#[derive(Clone, Copy)]
pub struct KvWorkload {
    /// Data-plane shard threads per process (`Settings::kv_shards`).
    pub shards: usize,
    /// Keys preloaded before the window; ops draw from these.
    pub keys: usize,
    /// Share of ops that are puts.
    pub put_share: f64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Offered load, ops per second.
    pub rate: f64,
}

impl KvWorkload {
    /// Small store, light read-mostly load.
    pub fn read() -> KvWorkload {
        KvWorkload {
            shards: 1,
            keys: 1_000,
            put_share: 0.1,
            dist: KeyDist::Uniform,
            rate: 2_000.0,
        }
    }

    /// A 4x larger store, write-mostly skewed load, two shard threads.
    pub fn write() -> KvWorkload {
        KvWorkload {
            shards: 2,
            keys: 4_000,
            put_share: 0.9,
            dist: KeyDist::Zipf(1.1),
            rate: 1_000.0,
        }
    }

    /// The seeded op stream of a `seconds`-long window.
    pub fn ops(&self, seed: u64, seconds: f64) -> Vec<Op> {
        let count = (self.rate * seconds).round() as usize;
        loadgen::op_stream(
            seed,
            count,
            self.put_share,
            &KeySampler::new(self.keys, self.dist),
        )
    }
}

/// The real scenario driver's wall-clock protocol timings, plus the
/// workload's shard count.
pub fn settings(shards: usize) -> Settings {
    Settings {
        tick_interval_ms: 20,
        fd_probe_interval_ms: 200,
        fd_probe_timeout_ms: 200,
        consensus_fallback_base_ms: 1_500,
        consensus_fallback_jitter_ms: 500,
        join_timeout_ms: 1_000,
        gossip_interval_ms: 50,
        kv_shards: shards,
        ..Settings::default()
    }
}

/// What the client was told, per key: the highest acked version and the
/// write that carried it. Write 0 is the preload; window op `i` writes
/// as write `i + 1`.
pub struct Model {
    acked: Vec<(u64, u64)>,
}

impl Model {
    pub fn new(keys: usize) -> Model {
        Model {
            acked: vec![(0, 0); keys],
        }
    }

    /// The version floor a read of `key` issued now must meet.
    pub fn floor(&self, key: usize) -> u64 {
        self.acked[key].0
    }

    /// Records an acked write.
    pub fn ack(&mut self, key: usize, write: u64, version: u64) {
        if version > self.acked[key].0 {
            self.acked[key] = (version, write);
        }
    }

    /// Checks a completed read against the floor it was issued with.
    pub fn check_read(&self, key: usize, floor: u64, outcome: &KvOutcome) -> Result<(), String> {
        match outcome {
            KvOutcome::Found { val, version } => {
                if *version < floor {
                    return Err(format!(
                        "get {} returned version {version}, older than acked {floor}",
                        loadgen::key_name(key)
                    ));
                }
                let (v, write) = self.acked[key];
                if *version == v && *val != loadgen::value_for(key, write, VALUE_LEN) {
                    return Err(format!(
                        "get {} returned the wrong value for version {v}",
                        loadgen::key_name(key)
                    ));
                }
                Ok(())
            }
            KvOutcome::Missing => Err(format!(
                "get {} lost a preloaded key",
                loadgen::key_name(key)
            )),
            other => Err(format!(
                "get {} completed as {other:?}",
                loadgen::key_name(key)
            )),
        }
    }
}

/// A running cluster and its client.
struct Cluster {
    nodes: Vec<KvRuntime>,
    client: KvClientRuntime,
}

fn wait_until(what: &str, limit: Duration, mut ok: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + limit;
    while !ok() {
        if Instant::now() > deadline {
            return Err(format!("{what} not reached within {limit:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

impl Cluster {
    /// Starts the cluster, subscribes the client and preloads every key
    /// with write 0.
    fn start(w: &KvWorkload, model: &mut Model) -> Result<Cluster, String> {
        let s = settings(w.shards);
        let local = || Endpoint::new("127.0.0.1", 0);
        let io = |e: std::io::Error| e.to_string();
        let seed = KvRuntime::start_seed(local(), s.clone(), ROUTE, OP_TIMEOUT_MS, REPAIR_MS)
            .map_err(io)?;
        let seeds = vec![seed.addr()];
        let mut nodes = vec![seed];
        for _ in 1..NODES {
            nodes.push(
                KvRuntime::start_joiner(
                    local(),
                    seeds.clone(),
                    s.clone(),
                    Default::default(),
                    ROUTE,
                    OP_TIMEOUT_MS,
                    REPAIR_MS,
                )
                .map_err(io)?,
            );
        }
        wait_until(
            "every process active in one view",
            Duration::from_secs(30),
            || {
                nodes
                    .iter()
                    .all(|n| n.status() == NodeStatus::Active && n.view_len() == NODES)
            },
        )?;
        let addrs = nodes.iter().map(KvRuntime::addr).collect();
        let client =
            KvClientRuntime::start(addrs, ROUTE, s.client_window, OP_TIMEOUT_MS).map_err(io)?;
        wait_until("client view", Duration::from_secs(10), || {
            client.view_seq().is_some()
        })?;
        let cluster = Cluster { nodes, client };
        cluster.bulk(
            w.keys,
            |c, key| {
                let val = loadgen::value_for(key, 0, VALUE_LEN);
                c.begin_put(&loadgen::key_name(key), &val)
            },
            |key, outcome| match outcome {
                KvOutcome::Acked { version } => {
                    model.ack(key, 0, *version);
                    Ok(())
                }
                other => Err(format!(
                    "preload of {} completed as {other:?}",
                    loadgen::key_name(key)
                )),
            },
        )?;
        Ok(cluster)
    }

    /// Runs one op per key with `BULK_INFLIGHT` in flight, retrying an op
    /// that fails up to three times.
    fn bulk(
        &self,
        keys: usize,
        submit: impl Fn(&KvClientRuntime, usize) -> Rx,
        mut done: impl FnMut(usize, &KvOutcome) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut next = 0;
        let mut tries = vec![0u32; keys];
        let mut flying: Vec<(usize, Rx)> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        while next < keys || !flying.is_empty() {
            while next < keys && flying.len() < BULK_INFLIGHT {
                flying.push((next, submit(&self.client, next)));
                next += 1;
            }
            let mut i = 0;
            while i < flying.len() {
                let outcome = match flying[i].1.try_recv() {
                    Ok(o) => o,
                    Err(TryRecvError::Empty) => {
                        i += 1;
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => KvOutcome::Failed,
                };
                let (key, _) = flying.swap_remove(i);
                if outcome == KvOutcome::Failed && tries[key] < 3 {
                    tries[key] += 1;
                    flying.push((key, submit(&self.client, key)));
                } else {
                    done(key, &outcome)?;
                }
            }
            if Instant::now() > deadline {
                return Err("bulk phase did not finish within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    fn views(&self) -> u64 {
        self.nodes.iter().map(KvRuntime::view_count).sum()
    }

    fn stop(self) {
        self.client.shutdown_now();
        for n in self.nodes {
            n.shutdown_now();
        }
    }
}

/// What the open-loop window measured.
pub struct Window {
    /// Per op, in due order: ms from due to completion (a failed op reads
    /// as `GIVE_UP`).
    pub lat_ms: Vec<f64>,
    /// Per op: ms the generator submitted it after it was due, ascending.
    pub late_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Wall seconds from the first due time to the last completion.
    pub wall_s: f64,
    /// Process CPU seconds over the same span.
    pub cpu_s: f64,
    /// Highest coordinator inbox depth sampled.
    pub inbox_depth_max: usize,
    /// Process threads during the window.
    pub threads: u64,
}

struct Flying {
    op: usize,
    due: Instant,
    floor: u64,
    rx: Rx,
}

/// Offers `ops` at the workload's rate from this thread, whatever the
/// cluster's pace: op `i` is due `i / rate` seconds after the start and
/// is timed from then. Checks every completed read against the model.
fn window(w: &KvWorkload, c: &Cluster, ops: &[Op], model: &mut Model) -> Result<Window, String> {
    let interval = Duration::from_secs_f64(1.0 / w.rate);
    let mut lat_ms = vec![0.0; ops.len()];
    let mut late_ms = Vec::with_capacity(ops.len());
    let mut failed = 0;
    let mut flying: Vec<Flying> = Vec::new();
    let mut error: Option<String> = None;
    let mut depth_max = 0;
    let mut threads = 0;
    let (cpu0, t0) = (procfs::cpu_s(), Instant::now());
    let mut next_depth = t0;
    let mut end = t0;
    let mut next = 0;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    while next < ops.len() || !flying.is_empty() {
        let now = Instant::now();
        while next < ops.len() && t0 + interval * next as u32 <= now {
            let due = t0 + interval * next as u32;
            let op = ops[next];
            let key = loadgen::key_name(op.key);
            let rx = if op.is_put {
                c.client.begin_put(
                    &key,
                    &loadgen::value_for(op.key, next as u64 + 1, VALUE_LEN),
                )
            } else {
                c.client.begin_get(&key)
            };
            late_ms.push(ms(Instant::now() - due));
            flying.push(Flying {
                op: next,
                due,
                floor: model.floor(op.key),
                rx,
            });
            next += 1;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < flying.len() {
            let f = &flying[i];
            let outcome = match f.rx.try_recv() {
                Ok(o) => Some(o),
                Err(TryRecvError::Disconnected) => None,
                Err(TryRecvError::Empty) if now - f.due >= GIVE_UP => None,
                Err(TryRecvError::Empty) => {
                    i += 1;
                    continue;
                }
            };
            let f = flying.swap_remove(i);
            let op = ops[f.op];
            end = now;
            match outcome {
                None | Some(KvOutcome::Failed) => {
                    failed += 1;
                    lat_ms[f.op] = ms(GIVE_UP);
                    continue;
                }
                Some(KvOutcome::Acked { version }) if op.is_put => {
                    model.ack(op.key, f.op as u64 + 1, version)
                }
                Some(o) if !op.is_put => {
                    if let Err(e) = model.check_read(op.key, f.floor, &o) {
                        error.get_or_insert(e);
                    }
                }
                Some(o) => {
                    error.get_or_insert(format!(
                        "put {} completed as {o:?}",
                        loadgen::key_name(op.key)
                    ));
                }
            }
            lat_ms[f.op] = ms(now - f.due);
        }
        if now >= next_depth {
            next_depth = now + DEPTH_EVERY;
            depth_max = c
                .nodes
                .iter()
                .map(KvRuntime::inbox_depth)
                .max()
                .unwrap_or(0)
                .max(depth_max);
            threads = threads.max(procfs::threads());
        }
        // Wake for the next due op, or soon enough to time completions
        // to a fraction of a millisecond.
        let wake = if next < ops.len() {
            (t0 + interval * next as u32).min(now + Duration::from_micros(250))
        } else {
            now + Duration::from_micros(250)
        };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    let cpu_s = procfs::cpu_s() - cpu0;
    if let Some(e) = error {
        return Err(e);
    }
    Ok(Window {
        lat_ms,
        late_ms: stats::sorted(late_ms),
        attempted: ops.len(),
        failed,
        wall_s: (end - t0).as_secs_f64(),
        cpu_s,
        inbox_depth_max: depth_max,
        threads,
    })
}

/// Reads every key back; each must show at least its last acked version.
fn read_back(keys: usize, c: &Cluster, model: &Model) -> Result<(), String> {
    c.bulk(
        keys,
        |client, key| client.begin_get(&loadgen::key_name(key)),
        |key, outcome| model.check_read(key, model.floor(key), outcome),
    )
}

/// One KV run: `SETUPS` cluster set-ups (all but the last torn down at
/// once), the open-loop window on the last, then the read-back. A traced
/// run adds the per-layer breakdown from an in-memory replay of the same
/// op stream.
pub fn run(w: KvWorkload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        if let Some((c, _)) = last.take() {
            Cluster::stop(c);
        }
        let mut model = Model::new(w.keys);
        let t = Instant::now();
        let c = Cluster::start(&w, &mut model)?;
        setups.push(t.elapsed().as_secs_f64());
        eprintln!("setup {i}: {:.3}s", setups[i]);
        last = Some((c, model));
    }
    let (c, mut model) = last.expect("at least one set-up");
    let ops = w.ops(seed, seconds);
    let (views0, client0) = (c.views(), c.client.stats());
    let kv0 = kv_stats(&c);
    let win = window(&w, &c, &ops, &mut model);
    let (views1, client1) = (c.views(), c.client.stats());
    let kv1 = kv_stats(&c);
    let checked = win.and_then(|win| {
        read_back(w.keys, &c, &model)?;
        if views1 != views0 {
            return Err(format!(
                "{} view changes during the window",
                views1 - views0
            ));
        }
        Ok(win)
    });
    c.stop();
    let win = checked?;
    let ok = win.attempted - win.failed;
    let cpu_us_per_op = win.cpu_s * 1e6 / ok.max(1) as f64;
    eprintln!(
        "window: {} ops, {} failed, {:.3}s wall, {:.3}s cpu, late p99 {:.3}ms",
        win.attempted,
        win.failed,
        win.wall_s,
        win.cpu_s,
        stats::percentile(&win.late_ms, 0.99).value
    );
    let mut m = Metrics::new();
    if !traced {
        m.setup(&setups);
        m.latency(
            &win.lat_ms,
            &[("op_p50_ms", 0.5), ("op_p99_ms", 0.99)],
            |q| stats::slice_len(q, SLICE_OPS),
        );
        m.put("ops_per_s", ok as f64 / win.wall_s, "1/s", ok);
        m.put(
            "op_ok_share",
            ok as f64 / win.attempted as f64,
            "share",
            win.attempted,
        );
        m.put("cpu_us_per_op", cpu_us_per_op, "us", ok);
        m.put("peak_rss_mb", procfs::peak_rss_mb(), "MiB", 1);
    } else {
        m.latency(&win.lat_ms, &[("op_p999_ms", 0.999)], |q| {
            stats::slice_len(q, SLICE_OPS)
        });
        let per_op = |v: u64| v as f64 / win.attempted as f64;
        m.put(
            "client.msgs_per_op",
            per_op(client1.msgs_sent - client0.msgs_sent),
            "count",
            win.attempted,
        );
        m.put(
            "client.frames_per_op",
            per_op(client1.frames_sent - client0.frames_sent),
            "count",
            win.attempted,
        );
        m.count("client.retries", client1.retries - client0.retries);
        m.count("client.shed", client1.shed - client0.shed);
        m.put(
            "kv.msgs_per_op",
            per_op(kv1.msgs_sent - kv0.msgs_sent),
            "count",
            win.attempted,
        );
        m.put(
            "kv.frames_per_op",
            per_op(kv1.frames_sent - kv0.frames_sent),
            "count",
            win.attempted,
        );
        m.put(
            "kv.repair_bytes",
            (kv1.repair_bytes - kv0.repair_bytes) as f64,
            "B",
            1,
        );
        m.count("host.inbox_depth_max", win.inbox_depth_max as u64);
        m.put("proc.cpu_util", win.cpu_s / win.wall_s, "cores", 1);
        m.count("proc.threads", win.threads);
        m.put(
            "loadgen.late_p99_ms",
            stats::percentile(&win.late_ms, 0.99).value,
            "ms",
            win.late_ms.len(),
        );
        m.put(
            "loadgen.late_max_ms",
            win.late_ms.last().copied().unwrap_or(0.0),
            "ms",
            win.late_ms.len(),
        );
        let replay = mesh::replay(&w, &ops)?;
        let sansio = replay.sansio_ns as f64 / 1e3 / ops.len() as f64;
        m.put("sansio.us_per_op", sansio, "us", ops.len());
        m.put(
            "host.us_per_op",
            host_us_per_op(cpu_us_per_op, sansio),
            "us",
            ok,
        );
        m.put(
            "kv.digest.share",
            replay.digest_ns as f64 / (win.cpu_s * 1e9),
            "share",
            1,
        );
        replay.record(&mut m);
    }
    Ok(Outcome {
        error: None,
        attempted: win.attempted,
        failed: win.failed,
        metrics: m,
    })
}

/// Data-plane counters summed over the cluster.
fn kv_stats(c: &Cluster) -> rapid_route::KvStats {
    let mut s = rapid_route::KvStats::default();
    for n in &c.nodes {
        s.absorb(&n.stats());
    }
    s
}
