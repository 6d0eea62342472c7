//! The traced KV replay: the same op stream through five in-memory hosts
//! of `KvNode` shards and one `KvClient`, on a virtual millisecond clock.
//! The hosts make the calls `rapid_route::real`'s workers make — one
//! `on_message` per decoded frame, one submit burst per pass, `on_tick`
//! plus `digest_snapshot` every 20 ms — and every call, and every
//! `kv::encode` / `kv::decode`, is timed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_route::{kv as kvwire, shard_route, ClientOp, KvClient, KvMsg, KvNode, KvOut, KvOutcome};

use crate::kv::{
    self as bench, KvWorkload, Model, NODES, OP_TIMEOUT_MS, REPAIR_MS, ROUTE, VALUE_LEN,
};
use crate::loadgen::{self, Op};
use crate::report::Metrics;

/// The host loops' timer cadence.
const TICK_MS: u64 = 20;
/// Virtual time allowed after the last due op for every op to finish.
const DRAIN_MS: u64 = 10_000;

/// A timed call site.
#[derive(Clone, Copy)]
enum Site {
    ClientSubmit = 0,
    Client,
    Coord,
    Replicate,
    Repair,
    OtherMsg,
    Tick,
    Digest,
    Encode,
    Decode,
}
const SITES: usize = 10;

/// The data-plane function a message is handled by. A batch counts as
/// its first message's.
fn site_of(msg: &KvMsg) -> Site {
    match msg {
        KvMsg::Put { .. }
        | KvMsg::PutAck { .. }
        | KvMsg::Get { .. }
        | KvMsg::GetResp { .. }
        | KvMsg::CPut { .. }
        | KvMsg::CGet { .. } => Site::Coord,
        KvMsg::Replicate { .. } | KvMsg::RepAck { .. } => Site::Replicate,
        KvMsg::Handoff { .. }
        | KvMsg::DigestReq { .. }
        | KvMsg::DigestResp { .. }
        | KvMsg::RepairPull { .. }
        | KvMsg::RepairPush { .. } => Site::Repair,
        KvMsg::Batch(msgs) => msgs.first().map_or(Site::OtherMsg, site_of),
        _ => Site::OtherMsg,
    }
}

/// Calls and busy nanoseconds per site; a disabled tracer only counts.
struct Tracer {
    on: bool,
    calls: [u64; SITES],
    ns: [u64; SITES],
    encoded_bytes: u64,
}

impl Tracer {
    fn time<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        self.calls[site as usize] += 1;
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns[site as usize] += t.elapsed().as_nanos() as u64;
        r
    }

    fn reset(&mut self) {
        self.calls = [0; SITES];
        self.ns = [0; SITES];
        self.encoded_bytes = 0;
    }

    fn ns_per_call(&self, site: Site) -> f64 {
        self.ns[site as usize] as f64 / self.calls[site as usize].max(1) as f64
    }
}

/// Five hosts of `W` shards each, one client, and the frames in flight.
struct Mesh {
    hosts: Vec<Vec<KvNode>>,
    addrs: Vec<Endpoint>,
    client: KvClient,
    client_addr: Endpoint,
    wire: VecDeque<(Endpoint, Endpoint, Vec<u8>)>,
    done: Vec<(u64, KvOutcome)>,
    tracer: Tracer,
}

impl Mesh {
    fn new(shards: usize) -> Mesh {
        let members: Vec<Member> = (0..NODES)
            .map(|i| {
                Member::new(
                    NodeId::from_u128(i as u128 + 1),
                    Endpoint::new(format!("mesh-{i}"), 4300),
                )
            })
            .collect();
        let config = Configuration::bootstrap(members.clone());
        let inbox = bench::settings(shards).kv_inbox;
        let mut out = Vec::new();
        let hosts = members
            .iter()
            .map(|m| {
                (0..shards)
                    .map(|s| {
                        let mut kv = KvNode::new(m.clone(), ROUTE, OP_TIMEOUT_MS, None)
                            .with_shard(s, shards)
                            .with_repair_interval(REPAIR_MS)
                            .with_admission(inbox.div_ceil(shards), 0);
                        kv.on_view(Arc::clone(&config), 0, &mut out);
                        kv
                    })
                    .collect()
            })
            .collect();
        let addrs: Vec<Endpoint> = members.iter().map(|m| m.addr).collect();
        let client_addr = Endpoint::new("mesh-client", 4300);
        let window = bench::settings(shards).client_window;
        Mesh {
            hosts,
            client: KvClient::new(client_addr, ROUTE, addrs.clone(), window, OP_TIMEOUT_MS),
            addrs,
            client_addr,
            wire: VecDeque::new(),
            done: Vec::new(),
            tracer: Tracer {
                on: false,
                calls: [0; SITES],
                ns: [0; SITES],
                encoded_bytes: 0,
            },
        }
    }

    /// Encodes outbound frames onto the wire; collects completions.
    fn emit(&mut self, from: Endpoint, out: &mut Vec<KvOut>) {
        for item in out.drain(..) {
            match item {
                KvOut::Send(to, msg) => {
                    let mut buf = Vec::with_capacity(kvwire::encoded_len(&msg));
                    self.tracer
                        .time(Site::Encode, || kvwire::encode(&msg, &mut buf));
                    self.tracer.encoded_bytes += buf.len() as u64;
                    self.wire.push_back((from, to, buf));
                }
                KvOut::Done(req, outcome) => self.done.push((req, outcome)),
            }
        }
    }

    /// Delivers frames until none are in flight.
    fn pump(&mut self, now: u64) {
        let mut out = Vec::new();
        while let Some((from, to, buf)) = self.wire.pop_front() {
            let msg = self
                .tracer
                .time(Site::Decode, || kvwire::decode(&buf))
                .expect("frames this mesh encoded decode");
            if to == self.client_addr {
                let client = &mut self.client;
                self.tracer
                    .time(Site::Client, || client.on_message(from, msg, now, &mut out));
                self.emit(to, &mut out);
                continue;
            }
            let h = self
                .addrs
                .iter()
                .position(|a| *a == to)
                .expect("addressed host exists");
            let shards = self.hosts[h].len();
            for (s, part) in shard_route(msg, ROUTE.partitions, shards) {
                let site = site_of(&part);
                let node = &mut self.hosts[h][s];
                self.tracer
                    .time(site, || node.on_message(from, part, now, &mut out));
                self.emit(to, &mut out);
            }
        }
    }

    /// The host timers: client and every shard tick, then every shard
    /// takes its digest snapshot.
    fn tick(&mut self, now: u64) {
        let mut out = Vec::new();
        let client = &mut self.client;
        self.tracer
            .time(Site::Client, || client.on_tick(now, &mut out));
        self.emit(self.client_addr, &mut out);
        for h in 0..self.hosts.len() {
            for s in 0..self.hosts[h].len() {
                let node = &mut self.hosts[h][s];
                self.tracer.time(Site::Tick, || node.on_tick(now, &mut out));
                let node = &self.hosts[h][s];
                std::hint::black_box(self.tracer.time(Site::Digest, || node.digest_snapshot()));
                self.emit(self.addrs[h], &mut out);
            }
        }
    }

    /// One submit burst through the client.
    fn submit(&mut self, ops: &[ClientOp<'_>], now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let client = &mut self.client;
        let reqs = self
            .tracer
            .time(Site::ClientSubmit, || client.submit_ops(ops, now, &mut out));
        self.emit(self.client_addr, &mut out);
        reqs
    }
}

/// What the timed replay measured.
pub struct Replay {
    tracer: Tracer,
    ops: usize,
    /// Nanoseconds in every timed call.
    pub sansio_ns: u64,
    /// Nanoseconds in `digest_snapshot`.
    pub digest_ns: u64,
    /// Timed wall over untimed wall of the same replay.
    overhead: f64,
}

impl Replay {
    /// Records the per-layer metrics the replay measures.
    pub fn record(&self, m: &mut Metrics) {
        let t = &self.tracer;
        let n = self.ops;
        m.put(
            "client.submit.ns_per_op",
            t.ns[Site::ClientSubmit as usize] as f64 / n as f64,
            "ns",
            n,
        );
        for (name, site) in [
            ("kv.coord.ns_per_call", Site::Coord),
            ("kv.replicate.ns_per_call", Site::Replicate),
            ("kv.repair.ns_per_call", Site::Repair),
            ("kv.tick.ns_per_call", Site::Tick),
            ("kv.digest.ns_per_call", Site::Digest),
            ("kvcodec.encode.ns_per_frame", Site::Encode),
            ("kvcodec.decode.ns_per_frame", Site::Decode),
        ] {
            m.put(
                name,
                t.ns_per_call(site),
                "ns",
                t.calls[site as usize] as usize,
            );
        }
        m.put(
            "kvcodec.bytes_per_op",
            t.encoded_bytes as f64 / n as f64,
            "B",
            n,
        );
        m.put("trace.overhead_share", self.overhead, "ratio", 1);
    }
}

/// Preloads the mesh, then replays `ops` at the workload's rate: op `i`
/// is submitted in the pass of virtual ms `i * 1000 / rate`. Returns the
/// wall seconds of the replay window.
fn run_once(w: &KvWorkload, ops: &[Op], trace: bool) -> Result<(Mesh, f64), String> {
    let mut mesh = Mesh::new(w.shards);
    let mut model = Model::new(w.keys);
    let mut now = 0;
    // Subscribe the client before anything else.
    mesh.tick(now);
    mesh.pump(now);
    let keys: Vec<String> = (0..w.keys).map(loadgen::key_name).collect();
    let vals: Vec<String> = (0..w.keys)
        .map(|k| loadgen::value_for(k, 0, VALUE_LEN))
        .collect();
    let preload: Vec<ClientOp<'_>> = (0..w.keys)
        .map(|k| ClientOp::Put {
            key: &keys[k],
            val: &vals[k],
        })
        .collect();
    let reqs = mesh.submit(&preload, now);
    while mesh.client.pending() > 0 {
        now += 1;
        if now % TICK_MS == 0 {
            mesh.tick(now);
        }
        mesh.pump(now);
    }
    for (req, outcome) in mesh.done.drain(..) {
        let key = reqs
            .iter()
            .position(|&r| r == req)
            .ok_or("unknown preload reply")?;
        match outcome {
            KvOutcome::Acked { version } => model.ack(key, 0, version),
            other => {
                return Err(format!(
                    "mesh preload of {} completed as {other:?}",
                    keys[key]
                ))
            }
        }
    }

    mesh.tracer.reset();
    mesh.tracer.on = trace;
    let start = now + 1;
    let due_ms = |i: usize| start + (i as f64 * 1e3 / w.rate) as u64;
    let vals: Vec<String> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if op.is_put {
                loadgen::value_for(op.key, i as u64 + 1, VALUE_LEN)
            } else {
                String::new()
            }
        })
        .collect();
    // Request id -> (op index, read floor at issue).
    let mut issued = std::collections::HashMap::new();
    let mut next = 0;
    let t0 = Instant::now();
    now = start;
    while next < ops.len() || mesh.client.pending() > 0 {
        if now > due_ms(ops.len()) + DRAIN_MS {
            return Err("mesh replay did not drain".into());
        }
        let first = next;
        while next < ops.len() && due_ms(next) <= now {
            next += 1;
        }
        if next > first {
            let burst: Vec<ClientOp<'_>> = (first..next)
                .map(|i| {
                    let key = &keys[ops[i].key];
                    if ops[i].is_put {
                        ClientOp::Put { key, val: &vals[i] }
                    } else {
                        ClientOp::Get { key }
                    }
                })
                .collect();
            for (i, req) in (first..next).zip(mesh.submit(&burst, now)) {
                issued.insert(req, (i, model.floor(ops[i].key)));
            }
        }
        if now % TICK_MS == 0 {
            mesh.tick(now);
        }
        mesh.pump(now);
        for (req, outcome) in std::mem::take(&mut mesh.done) {
            let (i, floor) = issued.remove(&req).ok_or("unknown replay reply")?;
            let op = ops[i];
            match outcome {
                KvOutcome::Acked { version } if op.is_put => {
                    model.ack(op.key, i as u64 + 1, version)
                }
                o if !op.is_put => model.check_read(op.key, floor, &o)?,
                o => return Err(format!("mesh put {} completed as {o:?}", keys[op.key])),
            }
        }
        now += 1;
    }
    Ok((mesh, t0.elapsed().as_secs_f64()))
}

/// Replays `ops` untimed, then timed; returns the timed replay's spans.
pub fn replay(w: &KvWorkload, ops: &[Op]) -> Result<Replay, String> {
    let (_, plain_s) = run_once(w, ops, false)?;
    let (mesh, traced_s) = run_once(w, ops, true)?;
    let tracer = mesh.tracer;
    Ok(Replay {
        sansio_ns: tracer.ns.iter().sum(),
        digest_ns: tracer.ns[Site::Digest as usize],
        ops: ops.len(),
        overhead: traced_s / plain_s,
        tracer,
    })
}
