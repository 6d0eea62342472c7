//! The equivalence oracle for the thread-per-core data plane: a mesh of
//! hosts each running `W` [`KvNode`] shards — partitions assigned by
//! [`shard_of`], inbound frames fanned out by [`shard_route`], request
//! ids strided so `req % W` names the issuing shard — must be
//! observationally identical to the same mesh running the unsharded
//! single-`KvNode` oracle. Identical per-op outcomes, identical merged
//! partition digests on every surviving host, and no acked write lost,
//! for the same churn script at `W ∈ {1, 2, 4}`. Ops enter as the
//! `CPut`/`CGet` frames a smart client sends, answered with `CResp`.
//!
//! This is the safety net under `real.rs`: the sharded runtime is just
//! this harness with threads and sockets instead of a synchronous pump,
//! so any divergence the state machines could exhibit shows up here
//! without any nondeterministic scheduling in the way.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use rapid_core::config::{Configuration, Member};
use rapid_core::id::{Endpoint, NodeId};
use rapid_core::membership::Proposal;
use rapid_route::{
    shard_of, shard_route, ClientOp, KvMsg, KvNode, KvOut, KvOutcome,
    PartitionDigest, PlacementConfig,
};

fn members(n: usize) -> Vec<Member> {
    (0..n)
        .map(|i| {
            Member::new(
                NodeId::from_u128(i as u128 + 1),
                Endpoint::new(format!("se-{i}"), 4200),
            )
        })
        .collect()
}

/// The endpoint the harness's test client submits ops from.
fn test_client() -> Endpoint {
    Endpoint::new("se-client", 4300)
}

/// Appends the outcome of every verdict in `msg` (a `CResp` or a batch
/// of them) to `done`, tagged with the answering host.
fn verdicts(host: usize, msg: KvMsg, done: &mut Vec<(usize, u64, KvOutcome)>) {
    match msg {
        KvMsg::Batch(msgs) => {
            for m in msgs {
                verdicts(host, m, done);
            }
        }
        KvMsg::CResp {
            req,
            code,
            val,
            version,
        } => match KvOutcome::from_cresp(code, val, version) {
            Ok(outcome) => done.push((host, req, outcome)),
            Err(e) => panic!("no op is shed here: {e}"),
        },
        other => panic!("nodes send clients only verdicts here, got {other:?}"),
    }
}

/// A mesh of `n` hosts, each hosting `w` KV shards, with synchronous
/// message delivery. Crashed hosts silently eat every frame, exactly
/// like the unsharded `Mesh` harness in `kv.rs`.
struct ShardedMesh {
    nodes: Vec<Vec<KvNode>>,
    config: Arc<Configuration>,
    partitions: u32,
    crashed: Vec<bool>,
    /// Last request id the test client used.
    last_creq: u64,
}

impl ShardedMesh {
    fn new(n: usize, w: usize, spec: PlacementConfig) -> ShardedMesh {
        let ms = members(n);
        let config = Configuration::bootstrap(ms.clone());
        let mut nodes: Vec<Vec<KvNode>> = ms
            .into_iter()
            .map(|m| {
                (0..w)
                    .map(|s| KvNode::new(m.clone(), spec, 1_000, None).with_shard(s, w))
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        for host in &mut nodes {
            for shard in host {
                shard.on_view(Arc::clone(&config), 0, &mut out);
            }
        }
        assert!(out.is_empty(), "initial view must not emit traffic");
        ShardedMesh {
            nodes,
            config,
            partitions: spec.partitions,
            crashed: vec![false; n],
            last_creq: 0,
        }
    }

    /// Delivers `op` to `host` as the frame a smart client sends —
    /// through [`shard_route`], like every inbound frame — and pumps to
    /// quiescence. Returns the client request id and every completion.
    fn submit(
        &mut self,
        host: usize,
        op: ClientOp<'_>,
        now: u64,
    ) -> (u64, Vec<(usize, u64, KvOutcome)>) {
        self.last_creq += 1;
        let req = self.last_creq;
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
        let w = self.nodes[host].len();
        let mut out = Vec::new();
        for (s, sub) in shard_route(msg, self.partitions, w) {
            self.nodes[host][s].on_message(test_client(), sub, now, &mut out);
        }
        (req, self.pump(host, out, now))
    }

    fn addr(&self, idx: usize) -> Endpoint {
        self.nodes[idx][0].me().addr
    }

    fn idx_of(&self, addr: Endpoint) -> usize {
        self.nodes
            .iter()
            .position(|host| host[0].me().addr == addr)
            .expect("addressed node exists")
    }

    /// Pumps to quiescence. Every inbound frame passes through
    /// [`shard_route`] — the same dispatch the real runtime's sink
    /// performs — before reaching a shard. Returns the verdicts the test
    /// client received as `(answering host, req, outcome)`.
    fn pump(
        &mut self,
        origin: usize,
        seed: Vec<KvOut>,
        now: u64,
    ) -> Vec<(usize, u64, KvOutcome)> {
        let origin_addr = self.addr(origin);
        let mut queue: Vec<(Endpoint, KvOut)> =
            seed.into_iter().map(|item| (origin_addr, item)).collect();
        let mut done = Vec::new();
        let mut hops = 0;
        while let Some((from, item)) = queue.pop() {
            hops += 1;
            assert!(hops < 100_000, "message storm");
            match item {
                KvOut::Send(to, msg) if to == test_client() => {
                    verdicts(self.idx_of(from), msg, &mut done)
                }
                KvOut::Done(..) => unreachable!("nodes answer clients on the wire"),
                KvOut::Send(to, msg) => {
                    let idx = self.idx_of(to);
                    if self.crashed[idx] {
                        continue; // Dead processes receive nothing.
                    }
                    let w = self.nodes[idx].len();
                    for (s, sub) in shard_route(msg, self.partitions, w) {
                        let mut out = Vec::new();
                        self.nodes[idx][s].on_message(from, sub, now, &mut out);
                        queue.extend(out.into_iter().map(|item| (to, item)));
                    }
                }
            }
        }
        done
    }

    /// Broadcast-then-deliver view adoption: every live shard adopts the
    /// view (in shard order, mirroring the sequenced fan-out channel)
    /// before any handoff traffic moves.
    fn view_change(&mut self, cfg: &Arc<Configuration>, now: u64) -> Vec<(usize, u64, KvOutcome)> {
        self.config = Arc::clone(cfg);
        let mut staged: Vec<(usize, Vec<KvOut>)> = Vec::new();
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Vec::new();
            for shard in &mut self.nodes[i] {
                shard.on_view(Arc::clone(cfg), now, &mut out);
            }
            staged.push((i, out));
        }
        let mut done = Vec::new();
        for (i, out) in staged {
            done.extend(self.pump(i, out, now));
        }
        done
    }

    fn tick_all(&mut self, now: u64) -> Vec<(usize, u64, KvOutcome)> {
        let mut done = Vec::new();
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Vec::new();
            for shard in &mut self.nodes[i] {
                shard.on_tick(now, &mut out);
            }
            done.extend(self.pump(i, out, now));
        }
        done
    }

    /// Per-host digest, merged across shards and sorted by partition —
    /// the same merge `KvRuntime::digest_snapshot` reads. Panics if two
    /// shards ever claim the same partition.
    fn merged_digest(&self, host: usize) -> Vec<(u32, PartitionDigest, bool)> {
        let mut all: Vec<(u32, PartitionDigest, bool)> = self.nodes[host]
            .iter()
            .flat_map(|shard| shard.digest_snapshot())
            .collect();
        all.sort_unstable_by_key(|&(p, _, _)| p);
        for pair in all.windows(2) {
            assert_ne!(pair[0].0, pair[1].0, "two shards own partition {}", pair[0].0);
        }
        all
    }
}

/// One scripted operation: `key` indexes a small hot keyspace so
/// overwrites and cross-partition traffic both occur.
#[derive(Clone, Copy, Debug)]
struct Op {
    key: u8,
    is_put: bool,
    coord: u8,
}

/// Everything observable about one run, for cross-`W` comparison.
#[derive(Debug, PartialEq)]
struct Trace {
    /// Outcome per scripted op, in submission order (`None` = the op
    /// never completed, e.g. its quorum died before the view healed).
    outcomes: Vec<Option<KvOutcome>>,
    /// Readback per acked key at the end of the run.
    sweep: Vec<(String, KvOutcome)>,
    /// Merged digest per surviving host.
    digests: Vec<Vec<(u32, PartitionDigest, bool)>>,
}

fn run_script(w: usize, n: usize, spec: PlacementConfig, ops: &[Op], cut: usize, victim: usize) -> Trace {
    let mut mesh = ShardedMesh::new(n, w, spec);
    let mut outcomes: Vec<Option<KvOutcome>> = vec![None; ops.len()];
    // (host, req) -> op index; request ids are per-host counters, so the
    // pair is unique even though two coordinators can issue the same id.
    let mut pending: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    // key -> (value, version) of the last *acked* write, submission order.
    let mut ledger: BTreeMap<String, (String, u64)> = BTreeMap::new();

    let record = |results: Vec<(usize, u64, KvOutcome)>,
                      outcomes: &mut Vec<Option<KvOutcome>>,
                      pending: &BTreeMap<(usize, u64), usize>| {
        for (host, req, outcome) in results {
            if let Some(&op) = pending.get(&(host, req)) {
                assert!(outcomes[op].is_none(), "op {op} completed twice");
                outcomes[op] = Some(outcome);
            }
        }
    };

    let submit = |mesh: &mut ShardedMesh,
                      op_idx: usize,
                      op: Op,
                      now: u64,
                      outcomes: &mut Vec<Option<KvOutcome>>,
                      pending: &mut BTreeMap<(usize, u64), usize>| {
        let mut coord = op.coord as usize % n;
        if mesh.crashed[coord] {
            coord = (coord + 1) % n;
        }
        let key = format!("user:{}", op.key);
        let val = format!("v{op_idx}");
        let client_op = if op.is_put {
            ClientOp::Put { key: &key, val: &val }
        } else {
            ClientOp::Get { key: &key }
        };
        let (req, results) = mesh.submit(coord, client_op, now);
        pending.insert((coord, req), op_idx);
        for (host, r, outcome) in results {
            if let Some(&idx) = pending.get(&(host, r)) {
                assert!(outcomes[idx].is_none(), "op {idx} completed twice");
                outcomes[idx] = Some(outcome);
            }
        }
    };

    // Phase 1: healthy mesh.
    for (i, &op) in ops[..cut].iter().enumerate() {
        submit(&mut mesh, i, op, i as u64, &mut outcomes, &mut pending);
        if let (true, Some(KvOutcome::Acked { version })) = (op.is_put, &outcomes[i]) {
            ledger.insert(format!("user:{}", op.key), (format!("v{i}"), *version));
        }
    }

    // Churn: crash one host and remove it from the view. Handoffs from
    // the crashed host are lost with it; repair must cover the gap.
    let victim = victim % n;
    mesh.crashed[victim] = true;
    let old_cfg = Arc::clone(&mesh.config);
    let rank = old_cfg
        .rank_of_addr(&mesh.addr(victim))
        .expect("victim is in the view");
    let removal = Proposal::from_items(old_cfg.id(), vec![old_cfg.removal_item(rank)]);
    let new_cfg = old_cfg.apply(&removal);
    let late = mesh.view_change(&new_cfg, 1_000);
    record(late, &mut outcomes, &pending);
    for round in 0..6u64 {
        let late = mesh.tick_all(2_000 + round * 1_000);
        record(late, &mut outcomes, &pending);
    }

    // Phase 2: ops against the healed, shrunken view.
    for (i, &op) in ops[cut..].iter().enumerate() {
        let idx = cut + i;
        submit(&mut mesh, idx, op, 8_000 + i as u64, &mut outcomes, &mut pending);
        if let (true, Some(KvOutcome::Acked { version })) = (op.is_put, &outcomes[idx]) {
            ledger.insert(format!("user:{}", op.key), (format!("v{idx}"), *version));
        }
    }
    for round in 0..6u64 {
        let late = mesh.tick_all(9_000 + round * 1_000);
        record(late, &mut outcomes, &pending);
    }

    // Durability sweep: every acked key must read back at-or-above its
    // acked version, and never as Missing — on any live coordinator.
    let reader = (0..n).find(|&i| !mesh.crashed[i]).expect("someone survives");
    let mut sweep = Vec::new();
    for (key, (val, version)) in &ledger {
        let (req, results) = mesh.submit(reader, ClientOp::Get { key }, 20_000);
        let outcome = results
            .into_iter()
            .find_map(|(host, r, o)| (host == reader && r == req).then_some(o))
            .expect("sweep read must complete on a healthy mesh");
        match &outcome {
            KvOutcome::Found { val: got, version: got_ver } => assert!(
                got == val || got_ver > version,
                "acked {key}={val}@{version} read back as {got}@{got_ver}"
            ),
            KvOutcome::Missing => panic!("acked key {key} lost"),
            other => panic!("sweep read of {key} failed: {other:?}"),
        }
        sweep.push((key.clone(), outcome));
    }

    let digests = (0..n)
        .filter(|&i| !mesh.crashed[i])
        .map(|i| mesh.merged_digest(i))
        .collect();
    Trace { outcomes, sweep, digests }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole pin: identical churn script, identical observable
    /// history at one, two, and four shards per host.
    #[test]
    fn sharded_mesh_equals_unsharded_oracle(
        n in 4usize..7,
        partitions in 8u32..25,
        raw_ops in prop::collection::vec((0u8..16, any::<bool>(), 0u8..8), 4..20),
        cut_pct in 0usize..100,
        victim in 0usize..8,
    ) {
        let spec = PlacementConfig { partitions, replication: 3 };
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(key, is_put, coord)| Op { key, is_put, coord })
            .collect();
        let cut = ops.len() * cut_pct / 100;

        let oracle = run_script(1, n, spec, &ops, cut, victim);
        for w in [2usize, 4] {
            let sharded = run_script(w, n, spec, &ops, cut, victim);
            prop_assert_eq!(
                &oracle, &sharded,
                "W={} diverged from the unsharded oracle", w
            );
        }
    }
}

/// Satellite pin: the partition→shard map is a pure function of
/// `(partition, shard count)` — a view change that reshuffles replica
/// placement must not move any partition between a host's shards.
#[test]
fn partition_to_shard_assignment_survives_view_changes() {
    let spec = PlacementConfig { partitions: 32, replication: 3 };
    let w = 4;
    let mut mesh = ShardedMesh::new(5, w, spec);

    // Seed every partition with data so digests are non-trivial.
    for k in 0..64usize {
        let key = format!("user:{k}");
        mesh.submit(0, ClientOp::Put { key: &key, val: "x" }, 0);
    }

    let owner_of = |mesh: &ShardedMesh, host: usize| -> Vec<(u32, usize)> {
        let mut owners = Vec::new();
        for (s, shard) in mesh.nodes[host].iter().enumerate() {
            for (p, _, _) in shard.digest_snapshot() {
                owners.push((p, s));
            }
        }
        owners.sort_unstable();
        owners
    };

    let before: Vec<_> = (0..5).map(|i| owner_of(&mesh, i)).collect();
    for host in &before {
        for &(p, s) in host {
            assert_eq!(s, shard_of(p, w), "digest reported from a non-owning shard");
        }
    }

    // Crash + remove a host: replica ranks shift for many partitions.
    mesh.crashed[4] = true;
    let old_cfg = Arc::clone(&mesh.config);
    let rank = old_cfg.rank_of_addr(&mesh.addr(4)).unwrap();
    let removal = Proposal::from_items(old_cfg.id(), vec![old_cfg.removal_item(rank)]);
    let new_cfg = old_cfg.apply(&removal);
    mesh.view_change(&new_cfg, 1_000);
    for round in 0..6u64 {
        mesh.tick_all(2_000 + round * 1_000);
    }

    // Hosts may own *different partitions* now (placement moved), but
    // every partition a host owns still lives on the shard `shard_of`
    // names — before and after are consistent with the same pure map.
    for host in 0..4 {
        for (p, s) in owner_of(&mesh, host) {
            assert_eq!(s, shard_of(p, w), "partition {p} migrated between shards");
        }
    }
}
