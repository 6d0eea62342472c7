//! Quickstart: a real five-node Rapid cluster over TCP on loopback.
//!
//! Starts one seed and four joiners, watches view changes arrive, then
//! crash-kills one node and waits for the cluster to cut it out — all on
//! real sockets via `rapid-transport`.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::{Duration, Instant};

use rapid::{AppEvent, Endpoint, Metadata, Runtime, Settings};

fn main() -> std::io::Result<()> {
    // Snappier timers than the defaults, fine for a LAN/loopback demo.
    let settings = Settings {
        tick_interval_ms: 20,
        fd_probe_interval_ms: 500,
        fd_probe_timeout_ms: 500,
        consensus_fallback_base_ms: 2_000,
        consensus_fallback_jitter_ms: 500,
        join_timeout_ms: 2_000,
        gossip_interval_ms: 100,
        ..Settings::default()
    };

    println!("starting seed...");
    // The runtime hands every event to a sink; a channel collects them.
    let (tx, events) = std::sync::mpsc::sync_channel(1024);
    let seed = Runtime::start_seed(Endpoint::new("127.0.0.1", 0), settings.clone(), move |ev| {
        drop(tx.try_send(ev))
    })?;
    println!("  seed listening on {}", seed.addr());

    let mut nodes = Vec::new();
    for i in 0..4 {
        let node = Runtime::start_joiner(
            Endpoint::new("127.0.0.1", 0),
            vec![*seed.addr()],
            settings.clone(),
            Metadata::with_entry("role", if i % 2 == 0 { "frontend" } else { "backend" }),
            |_| {},
        )?;
        println!("  started joiner {} on {}", i + 1, node.addr());
        nodes.push(node);
    }

    wait(|| seed.view().len() == 5, Duration::from_secs(30));
    println!("\ncluster formed: configuration {}", seed.view().id());
    for m in seed.view().members() {
        println!(
            "  member {} @ {} role={}",
            m.id,
            m.addr,
            m.metadata.get_str("role").unwrap_or("seed")
        );
    }

    // Kill one node without saying goodbye; the K-ring observers will
    // detect it and the cluster decides a 1-node cut by consensus.
    let victim = nodes.pop().unwrap();
    println!("\ncrash-killing {} ...", victim.addr());
    victim.shutdown_now();

    let t0 = Instant::now();
    wait(|| seed.view().len() == 4, Duration::from_secs(60));
    println!(
        "removed after {:.1}s; new configuration {} with {} members",
        t0.elapsed().as_secs_f64(),
        seed.view().id(),
        seed.view().len()
    );

    // Show the view-change events the application would consume.
    while let Ok(ev) = events.try_recv() {
        match ev {
            AppEvent::View(vc) => println!(
                "  view change: +{} -{} -> {} members",
                vc.joined.len(),
                vc.removed.len(),
                vc.configuration.len()
            ),
            AppEvent::Joined(c) => println!("  joined a {}-member cluster", c.len()),
            AppEvent::Kicked => println!("  kicked!"),
            AppEvent::App(from, payload) => {
                println!("  app payload from {from}: {} bytes", payload.len())
            }
        }
    }

    for n in nodes {
        n.leave();
    }
    seed.shutdown_now();
    println!("\ndone.");
    Ok(())
}

fn wait(mut pred: impl FnMut() -> bool, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline && !pred() {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(pred(), "timed out waiting for cluster state");
}
