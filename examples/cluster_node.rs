//! A standalone Rapid cluster agent — run one per terminal to form a real
//! cluster, like the stand-alone agents of the paper's evaluation.
//!
//! ```text
//! # First node (seed):
//! cargo run --release --example cluster_node -- --listen 127.0.0.1:5001
//! # More nodes:
//! cargo run --release --example cluster_node -- \
//!     --listen 127.0.0.1:5002 --join 127.0.0.1:5001 --role backend
//! ```
//!
//! Each agent prints every view change; Ctrl-C a node and watch the
//! others cut it from the membership.

use std::time::Duration;

use rapid::{AppEvent, Endpoint, Metadata, Runtime, Settings};

fn usage() -> ! {
    eprintln!(
        "usage: cluster_node --listen HOST:PORT [--join HOST:PORT]... [--role NAME]"
    );
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let mut listen: Option<Endpoint> = None;
    let mut seeds: Vec<Endpoint> = Vec::new();
    let mut role = String::from("node");
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => {
                i += 1;
                listen = Some(
                    Endpoint::parse(argv.get(i).unwrap_or_else(|| usage()))
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--join" => {
                i += 1;
                seeds.push(
                    Endpoint::parse(argv.get(i).unwrap_or_else(|| usage()))
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--role" => {
                i += 1;
                role = argv.get(i).unwrap_or_else(|| usage()).clone();
            }
            _ => usage(),
        }
        i += 1;
    }
    let listen = listen.unwrap_or_else(|| usage());

    let settings = Settings {
        tick_interval_ms: 50,
        ..Settings::default()
    };
    // The runtime hands every event to a sink; a channel collects them.
    let (tx, events) = std::sync::mpsc::sync_channel(1024);
    let sink = move |ev| drop(tx.try_send(ev));
    let node = if seeds.is_empty() {
        println!("starting SEED node on {listen}");
        Runtime::start_seed(listen, settings, sink)?
    } else {
        println!("joining via {seeds:?} from {listen}");
        let role = Metadata::with_entry("role", &role);
        Runtime::start_joiner(listen, seeds, settings, role, sink)?
    };
    println!("node id: {}", node.member().id);

    loop {
        match events.recv_timeout(Duration::from_secs(5)) {
            Ok(AppEvent::Joined(cfg)) => {
                println!("JOINED configuration {} ({} members)", cfg.id(), cfg.len());
            }
            Ok(AppEvent::View(vc)) => {
                println!(
                    "VIEW CHANGE -> {} ({} members; +{} joined, -{} removed)",
                    vc.configuration.id(),
                    vc.configuration.len(),
                    vc.joined.len(),
                    vc.removed.len()
                );
                for m in vc.configuration.members() {
                    println!(
                        "    {} @ {} [{}]",
                        m.id,
                        m.addr,
                        m.metadata.get_str("role").unwrap_or("seed")
                    );
                }
            }
            Ok(AppEvent::Kicked) => {
                println!("KICKED from the membership; exiting (rejoin with a fresh id)");
                std::process::exit(1);
            }
            Ok(AppEvent::App(from, payload)) => {
                println!("app payload from {from}: {} bytes", payload.len());
            }
            Err(_) => {
                println!(
                    "... {} members in view {}",
                    node.view().len(),
                    node.view().id()
                );
            }
        }
    }
}
