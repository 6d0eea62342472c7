//! The metric catalogue and the result line.

use crate::stats;

/// Every end-to-end metric, printed by every untraced run, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("op_ok_share", "share"),
    ("cpu_us_per_op", "us"),
];

/// Every per-layer metric, printed by every traced run, with its unit. A
/// layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_p999_ms", "ms"),
    ("engine.events", "count"),
    ("engine.self_ms", "ms"),
    ("engine.ns_per_event", "ns"),
    ("net.msgs", "count"),
    ("net.bytes", "B"),
    ("wire.size.calls", "count"),
    ("wire.size.ms", "ms"),
    ("node.join.calls", "count"),
    ("node.join.ms", "ms"),
    ("node.fd.calls", "count"),
    ("node.fd.ms", "ms"),
    ("node.tick.calls", "count"),
    ("node.tick.ms", "ms"),
    ("node.alerts.calls", "count"),
    ("node.alerts.ms", "ms"),
    ("node.alerts_applied", "count"),
    ("node.consensus.ms", "ms"),
    ("node.sync.ms", "ms"),
    ("node.fast_decisions", "count"),
    ("node.classic_decisions", "count"),
    ("view_changes", "count"),
    ("boot_virtual_s", "s"),
    ("cut_virtual_s", "s"),
    ("boot_wall_s", "s"),
    ("steady_wall_s", "s"),
    ("cut_wall_s", "s"),
    ("client.msgs_per_op", "count"),
    ("client.frames_per_op", "count"),
    ("client.retries", "count"),
    ("client.shed", "count"),
    ("client.submit.ns_per_op", "ns"),
    ("kv.coord.ns_per_call", "ns"),
    ("kv.replicate.ns_per_call", "ns"),
    ("kv.repair.ns_per_call", "ns"),
    ("kv.tick.ns_per_call", "ns"),
    ("kv.digest.ns_per_call", "ns"),
    ("kv.digest.share", "share"),
    ("kv.msgs_per_op", "count"),
    ("kv.frames_per_op", "count"),
    ("kv.repair_bytes", "B"),
    ("kvcodec.encode.ns_per_frame", "ns"),
    ("kvcodec.decode.ns_per_frame", "ns"),
    ("kvcodec.bytes_per_op", "B"),
    ("sansio.us_per_op", "us"),
    ("host.us_per_op", "us"),
    ("host.inbox_depth_max", "count"),
    ("proc.cpu_util", "cores"),
    ("proc.threads", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Metrics in the order recorded: `(name, value, unit, samples)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str, usize)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `name`, read from `samples` samples.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        assert!(value.is_finite(), "{name} = {value}");
        self.0.push((name.to_string(), value, unit, samples));
    }

    /// Records a counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count", 1);
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup(&mut self, setups_s: &[f64]) {
        self.put("setup_s", stats::median(setups_s), "s", setups_s.len());
    }

    /// Latency percentiles `(name, q)` of `ms`, per op in arrival order,
    /// each read in slices of `slice(q)` ops (see
    /// [`stats::slice_percentile`]).
    pub fn latency(&mut self, ms: &[f64], quantiles: &[(&str, f64)], slice: impl Fn(f64) -> usize) {
        for &(name, q) in quantiles {
            let p = stats::slice_percentile(ms, slice(q), q);
            self.put(name, p.value, "ms", ms.len());
            eprintln!(
                "{name}: median of {} slice(s) of {} ops, >= {} beyond in each",
                ms.len() / p.n.max(1),
                p.n,
                p.beyond
            );
        }
    }
}

/// The result of one benchmark run.
pub struct Outcome {
    /// The first failed output check.
    pub error: Option<String>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed, timed out or were refused.
    pub failed: usize,
    pub metrics: Metrics,
}

fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The catalogue's metrics in catalogue order: recorded values, and 0
    /// for a per-layer metric the workload bypasses. Panics on a recorded
    /// metric the catalogue lacks, or a missing end-to-end metric.
    fn catalogued(
        &self,
        catalogue: &[(&str, &str)],
        zero_fill: bool,
    ) -> Vec<(String, f64, String, usize)> {
        for (name, ..) in &self.metrics.0 {
            assert!(
                catalogue.iter().any(|c| c.0 == name),
                "metric {name} is not catalogued"
            );
        }
        catalogue
            .iter()
            .map(
                |&(name, unit)| match self.metrics.0.iter().find(|m| m.0 == name) {
                    Some(m) => {
                        assert_eq!(m.2, unit, "unit of {name}");
                        (name.to_string(), m.1, unit.to_string(), m.3)
                    }
                    None => {
                        assert!(zero_fill, "end-to-end metric {name} was not measured");
                        (name.to_string(), 0.0, unit.to_string(), 0)
                    }
                },
            )
            .collect()
    }

    /// The human-readable table (to stderr) and the result line (the
    /// last line of stdout).
    pub fn print(&self, traced: bool) {
        let rows = if traced {
            self.catalogued(PER_LAYER, true)
        } else {
            self.catalogued(END_TO_END, false)
        };
        for (name, value, unit, n) in &rows {
            eprintln!("{name:<28} {value:>16.4} {unit:<6} n={n}");
        }
        if let Some(e) = &self.error {
            eprintln!("OUTPUT CHECK FAILED: {e}");
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.error.is_none(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json lists the same metrics, with the same units, as
    /// this catalogue.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("value") + 1;
                        let close = open + rest[open..].find('"').expect("value end");
                        rest[open..close].to_string()
                    };
                    let name = {
                        let open = entry.find('"').expect("name") + 1;
                        let close = open + entry[open..].find('"').expect("name end");
                        entry[open..close].to_string()
                    };
                    (name, field("unit"))
                })
                .collect()
        };
        let want = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(END_TO_END));
        assert_eq!(section("per_layer"), want(PER_LAYER));
    }

    #[test]
    fn result_line_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
