//! Shared plumbing for the experiment binaries.
//!
//! Two sets, one output format each. The paper set (`fig*`, `table*`,
//! `ablation_sched`, `ablation_affinity`) regenerates one figure or
//! table of the paper's evaluation per binary: it prints the paper's
//! reported values next to ours and writes a CSV under `results/`
//! ([`Report`]). `bench_suite` is the one binary that drives live
//! daemons and engines, and the one writer of the `BENCH_*.json`
//! files at the repo root ([`json`]): every row there is the median
//! of turns taken in rotation with the rows it is compared with (or a
//! pooled latency distribution), stated with its `n`, and every gate
//! is one `check_<family>` function over a document.

use std::path::PathBuf;

pub mod json;

pub use simcore::metrics::{CsvTable, Summary};

/// Where experiment CSVs land (`results/` at the workspace root).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("NORNS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&path);
    path
}

/// Scale factor for long benchmarks: set `NORNS_QUICK=1` to shrink
/// request counts / repetitions during development.
pub fn quick_mode() -> bool {
    std::env::var("NORNS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Repetition count honoring quick mode.
pub fn reps(full: usize) -> usize {
    if quick_mode() {
        (full / 5).max(2)
    } else {
        full
    }
}

/// An experiment report: banner, notes, aligned table, CSV output.
pub struct Report {
    pub id: &'static str,
    pub title: &'static str,
    pub table: CsvTable,
    notes: Vec<String>,
}

impl Report {
    pub fn new<S: Into<String>>(
        id: &'static str,
        title: &'static str,
        columns: impl IntoIterator<Item = S>,
    ) -> Self {
        Report {
            id,
            title,
            table: CsvTable::new(columns),
            notes: Vec::new(),
        }
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.table.row(cells);
    }

    /// Print the report and write `results/<id>.csv`.
    pub fn finish(self) {
        println!("================================================================");
        println!("{} — {}", self.id, self.title);
        println!("================================================================");
        // The tables we build never embed commas in cells, so a plain
        // split recovers them for display.
        let csv = self.table.to_csv();
        let rows: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
        print_aligned(&rows);
        for note in &self.notes {
            println!("  note: {note}");
        }
        let path = results_dir().join(format!("{}.csv", self.id));
        match self.table.write_to(&path) {
            Ok(()) => println!("  csv: {}", path.display()),
            Err(e) => println!("  csv write failed: {e}"),
        }
        println!();
    }
}

/// Print `rows` (the first one is the header) as an aligned,
/// two-space-indented table with a rule under the header.
pub fn print_aligned<S: AsRef<str>>(rows: &[Vec<S>]) {
    let Some(header) = rows.first() else {
        return;
    };
    let mut widths = vec![0usize; header.len()];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.as_ref().chars().count());
        }
    }
    for (ri, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c.as_ref(), w = widths[i]))
            .collect();
        println!("  {}", line.join("  "));
        if ri == 0 {
            let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            println!("  {}", rule.join("  "));
        }
    }
}

/// Format bytes/s as MB/s (decimal, as IOR and the paper's figures do).
pub fn mbps(bytes_per_sec: f64) -> String {
    format!("{:.0}", bytes_per_sec / 1e6)
}

/// Format bytes/s as GiB/s.
pub fn gibps(bytes_per_sec: f64) -> String {
    format!("{:.2}", bytes_per_sec / (1u64 << 30) as f64)
}

/// Drivers shared by the Fig. 5/6/7 experiment binaries.
pub mod drivers {
    use norns::sim::ops;
    use norns::{ApiSource, JobId, JobSpec, ResourceRef, RpcRequest, TaskSpec};
    use simcore::{Sim, SimTime};
    use simstore::{Cred, Mode};
    use workloads::{register_tiers, BenchWorld};

    pub const MIB16: u64 = 16 << 20;

    fn bench_world(clients: usize, seed: u64) -> Sim<BenchWorld> {
        let tb = cluster::bandwidth_bench(clients);
        let mut sim = Sim::new(BenchWorld::new(tb.world), seed);
        register_tiers(&mut sim);
        let nodes: Vec<usize> = (0..clients + 1).collect();
        ops::register_job(
            &mut sim,
            JobSpec {
                id: JobId(1),
                hosts: nodes,
                limits: vec![("pmdk0".into(), 0)],
                cred: Cred::new(1000, 1000),
            },
        )
        .unwrap();
        sim
    }

    /// Fig. 5: `clients` nodes send `per_client` control requests to
    /// the single target urd (node 0), keeping `window` RPCs in
    /// flight. Returns (throughput req/s, mean latency µs).
    pub fn request_rate(clients: usize, window: usize, per_client: usize, seed: u64) -> (f64, f64) {
        let mut sim = bench_world(clients, seed);
        let total = clients * per_client;
        let mut sent = vec![0usize; clients + 1];
        let mut send_time = std::collections::HashMap::new();
        let token_of = |client: usize, seq: usize| ((client as u64) << 32) | seq as u64;
        #[allow(clippy::needless_range_loop)]
        for c in 1..=clients {
            for _ in 0..window.min(per_client) {
                let tok = token_of(c, sent[c]);
                send_time.insert(tok, sim.now());
                ops::rpc_call(&mut sim, c, 0, RpcRequest::Ping, tok);
                sent[c] += 1;
            }
        }
        let mut latency_sum = 0.0f64;
        let mut seen = 0usize;
        let mut cursor = 0usize;
        let mut last = SimTime::ZERO;
        while seen < total {
            assert!(sim.step(), "sim drained early ({seen}/{total})");
            while cursor < sim.model.reply_times.len() {
                let (tok, at) = sim.model.reply_times[cursor];
                cursor += 1;
                seen += 1;
                last = last.max(at);
                let sent_at = send_time.remove(&tok).expect("reply for unknown token");
                latency_sum += (at - sent_at).as_micros_f64();
                let client = (tok >> 32) as usize;
                if sent[client] < per_client {
                    let tok = token_of(client, sent[client]);
                    send_time.insert(tok, at);
                    // Replies arrive inside step(); scheduling from the
                    // driver at the current instant is fine.
                    ops::rpc_call(&mut sim, client, 0, RpcRequest::Ping, tok);
                    sent[client] += 1;
                }
            }
        }
        let secs = last.as_secs_f64().max(1e-9);
        (total as f64 / secs, latency_sum / total as f64)
    }

    /// Transfer direction for the bandwidth benchmarks.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum XferDir {
        /// Fig. 6: clients read (pull) 16 MiB buffers from the target.
        Read,
        /// Fig. 7: clients write (push) 16 MiB buffers to the target.
        Write,
    }

    /// Fig. 6/7: aggregated bandwidth from `clients` nodes moving 16
    /// MiB buffers against the single target (node 0) with `window`
    /// RPCs in flight each. Returns bytes/second.
    pub fn transfer_rate(
        clients: usize,
        window: usize,
        tasks_per_client: usize,
        dir: XferDir,
        seed: u64,
    ) -> f64 {
        let mut sim = bench_world(clients, seed);
        let cred = Cred::new(1000, 1000);
        // Source buffers.
        {
            let world = &mut sim.model.world;
            let t = world.storage.resolve("pmdk0").unwrap();
            match dir {
                XferDir::Read => {
                    world
                        .storage
                        .ns_mut(t, Some(0))
                        .write_file("buf", MIB16, &cred, Mode(0o644))
                        .unwrap();
                }
                XferDir::Write => {
                    for c in 1..=clients {
                        world
                            .storage
                            .ns_mut(t, Some(c))
                            .write_file("buf", MIB16, &cred, Mode(0o644))
                            .unwrap();
                    }
                }
            }
        }
        let spec_for = |client: usize, slot: usize| -> TaskSpec {
            match dir {
                XferDir::Read => TaskSpec::copy(
                    ResourceRef::remote(0, "pmdk0", "buf"),
                    ResourceRef::local("pmdk0", format!("in/slot{slot}")),
                ),
                XferDir::Write => TaskSpec::copy(
                    ResourceRef::local("pmdk0", "buf"),
                    ResourceRef::remote(0, "pmdk0", format!("out/c{client}_s{slot}")),
                ),
            }
        };
        let mut submitted = vec![0usize; clients + 1];
        #[allow(clippy::needless_range_loop)]
        for c in 1..=clients {
            for w in 0..window.min(tasks_per_client) {
                ops::submit_task(
                    &mut sim,
                    c,
                    JobId(1),
                    ApiSource::Control,
                    spec_for(c, w % window),
                    c as u64,
                )
                .unwrap();
                submitted[c] += 1;
            }
        }
        let total = clients * tasks_per_client;
        let mut done = 0usize;
        let mut cursor = 0usize;
        let mut last = SimTime::ZERO;
        while done < total {
            assert!(sim.step(), "sim drained early ({done}/{total})");
            while cursor < sim.model.completions.len() {
                let c = sim.model.completions[cursor].clone();
                cursor += 1;
                done += 1;
                assert!(c.error.is_none(), "transfer failed: {:?}", c.error);
                last = last.max(c.stats.finished.unwrap());
                let client = c.tag as usize;
                if submitted[client] < tasks_per_client {
                    let slot = submitted[client] % window;
                    ops::submit_task(
                        &mut sim,
                        client,
                        JobId(1),
                        ApiSource::Control,
                        spec_for(client, slot),
                        client as u64,
                    )
                    .unwrap();
                    submitted[client] += 1;
                }
            }
        }
        let bytes = (total as u64 * MIB16) as f64;
        bytes / last.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writes_csv() {
        std::env::set_var(
            "NORNS_RESULTS_DIR",
            std::env::temp_dir()
                .join("norns-bench-test")
                .to_str()
                .unwrap(),
        );
        let mut r = Report::new("test_report", "smoke", ["a", "b"]);
        r.row(["1", "2"]);
        r.note("hello");
        r.finish();
        let path = results_dir().join("test_report.csv");
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mbps(1e9), "1000");
        assert_eq!(gibps((1u64 << 30) as f64 * 1.5), "1.50");
    }
}
