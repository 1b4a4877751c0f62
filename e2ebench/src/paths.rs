//! The end-to-end run: every user path as a child process, in a closed
//! loop (one client; the next operation starts when the previous one has
//! finished), each artifact checked against the in-process reference.

use crate::check::{diff, ledger_problems, parse_report, Ledger, Reference};
use crate::gen::{Configs, Workload};
use crate::procs::{Daemon, Finished, Runner};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Cold daemons started per run, before the timed rounds; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 5;

/// Strict replays of each leased capture. Replay is short next to the
/// leased run that makes its capture, so it repeats to collect as many
/// samples as the other paths.
const REPLAYS: usize = 2;

/// Samples per end-to-end metric.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// The user paths a round visits.
#[derive(Debug, Clone, Copy)]
enum Step {
    Headline,
    Jsonl,
    Served,
    LeasedReplay,
    Store,
}

/// What a run of the paths shares.
pub struct Paths<'a> {
    /// How the campaign binaries run.
    pub runner: Runner<'a>,
    /// The workload.
    pub workload: Workload,
    /// Its generated configs.
    pub configs: &'a Configs,
    /// The artifacts every path must reproduce.
    pub reference: &'a Reference,
}

/// The `store <dir>: l2_hits=.. l2_misses=.. l2_rejects=..` counters `run`
/// reports on stderr.
fn l2_counters(stderr: &str) -> Option<(u64, u64, u64)> {
    let line = stderr.lines().find(|l| l.starts_with("store "))?;
    let field = |name: &str| -> Option<u64> {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(name))
            .and_then(|v| v.parse().ok())
    };
    Some((
        field("l2_hits=")?,
        field("l2_misses=")?,
        field("l2_rejects=")?,
    ))
}

/// Newlines in the file at `path`, streamed (the benchmark keeps its own
/// memory small; see [`Spawner`](crate::procs::Spawner)).
fn count_lines(path: &Path) -> std::io::Result<u64> {
    let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut lines = 0;
    loop {
        let buf = std::io::BufRead::fill_buf(&mut reader)?;
        if buf.is_empty() {
            return Ok(lines);
        }
        lines += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        let n = buf.len();
        std::io::BufRead::consume(&mut reader, n);
    }
}

impl Paths<'_> {
    /// The results CSV the study's `run`-style paths write.
    fn out_csv(&self) -> std::path::PathBuf {
        self.runner.out_csv(&self.configs.name)
    }

    /// Runs one child, recording a failure to launch it.
    fn child(&self, cmd: &Command, tag: &str, ledger: &mut Ledger) -> Option<Finished> {
        match self.runner.run(cmd, tag) {
            Ok(f) => Some(f),
            Err(e) => {
                ledger.op(tag, vec![format!("cannot run: {e}")]);
                None
            }
        }
    }

    /// Problems with a finished path's exit, summary line, and the results
    /// CSV at `csv` (removed afterwards, so the next path cannot pass on a
    /// stale file).
    fn artifact_problems(&self, f: &Finished, csv: &Path) -> Vec<String> {
        if !f.ok() {
            return vec![f.describe()];
        }
        let mut problems = Vec::new();
        match std::fs::read_to_string(csv) {
            Ok(text) => problems.extend(diff("results CSV", &text, &self.reference.csv)),
            Err(e) => problems.push(format!("no results CSV at {}: {e}", csv.display())),
        }
        let _ = std::fs::remove_file(csv);
        let summary = f.stdout.lines().last().unwrap_or("");
        if summary != self.reference.summary {
            problems.push(format!(
                "summary line `{summary}`, expected `{}`",
                self.reference.summary
            ));
        }
        problems
    }

    /// Spawns a cold daemon and runs its first session: one `setup_s`
    /// sample. Returns the daemon, warm.
    fn setup_once(&self, k: usize, ledger: &mut Ledger, samples: &mut Samples) -> Option<Daemon> {
        let tag = format!("setup {k}");
        let start = Instant::now();
        let mut serve = self.runner.command("nvmx-serve");
        serve.args([
            "--listen",
            &format!("unix:serve-{k}.sock"),
            "--workers",
            "2",
            "--lanes",
            "1",
        ]);
        let log = self.runner.tmp.join(format!("serve-{k}.stderr"));
        let daemon = match Daemon::spawn(&mut serve, &log) {
            Ok(d) => d,
            Err(e) => {
                ledger.op(&tag, vec![format!("nvmx-serve did not start: {e}")]);
                return None;
            }
        };
        let mut client = self.runner.command("run");
        client
            .args(["--connect", &daemon.endpoint])
            .arg(&self.configs.base);
        let f = self.child(&client, &tag, ledger)?;
        let elapsed = start.elapsed();
        let problems = self.artifact_problems(&f, &self.out_csv());
        if problems.is_empty() {
            samples
                .entry("setup_s")
                .or_default()
                .push(elapsed.as_secs_f64());
        }
        ledger.op(&tag, problems);
        Some(daemon)
    }

    /// Times one path, checks it with `check`, and records the sample
    /// under `metric` when it passed.
    fn timed(
        &self,
        metric: &'static str,
        tag: &str,
        cmd: &Command,
        ledger: &mut Ledger,
        samples: &mut Samples,
        check: impl FnOnce(&Finished) -> Vec<String>,
    ) -> Option<Finished> {
        let f = self.child(cmd, tag, ledger)?;
        let problems = check(&f);
        if problems.is_empty() {
            samples
                .entry(metric)
                .or_default()
                .push(f.wall.as_secs_f64());
        }
        ledger.op(tag, problems);
        Some(f)
    }

    /// `run_s` and `peak_rss_mb`: `run`, or `all` for the paper suite.
    fn headline(&self, tag: &str, ledger: &mut Ledger, samples: &mut Samples) {
        let f = if self.workload == Workload::PaperSuite {
            let all = self.runner.command("all");
            self.timed("run_s", &format!("{tag} all"), &all, ledger, samples, |f| {
                if f.ok() {
                    ledger_problems(parse_report(&f.stdout))
                } else {
                    vec![f.describe()]
                }
            })
        } else {
            let mut run = self.runner.command("run");
            run.arg(&self.configs.base);
            self.timed("run_s", &format!("{tag} run"), &run, ledger, samples, |f| {
                self.artifact_problems(f, &self.out_csv())
            })
        };
        if let Some(f) = f.filter(Finished::ok) {
            samples
                .entry("peak_rss_mb")
                .or_default()
                .push(f.maxrss_kib as f64 * 1024.0 / 1e6);
        }
    }

    /// `run_jsonl_s`: `run` with an `output.jsonl` sink.
    fn jsonl(&self, tag: &str, ledger: &mut Ledger, samples: &mut Samples) {
        let mut jsonl = self.runner.command("run");
        jsonl.arg(&self.configs.jsonl);
        let events = &self.configs.jsonl_out;
        self.timed(
            "run_jsonl_s",
            &format!("{tag} run_jsonl"),
            &jsonl,
            ledger,
            samples,
            |f| {
                let mut problems = self.artifact_problems(f, &self.out_csv());
                match count_lines(events) {
                    Ok(lines) if lines == self.reference.counts.frames => {}
                    Ok(lines) => problems.push(format!(
                        "JSONL sink wrote {lines} events, expected {}",
                        self.reference.counts.frames
                    )),
                    Err(e) => problems.push(format!("no JSONL output: {e}")),
                }
                let _ = std::fs::remove_file(events);
                problems
            },
        );
    }

    /// `served_s`: `run --connect` to the warm daemon.
    fn served(&self, tag: &str, daemon: &Daemon, ledger: &mut Ledger, samples: &mut Samples) {
        let mut served = self.runner.command("run");
        served
            .args(["--connect", &daemon.endpoint])
            .arg(&self.configs.base);
        self.timed(
            "served_s",
            &format!("{tag} served"),
            &served,
            ledger,
            samples,
            |f| self.artifact_problems(f, &self.out_csv()),
        );
    }

    /// `leased_s` and `capture_mb`, then `replay_s` over that capture.
    fn leased_and_replay(&self, tag: &str, ledger: &mut Ledger, samples: &mut Samples) {
        let base = &self.configs.base;
        let capture_dir = self.runner.tmp.join("capture");
        let capture = capture_dir.join(format!("{}.jsonl", self.configs.name));
        let leased = self.runner.leased(base, &capture_dir);
        let mut capture_bytes = None;
        self.timed(
            "leased_s",
            &format!("{tag} leased"),
            &leased,
            ledger,
            samples,
            |f| {
                if !f.ok() {
                    return vec![f.describe()];
                }
                let mut problems = Vec::new();
                let summary = f.stdout.lines().last().unwrap_or("");
                if summary != self.reference.summary {
                    problems.push(format!(
                        "summary line `{summary}`, expected `{}`",
                        self.reference.summary
                    ));
                }
                match std::fs::metadata(&capture) {
                    Ok(meta) => capture_bytes = Some(meta.len()),
                    Err(e) => problems.push(format!("no capture: {e}")),
                }
                problems
            },
        );

        // Only a capture the coordinator finished cleanly is measured and
        // replayed.
        if let Some(bytes) = capture_bytes {
            samples
                .entry("capture_mb")
                .or_default()
                .push(bytes as f64 / 1e6);
            // Strict replay of the capture, re-rendering the results CSV.
            let replay_csv = self.runner.tmp.join("out").join("replay.csv");
            let mut replay = self.runner.command("nvmx-coordinator");
            replay
                .args(["replay", "--input"])
                .arg(&capture)
                .arg("--config")
                .arg(base)
                .arg("--csv")
                .arg(&replay_csv);
            for k in 0..REPLAYS {
                self.timed(
                    "replay_s",
                    &format!("{tag} replay {k}"),
                    &replay,
                    ledger,
                    samples,
                    |f| self.artifact_problems(f, &replay_csv),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&capture_dir);
    }

    /// `store_cold_s` over an empty store, then `store_warm_s` over what
    /// it published.
    fn store(&self, tag: &str, ledger: &mut Ledger, samples: &mut Samples) {
        let store = self.runner.tmp.join("store");
        for (metric, phase) in [("store_cold_s", "cold"), ("store_warm_s", "warm")] {
            let mut run = self.runner.command("run");
            run.arg(&self.configs.base).arg("--store").arg(&store);
            self.timed(metric, &format!("{tag} store_{phase}"), &run, ledger, samples, |f| {
                let mut problems = self.artifact_problems(f, &self.out_csv());
                if !f.ok() {
                    return problems;
                }
                match (phase, l2_counters(&f.stderr)) {
                    (_, None) => problems.push("no store counters on stderr".to_owned()),
                    ("cold", Some((hits, misses, _))) if hits != 0 || misses == 0 => {
                        problems.push(format!("empty store served {hits} hits, {misses} misses"));
                    }
                    ("warm", Some((hits, misses, rejects))) if misses + rejects != 0 || hits == 0 => {
                        problems.push(format!(
                            "warm l2_hit_rate below 1.0: {hits} hits, {misses} misses, {rejects} rejects"
                        ));
                    }
                    _ => {}
                }
                problems
            });
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    /// One closed-loop round over every path. Each path repeats so that
    /// it collects a similar number of samples per round: the short `run`
    /// and store paths three times, JSONL and `served_s` (whose client and
    /// server are two processes that each catch host noise) twice; on the
    /// paper suite every path but `all` is short.
    /// Past the first round, which gives every metric a sample, the round
    /// stops at `deadline` between paths instead of running to its end.
    fn round(
        &self,
        r: usize,
        deadline: Instant,
        daemon: &Daemon,
        ledger: &mut Ledger,
        samples: &mut Samples,
    ) {
        let paper = self.workload == Workload::PaperSuite;
        let [headline, jsonl, served, leased, store] = if paper {
            [1, 2, 2, 2, 2]
        } else {
            [3, 2, 2, 1, 3]
        };
        let steps = std::iter::repeat_n(Step::Headline, headline)
            .chain(std::iter::repeat_n(Step::Jsonl, jsonl))
            .chain(std::iter::repeat_n(Step::Served, served))
            .chain(std::iter::repeat_n(Step::LeasedReplay, leased))
            .chain(std::iter::repeat_n(Step::Store, store));
        for (k, step) in steps.enumerate() {
            if r > 0 && Instant::now() >= deadline {
                return;
            }
            let tag = format!("round {r}.{k}");
            match step {
                Step::Headline => self.headline(&tag, ledger, samples),
                Step::Jsonl => self.jsonl(&tag, ledger, samples),
                Step::Served => self.served(&tag, daemon, ledger, samples),
                Step::LeasedReplay => self.leased_and_replay(&tag, ledger, samples),
                Step::Store => self.store(&tag, ledger, samples),
            }
        }
    }

    /// Sets up the daemon, then runs rounds until `seconds` have passed
    /// (at least one round).
    pub fn measure(&self, seconds: u64, ledger: &mut Ledger) -> Samples {
        let mut samples = Samples::new();
        let _ = std::fs::create_dir_all(self.runner.tmp.join("out"));
        let mut warm = None;
        for k in 0..SETUP_REPS {
            // Stop the previous daemon first: only the last one stays.
            drop(warm.take());
            warm = self.setup_once(k, ledger, &mut samples);
        }
        let Some(daemon) = warm else {
            return samples;
        };
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut r = 0;
        while r == 0 || Instant::now() < deadline {
            self.round(r, deadline, &daemon, ledger, &mut samples);
            r += 1;
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counters_parse_from_run_stderr() {
        let stderr = "skipped x: y\nstore /tmp/s: l2_hits=12 l2_misses=0 l2_rejects=1\n";
        assert_eq!(l2_counters(stderr), Some((12, 0, 1)));
        assert_eq!(l2_counters("nothing"), None);
    }
}
