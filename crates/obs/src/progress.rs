//! Live campaign progress: the sink interface streaming campaigns feed
//! and a ready-made one-line stderr reporter.
//!
//! `Campaign::run_streaming_with` (netdsl-netsim) calls
//! [`ProgressSink::progress`] from its worker threads after every
//! finished chunk and once more after the final merge, handing a
//! [`ProgressUpdate`]. Sinks must be cheap and `Sync`; the campaign
//! never blocks on them beyond what the sink itself does.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One progress report from a streaming campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressUpdate {
    /// Chunks fully executed so far.
    pub chunks_done: usize,
    /// Total chunks in the run.
    pub chunks_total: usize,
    /// Scenarios executed so far.
    pub scenarios_done: usize,
    /// Total scenarios in the run.
    pub scenarios_total: usize,
    /// Aggregate execution rate since the run started, in scenarios
    /// per second.
    pub scenarios_per_sec: f64,
    /// Raw-sample reservoir occupancy. During the run this is the
    /// merge-bound estimate `min(scenarios_done, raw_cap)`; the final
    /// update (after the sequential merge) carries the exact count.
    pub reservoir: usize,
    /// Raw-sample reservoir capacity (`StreamOptions::raw_cap`).
    pub raw_cap: usize,
    /// Scenarios executed by each worker shard so far (index =
    /// worker).
    pub shard_scenarios: Vec<u64>,
    /// `true` on the one post-merge update that closes the run.
    pub done: bool,
}

impl ProgressUpdate {
    /// Completed fraction in percent.
    pub fn percent(&self) -> f64 {
        if self.scenarios_total == 0 {
            100.0
        } else {
            self.scenarios_done as f64 * 100.0 / self.scenarios_total as f64
        }
    }

    /// The lightest- and heaviest-loaded worker shards as
    /// `(min, max)` scenario counts (0, 0 when no worker reported
    /// yet).
    pub fn shard_spread(&self) -> (u64, u64) {
        match (
            self.shard_scenarios.iter().min(),
            self.shard_scenarios.iter().max(),
        ) {
            (Some(&min), Some(&max)) => (min, max),
            _ => (0, 0),
        }
    }

    /// Formats the canonical one-line summary [`LogProgress`] prints.
    pub fn one_line(&self) -> String {
        let (min, max) = self.shard_spread();
        format!(
            "{}/{} chunks · {}/{} scenarios ({:.1}%) · {:.0} scenarios/s · reservoir {}/{} · shards {} ({min}..{max})",
            self.chunks_done,
            self.chunks_total,
            self.scenarios_done,
            self.scenarios_total,
            self.percent(),
            self.scenarios_per_sec,
            self.reservoir,
            self.raw_cap,
            self.shard_scenarios.len(),
        )
    }
}

/// Receives progress updates from a streaming campaign. Implementations
/// are called concurrently from worker threads.
pub trait ProgressSink: Sync {
    /// One update; called after every finished chunk and after the
    /// final merge (`update.done`).
    fn progress(&self, update: &ProgressUpdate);
}

/// Prints a throttled one-line progress log to stderr — the reporter
/// the E15 million-session streaming smoke installs so the long run is
/// no longer silent.
#[derive(Debug)]
pub struct LogProgress {
    label: String,
    min_interval: Duration,
    last: Mutex<Option<Instant>>,
}

impl LogProgress {
    /// A logger tagged `label`, printing at most once per second (plus
    /// the final update).
    pub fn new(label: impl Into<String>) -> Self {
        LogProgress::with_interval(label, Duration::from_secs(1))
    }

    /// A logger with an explicit minimum interval between lines.
    pub fn with_interval(label: impl Into<String>, min_interval: Duration) -> Self {
        LogProgress {
            label: label.into(),
            min_interval,
            last: Mutex::new(None),
        }
    }
}

impl ProgressSink for LogProgress {
    fn progress(&self, update: &ProgressUpdate) {
        let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let due = update.done || last.is_none_or(|t| now.duration_since(t) >= self.min_interval);
        if !due {
            return;
        }
        *last = Some(now);
        drop(last);
        eprintln!("[{}] {}", self.label, update.one_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(done: bool) -> ProgressUpdate {
        ProgressUpdate {
            chunks_done: 2,
            chunks_total: 8,
            scenarios_done: 1024,
            scenarios_total: 4096,
            scenarios_per_sec: 2048.0,
            reservoir: 512,
            raw_cap: 512,
            shard_scenarios: vec![512, 512],
            done,
        }
    }

    #[test]
    fn one_line_carries_the_load_bearing_numbers() {
        let line = update(false).one_line();
        assert!(line.contains("2/8 chunks"), "{line}");
        assert!(line.contains("1024/4096 scenarios (25.0%)"), "{line}");
        assert!(line.contains("2048 scenarios/s"), "{line}");
        assert!(line.contains("reservoir 512/512"), "{line}");
        assert!(line.contains("shards 2 (512..512)"), "{line}");
    }

    #[test]
    fn empty_run_is_one_hundred_percent() {
        let mut u = update(true);
        u.scenarios_total = 0;
        u.scenarios_done = 0;
        u.shard_scenarios.clear();
        assert_eq!(u.percent(), 100.0);
        assert_eq!(u.shard_spread(), (0, 0));
    }

    #[test]
    fn throttling_suppresses_rapid_updates_but_not_the_final_one() {
        // The throttle state advances only when a line is emitted, so
        // the lock contents tell us which updates printed.
        let log = LogProgress::with_interval("test", Duration::from_secs(3600));
        log.progress(&update(false));
        let first = *log.last.lock().unwrap();
        assert!(first.is_some(), "first update prints");
        log.progress(&update(false));
        assert_eq!(
            *log.last.lock().unwrap(),
            first,
            "second update inside the interval is suppressed"
        );
        std::thread::sleep(Duration::from_millis(5));
        log.progress(&update(true));
        assert_ne!(
            *log.last.lock().unwrap(),
            first,
            "final update always prints"
        );
    }
}
