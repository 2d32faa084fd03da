//! Live CEGAR progress telemetry.
//!
//! [`CegarSolver`](crate::CegarSolver) emits one [`ProgressSnapshot`]
//! per CEGAR round (at the round barrier, before the frontier is
//! checked) through whatever [`ProgressReporter`] the caller put
//! in [`SolverConfig::progress`](crate::SolverConfig). This is the
//! introspection surface a portfolio canceller or the future serve
//! daemon polls: is the frontier shrinking, are the sample stores
//! growing, is the wall-clock budget draining — without parsing traces.
//!
//! Snapshots split into two field groups:
//!
//! * **trajectory fields** (round, frontier, samples, seeds, learned
//!   DB…) — functions of the refinement trajectory, therefore
//!   identical from run to run;
//! * **timing fields** (cumulative per-phase micros, budget remaining)
//!   — wall-clock readings, excluded from determinism comparisons
//!   ([`ProgressSnapshot::TIMING_FIELDS`]).
//!
//! Reporters are cheap `Arc` handles; the solver pays nothing when
//! `SolverConfig::progress` is `None`.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// One per-round reading of the CEGAR loop's live state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// CEGAR round number, 1-based.
    pub round: u64,
    /// Refinement iterations completed before this round.
    pub iterations: usize,
    /// Dirty-clause frontier size entering this round.
    pub frontier: usize,
    /// Total samples across all predicate datasets.
    pub samples: usize,
    /// Positive samples across all predicate datasets.
    pub positive_samples: usize,
    /// Predicates with a non-trivial interpretation.
    pub interp_preds: usize,
    /// Alive learned clauses across all persistent oracle contexts.
    pub learned_db_size: u64,
    /// Seed planes ever added to the seed store.
    pub seeds_added: usize,
    /// Sum of per-predicate seed-store versions (bumps on every
    /// addition — a cheap staleness cursor).
    pub seed_version_sum: u64,
    /// Cumulative oracle-phase micros so far. Timing field.
    pub oracle_us: u64,
    /// Cumulative resolve-phase micros so far (sample extraction +
    /// learning + interpretation updates). Timing field.
    pub resolve_us: u64,
    /// Milliseconds left on the wall-clock budget, if one is set.
    /// Timing field.
    pub time_left_ms: Option<u64>,
}

impl ProgressSnapshot {
    /// JSON keys of the wall-clock-dependent fields — everything else
    /// is a pure function of the refinement trajectory. Determinism comparisons drop exactly these.
    pub const TIMING_FIELDS: [&'static str; 3] = ["oracle_us", "resolve_us", "time_left_ms"];

    /// The snapshot as one JSON object (one JSONL record).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"kind\":\"progress\",\"round\":{},\"iterations\":{},\"frontier\":{},\
             \"samples\":{},\"positive_samples\":{},\"interp_preds\":{},\
             \"learned_db_size\":{},\"seeds_added\":{},\"seed_version_sum\":{},\
             \"oracle_us\":{},\"resolve_us\":{}",
            self.round,
            self.iterations,
            self.frontier,
            self.samples,
            self.positive_samples,
            self.interp_preds,
            self.learned_db_size,
            self.seeds_added,
            self.seed_version_sum,
            self.oracle_us,
            self.resolve_us,
        );
        match self.time_left_ms {
            Some(ms) => {
                let _ = write!(s, ",\"time_left_ms\":{ms}");
            }
            None => s.push_str(",\"time_left_ms\":null"),
        }
        s.push('}');
        s
    }

    /// The snapshot as a one-line human ticker.
    pub fn ticker_line(&self) -> String {
        let mut s = format!(
            "[cegar] round {:>3}  iter {:>5}  frontier {:>3}  samples {} (+{})  \
             learned_db {}  seeds {}  oracle {:.2}s  resolve {:.2}s",
            self.round,
            self.iterations,
            self.frontier,
            self.samples,
            self.positive_samples,
            self.learned_db_size,
            self.seeds_added,
            self.oracle_us as f64 / 1e6,
            self.resolve_us as f64 / 1e6,
        );
        if let Some(ms) = self.time_left_ms {
            let _ = write!(s, "  budget {:.1}s", ms as f64 / 1e3);
        }
        s
    }
}

enum ProgressOut {
    /// Human ticker on stderr.
    Stderr,
    /// One JSON object per snapshot to an arbitrary writer.
    Jsonl(Box<dyn Write + Send>),
    /// In-memory capture of the JSONL records (tests, embedding).
    Collect(Vec<String>),
}

/// A cheap, cloneable handle the CEGAR loop pushes one
/// [`ProgressSnapshot`] per round into. See the module docs.
#[derive(Clone)]
pub struct ProgressReporter {
    out: Arc<Mutex<ProgressOut>>,
}

impl ProgressReporter {
    /// A human-readable one-line-per-round ticker on stderr.
    pub fn stderr() -> ProgressReporter {
        ProgressReporter { out: Arc::new(Mutex::new(ProgressOut::Stderr)) }
    }

    /// JSONL snapshots appended to `path` (created/truncated).
    pub fn jsonl_file(path: &std::path::Path) -> io::Result<ProgressReporter> {
        let f = std::fs::File::create(path)?;
        Ok(ProgressReporter::jsonl_writer(Box::new(io::BufWriter::new(f))))
    }

    /// JSONL snapshots pushed into an arbitrary writer.
    pub fn jsonl_writer(w: Box<dyn Write + Send>) -> ProgressReporter {
        ProgressReporter { out: Arc::new(Mutex::new(ProgressOut::Jsonl(w))) }
    }

    /// An in-memory collector; read the records back with
    /// [`ProgressReporter::take_lines`].
    pub fn collector() -> ProgressReporter {
        ProgressReporter { out: Arc::new(Mutex::new(ProgressOut::Collect(Vec::new()))) }
    }

    /// Records one snapshot (called by the solver at each round
    /// barrier).
    pub fn emit(&self, snap: &ProgressSnapshot) {
        let mut out = self.out.lock().unwrap();
        match &mut *out {
            ProgressOut::Stderr => eprintln!("{}", snap.ticker_line()),
            ProgressOut::Jsonl(w) => {
                let _ = writeln!(w, "{}", snap.to_json());
                let _ = w.flush();
            }
            ProgressOut::Collect(v) => v.push(snap.to_json()),
        }
    }

    /// Drains collected JSONL records ([`ProgressReporter::collector`]
    /// reporters only; empty otherwise).
    pub fn take_lines(&self) -> Vec<String> {
        let mut out = self.out.lock().unwrap();
        match &mut *out {
            ProgressOut::Collect(v) => std::mem::take(v),
            _ => Vec::new(),
        }
    }
}

impl std::fmt::Debug for ProgressReporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &*self.out.lock().unwrap() {
            ProgressOut::Stderr => "stderr",
            ProgressOut::Jsonl(_) => "jsonl",
            ProgressOut::Collect(_) => "collect",
        };
        write!(f, "ProgressReporter({kind})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ProgressSnapshot {
        ProgressSnapshot {
            round: 3,
            iterations: 41,
            frontier: 2,
            samples: 120,
            positive_samples: 80,
            interp_preds: 2,
            learned_db_size: 37,
            seeds_added: 12,
            seed_version_sum: 14,
            oracle_us: 1_500_000,
            resolve_us: 250_000,
            time_left_ms: Some(28_500),
        }
    }

    #[test]
    fn json_round_trips_through_in_tree_parser() {
        let snap = sample_snapshot();
        let v = linarb_trace::json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("progress"));
        assert_eq!(v.get("round").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("samples").unwrap().as_f64(), Some(120.0));
        assert_eq!(v.get("time_left_ms").unwrap().as_f64(), Some(28500.0));
        // Every timing field is present, so scrubbing by key is total.
        for key in ProgressSnapshot::TIMING_FIELDS {
            assert!(v.get(key).is_some(), "missing timing field {key}");
        }
    }

    #[test]
    fn collector_captures_in_order() {
        let rep = ProgressReporter::collector();
        let mut snap = sample_snapshot();
        rep.emit(&snap);
        snap.round = 4;
        rep.emit(&snap);
        let lines = rep.take_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"round\":3"));
        assert!(lines[1].contains("\"round\":4"));
        assert!(rep.take_lines().is_empty());
    }

    #[test]
    fn jsonl_writer_emits_valid_lines() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let rep = ProgressReporter::jsonl_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        rep.emit(&sample_snapshot());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(linarb_trace::json::validate_jsonl(&text).unwrap(), 1);
    }

    #[test]
    fn ticker_mentions_the_load_bearing_numbers() {
        let line = sample_snapshot().ticker_line();
        assert!(line.contains("round   3"), "{line}");
        assert!(line.contains("samples 120 (+80)"), "{line}");
        assert!(line.contains("budget 28.5s"), "{line}");
    }
}
