//! What one workload run hands back: operation counts, failed checks,
//! end-to-end metrics, per-layer samples, header lines and spans.

use crate::job::JobLayers;
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer samples, summarized at the end: times (`*_ms`) by their
/// median, everything else by its mean.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Drops every sample of `name`.
    pub fn clear(&mut self, name: &str) {
        self.samples.remove(name);
    }

    /// The summary value of `name`, if sampled.
    pub fn value(&self, name: &str) -> Option<f64> {
        let v = self.samples.get(name)?;
        Some(if name.ends_with("_ms") {
            stats::median(v)
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        })
    }

    /// Samples of one traced job's stage statistics.
    pub fn add_job(&mut self, l: &JobLayers, cells: f64) {
        let cells = cells.max(1.0);
        self.push("parsers.bytes", l.bytes);
        self.push("report.bytes", l.report_bytes);
        self.push("mgl.windows_evaluated", l.mgl.perf.windows_evaluated as f64);
        self.push(
            "mgl.windows_per_cell",
            l.mgl.perf.windows_evaluated as f64 / cells,
        );
        self.push("mgl.expansions", l.mgl.expansions as f64);
        self.push("mgl.fallbacks", l.mgl.fallbacks as f64);
        self.push("mgl.curve_minimizations", l.curve_minimizations);
        self.push("scheduler.rounds", l.mgl.perf.rounds as f64);
        self.push("scheduler.eval_parallelism", l.mgl.perf.eval_parallelism());
        self.push("scheduler.dedup_hit_rate", l.mgl.perf.dedup_hit_rate());
        self.push("maxdisp.groups", l.maxdisp.groups as f64);
        self.push("maxdisp.groups_changed", l.maxdisp.groups_changed as f64);
        self.push(
            "maxdisp.changed_share",
            l.maxdisp.groups_changed as f64 / l.maxdisp.groups.max(1) as f64,
        );
        self.push("maxdisp.cells_moved", l.maxdisp.cells_moved as f64);
        self.push("fixed_order.cells", l.fixed_order.cells as f64);
        self.push(
            "fixed_order.neighbor_arcs",
            l.fixed_order.neighbor_arcs as f64,
        );
        self.push("fixed_order.cells_moved", l.fixed_order.cells_moved as f64);
        self.push("flow.simplex_pivots", l.simplex_pivots);
        self.push(
            "flow.pivots_per_cell",
            l.simplex_pivots / l.fixed_order.cells.max(1) as f64,
        );
        self.push("routability.soft_violations", l.soft_violations);
    }

    /// Per-layer times from a recorder's job spans.
    pub fn add_spans(&mut self, tr: &Tracer) {
        for (span, metric) in [
            ("parsers.read", "parsers.read_ms"),
            ("core.prep", "prep.ms"),
            ("core.mgl", "mgl.ms"),
            ("core.maxdisp", "maxdisp.ms"),
            ("core.fixed_order", "fixed_order.ms"),
            ("db.check", "check.ms"),
            ("obs.report_build", "report.build_ms"),
        ] {
            for v in tr.durations(span) {
                self.push(metric, v);
            }
        }
        // Writing the placement: serialisation plus the file writes.
        let ser = tr.durations("parsers.write");
        let io = tr.durations("io.write");
        for (a, b) in ser.iter().zip(&io) {
            self.push("parsers.write_ms", a + b);
        }
    }
}

/// The result of one workload run.
pub struct Outcome {
    /// Common time origin of every recorder in the run.
    pub epoch: Instant,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, degraded runs).
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer samples.
    pub layers: Layers,
    /// Header lines printed before the result.
    pub info: Vec<(String, String)>,
    /// Spans of the traced phase.
    pub spans: Tracer,
}

impl Default for Outcome {
    fn default() -> Self {
        let epoch = Instant::now();
        Self {
            epoch,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            e2e: BTreeMap::new(),
            layers: Layers::default(),
            info: Vec::new(),
            spans: Tracer::new(epoch, 0),
        }
    }
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        self.e2e.insert(name, v);
    }

    /// Records a header line.
    pub fn info(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records a check result; a failure makes the run incorrect.
    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("CHECK FAILED: {e}");
            self.errors.push(e);
        }
    }

    /// Logs a failed operation (already counted in `failed`).
    pub fn note_failure(&mut self, e: &str) {
        eprintln!("operation failed: {e}");
    }
}
