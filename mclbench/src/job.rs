//! One full legalization job, the unit a placement flow waits for:
//! parse → mgl → maxdisp → fixed_order → check and score → run-report JSON
//! and placement written.
//!
//! [`run`] drives it the way the CLI does, through a resident `Engine`.
//! [`run_traced`] composes the same job from the public pieces — `Prep`,
//! `run_stages` with one-stage lists, `Checker`, `Metrics`,
//! `build_run_report` — with a span around each call, and checks between
//! stages that each post stage did not raise its own objective.

use crate::checks;
use crate::inputs::Bundle;
use crate::trace::Tracer;
use mcl_core::insertion::InsertionScratch;
use mcl_core::pipeline::{self, FixedOrderStage, MaxDispStage, MglExec, MglStage, Prep, Stage};
use mcl_core::{build_run_report, Engine, LegalizeStats, LegalizerConfig, PlacementState};
use mcl_db::prelude::*;
use mcl_obs::report::RunReport;
use std::path::Path;
use std::time::Instant;

/// What one job produced.
pub struct JobOut {
    /// The legalized design.
    pub placed: Design,
    /// The run's statistics.
    pub stats: LegalizeStats,
    /// Eq. 10 contest score of the output.
    pub score: f64,
    /// The run report.
    pub report: RunReport,
    /// The written `.pl` text.
    pub pl: String,
    /// Wall time of the job in milliseconds (the bench's own checks
    /// excluded).
    pub wall_ms: f64,
}

fn write_outputs(out_dir: &Path, name: &str, report_json: &str, pl: &str) -> Result<(), String> {
    std::fs::write(out_dir.join(format!("{name}.json")), report_json)
        .map_err(|e| format!("{name}: report write: {e}"))?;
    std::fs::write(out_dir.join(format!("{name}.pl")), pl)
        .map_err(|e| format!("{name}: placement write: {e}"))
}

/// One untraced job through a resident engine.
pub fn run(engine: &mut Engine, bundle: &Bundle, out_dir: &Path) -> Result<JobOut, String> {
    let t = Instant::now();
    let design = mcl_parsers::read_bookshelf_dir(&bundle.dir).map_err(|e| e.to_string())?;
    let (placed, stats) = engine
        .try_legalize(&design)
        .map_err(|e| format!("{}: {e}", bundle.name))?;
    let check = Checker::new(&placed).check();
    let score = Metrics::measure(&placed).contest_score(&placed, &check);
    let report = build_run_report(&placed, &stats, engine.config());
    let json = report.to_json();
    let pl = mcl_parsers::write_bookshelf(&placed).pl;
    write_outputs(out_dir, &placed.name, &json, &pl)?;
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(JobOut {
        placed,
        stats,
        score,
        report,
        pl,
        wall_ms,
    })
}

/// Per-layer figures of one traced job.
#[derive(Default)]
pub struct JobLayers {
    /// Bytes of input read plus output written.
    pub bytes: f64,
    /// Report JSON bytes.
    pub report_bytes: f64,
    /// Stats of each stage run.
    pub mgl: mcl_core::mgl::MglStats,
    /// See [`Self::mgl`].
    pub maxdisp: mcl_core::maxdisp::MaxDispStats,
    /// See [`Self::mgl`].
    pub fixed_order: mcl_core::fixed_order::FixedOrderStats,
    /// Network-simplex pivots of stage 3.
    pub simplex_pivots: f64,
    /// Curve minimizations of stage 1.
    pub curve_minimizations: f64,
    /// Soft (routability) violations of the output.
    pub soft_violations: f64,
}

fn positions(state: &PlacementState<'_>, d: &Design) -> Vec<Option<Point>> {
    (0..d.cells.len())
        .map(|i| state.pos(CellId(i as u32)))
        .collect()
}

/// One job composed stage by stage, with a span around each public call.
/// Verification work between stages runs in `verify.*` spans and is
/// excluded from `wall_ms`.
pub fn run_traced(
    cfg: &LegalizerConfig,
    bundle: &Bundle,
    out_dir: &Path,
    tr: &mut Tracer,
    job: u64,
) -> Result<(JobOut, JobLayers), String> {
    let mut layers = JobLayers::default();
    let mut verify_ms = 0.0;
    let root = tr.begin("job", job);
    let design = tr
        .span("parsers.read", job, || {
            mcl_parsers::read_bookshelf_dir(&bundle.dir)
        })
        .map_err(|e| e.to_string())?;
    layers.bytes += dir_bytes(&bundle.dir);
    let prep = tr.span("core.prep", job, || Prep::new(&design, cfg));
    let mut state = PlacementState::new(&design);
    let mut scratch = InsertionScratch::new();
    let mut total = LegalizeStats::default();
    let stages: [(&dyn Stage, &str); 3] = [
        (&MglStage, "core.mgl"),
        (&MaxDispStage, "core.maxdisp"),
        (&FixedOrderStage, "core.fixed_order"),
    ];
    for (stage, span) in stages {
        if !stage.enabled(cfg) {
            continue;
        }
        // The objective the stage optimizes, before it runs.
        let v = tr.begin("verify.stage", job);
        let before_pos = positions(&state, &design);
        let phi_before = (stage.name() == "maxdisp")
            .then(|| checks::phi_by_group(&design, &before_pos, cfg.delta0_rows));
        let lp_before = (stage.name() == "fixed_order").then(|| {
            checks::fixed_order_objective(&design, &before_pos, &prep.weights, cfg.n0_factor)
        });
        verify_ms += tr.end(v);

        let s = tr.begin(span, job);
        let stats = pipeline::run_stages(
            &design,
            &mut state,
            cfg,
            &[stage],
            &prep.weights,
            prep.oracle(),
            MglExec::Standalone,
            &mut scratch,
            "bench",
        )
        .map_err(|e| format!("{}: stage {}: {e}", bundle.name, stage.name()))?;
        tr.end(s);

        let v = tr.begin("verify.stage", job);
        let after_pos = positions(&state, &design);
        if let Some(before) = phi_before {
            let after = checks::phi_by_group(&design, &after_pos, cfg.delta0_rows);
            checks::phi_not_rising(&bundle.name, &before, &after)?;
        }
        if let Some(before) = lp_before {
            let after =
                checks::fixed_order_objective(&design, &after_pos, &prep.weights, cfg.n0_factor);
            if after > before {
                return Err(format!(
                    "{}: fixed_order raised its objective {before} -> {after}",
                    bundle.name
                ));
            }
        }
        verify_ms += tr.end(v);
        fold(&mut total, stats);
    }
    let mut placed = design.clone();
    state.write_back(&mut placed);
    layers.mgl = total.mgl.clone();
    layers.maxdisp = total.max_disp.clone();
    layers.fixed_order = total.fixed_order.clone();
    layers.simplex_pivots = total.obs.counter(mcl_obs::CounterKind::SimplexPivots) as f64;
    layers.curve_minimizations = total.obs.counter(mcl_obs::CounterKind::CurveMinimizations) as f64;

    let (check, score) = tr.span("db.check", job, || {
        let check = Checker::new(&placed).check();
        let score = Metrics::measure(&placed).contest_score(&placed, &check);
        (check, score)
    });
    layers.soft_violations = check.soft_violations() as f64;
    let report = tr.span("obs.report_build", job, || {
        build_run_report(&placed, &total, cfg)
    });
    let json = tr.span("obs.report_json", job, || report.to_json());
    layers.report_bytes = json.len() as f64;
    let pl = tr.span("parsers.write", job, || {
        mcl_parsers::write_bookshelf(&placed).pl
    });
    tr.span("io.write", job, || {
        write_outputs(out_dir, &placed.name, &json, &pl)
    })?;
    layers.bytes += (json.len() + pl.len()) as f64;
    let wall_ms = tr.end(root) - verify_ms;
    Ok((
        JobOut {
            placed,
            stats: total,
            score,
            report,
            pl,
            wall_ms,
        },
        layers,
    ))
}

/// Folds one single-stage run into the whole job's statistics, as the
/// pipeline driver does across its stage list.
fn fold(total: &mut LegalizeStats, s: LegalizeStats) {
    if let Some(t) = s.stage_seconds.first() {
        match t.name {
            "mgl" => total.mgl = s.mgl,
            "maxdisp" => total.max_disp = s.max_disp,
            _ => total.fixed_order = s.fixed_order,
        }
    }
    total.stage_seconds.extend(s.stage_seconds);
    total.failures.extend(s.failures);
    total.degradations.extend(s.degradations);
    total.obs.merge(&s.obs);
}

/// Total size of the files in a bundle directory.
fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}
