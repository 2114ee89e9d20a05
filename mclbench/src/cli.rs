//! The two CLI workloads: full jobs through one resident `Engine`, as
//! `mclegal legalize` runs them, plus the CLI's in-process ECO delta path
//! (`legalize --eco-delta`) on each design's result.
//!
//! A round legalizes every design of the workload once and then pushes a
//! fixed number of deltas into the resident sessions in turn. A run
//! repeats whole rounds until its time is up.

use crate::inputs::{self, Bundle};
use crate::job::{self, JobOut};
use crate::outcome::{Layers, Outcome};
use crate::trace::Tracer;
use crate::{checks, stats};
use mcl_core::{EcoSession, Engine, LegalizerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Cells re-targeted by one ECO delta (every workload): the program's own
/// ECO traffic model, as in its `eco` bench (`MCL_ECO_DELTA`, default 64).
pub const DELTA_CELLS: usize = 64;

/// Fewest set-up repetitions, all before the first timed operation;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Set-up repeats until at least this long has passed. The host's speed
/// switches between states for seconds at a time (the nine
/// `cli_contest_fenced` set-ups of one run read 82-90 ms six times, then
/// 57 ms three times), so a burst of under a second caught one state:
/// the median of ten runs' `setup_s` was 88 ms in one set and 62 ms in
/// the next.
pub const SETUP_SECS: f64 = 3.0;
/// Fewest deltas a measured run pushes, so that `delta_p90_ms` has at
/// least ten samples beyond it.
pub const MIN_DELTAS: usize = 100;
/// A measured phase stops at this multiple of its length even when fewer
/// than [`MIN_DELTAS`] deltas were pushed by then; the run then fails its
/// delta-count check instead of running on.
pub const HARD_STOP: f64 = 3.0;

/// Checks that a measured phase's deltas gave `delta_p90_ms` enough
/// samples: a shortfall means deltas failed or ran far slower than the
/// workload is sized for.
pub fn enough_deltas(succeeded: usize, attempted: u64) -> Result<(), String> {
    if succeeded < MIN_DELTAS {
        return Err(format!(
            "{succeeded} of {attempted} deltas succeeded; the run needs at least {MIN_DELTAS}"
        ));
    }
    Ok(())
}

/// Which CLI workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `cli_total`.
    Total,
    /// `cli_contest_fenced`.
    ContestFenced,
}

impl Kind {
    /// In-process deltas per round: enough for [`MIN_DELTAS`] within a
    /// run of 30 seconds.
    fn deltas_per_round(self) -> usize {
        match self {
            Kind::Total => 40,
            Kind::ContestFenced => 40,
        }
    }

    /// Mode and engine threads of the workload. Both run one engine
    /// thread: at two, every scheduler round waits for both of the host's
    /// two CPUs, and a stall on either slowed whole runs by up to half
    /// (job medians of 136 and 212 ms on one seed).
    pub fn config(self) -> LegalizerConfig {
        let (mut cfg, threads) = match self {
            Kind::Total => (LegalizerConfig::total_displacement(), 1),
            Kind::ContestFenced => (LegalizerConfig::contest(), 1),
        };
        // An explicit thread count, honored exactly (as `--threads`).
        cfg.threads = threads;
        cfg.clamp_threads_to_hardware = false;
        cfg
    }
}

/// Per-design state across rounds.
struct Design {
    bundle: Bundle,
    /// The first output: reference for every later job of the design.
    first: Option<JobOut>,
    session: Option<EcoSession>,
}

/// Everything measured by one phase of jobs and deltas.
#[derive(Default)]
struct Phase {
    job_ms: Vec<f64>,
    /// Mean job time of each round.
    round_ms: Vec<f64>,
    cells: f64,
    delta_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Closes a round whose jobs start at index `first` of `job_ms`.
    fn end_round(&mut self, first: usize) {
        let jobs = &self.job_ms[first..];
        if !jobs.is_empty() {
            self.round_ms
                .push(jobs.iter().sum::<f64>() / jobs.len() as f64);
        }
    }
}

/// Runs one CLI workload.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = kind.config();
    let bundles = match kind {
        Kind::Total => inputs::cli_total(seed, work),
        Kind::ContestFenced => inputs::cli_contest(seed, work),
    };
    for b in &bundles {
        out.info(&format!("input {}", b.name), &b.makeup);
    }
    let out_dir = work.join("out");
    std::fs::create_dir_all(&out_dir).expect("output dir");

    // Set-up: parse every input bundle and build the engine, several
    // times; `setup_s` is the median.
    let mut setup = Vec::new();
    let mut parse_ms = Vec::new();
    let mut engine = Engine::new(cfg.clone());
    let setup_start = Instant::now();
    while setup.len() < SETUP_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECS {
        let t = Instant::now();
        for b in &bundles {
            let d = mcl_parsers::read_bookshelf_dir(&b.dir)
                .unwrap_or_else(|e| panic!("set-up parse of {}: {e}", b.name));
            assert_eq!(d.movable_cells().count(), b.cells);
        }
        parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
        engine = Engine::new(cfg.clone());
        setup.push(t.elapsed().as_secs_f64());
    }
    out.layers.push("setup.parse_ms", stats::median(&parse_ms));
    out.info(
        "set-ups ms",
        &format!("{:.1?}", setup.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
    );

    let mut designs: Vec<Design> = bundles
        .into_iter()
        .map(|bundle| Design {
            bundle,
            first: None,
            session: None,
        })
        .collect();

    // Untraced phase: the whole run, or its first half when traced.
    let untraced_secs = if traced {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let mut delta_seq = 0u64;
    let phase = run_phase(
        kind,
        &mut engine,
        &cfg,
        &mut designs,
        &out_dir,
        untraced_secs,
        seed,
        &mut delta_seq,
        &mut out,
    );
    let diag = engine.diag();
    out.attempted += phase.attempted;
    out.failed += phase.failed;

    let firsts: Vec<&JobOut> = designs.iter().filter_map(|d| d.first.as_ref()).collect();
    for j in &firsts {
        let (avg, max) = checks::own_displacement(&j.placed);
        out.info(
            &format!("quality {}", j.placed.name),
            &format!(
                "avg_disp_rows {avg:.4}, max_disp_rows {max:.4}, score_s {:.4}",
                j.score
            ),
        );
    }
    let n = firsts.len().max(1) as f64;
    let avg = firsts
        .iter()
        .map(|j| checks::own_displacement(&j.placed).0)
        .sum::<f64>()
        / n;
    let max = firsts
        .iter()
        .map(|j| checks::own_displacement(&j.placed).1)
        .sum::<f64>()
        / n;
    let score = firsts.iter().map(|j| j.score).sum::<f64>() / n;
    // A round runs each design once: its mean is the typical job of the
    // workload's mix, and the median over rounds drops host noise.
    let job_p50 = stats::median(&phase.round_ms);
    out.e2e("setup_s", stats::median(&setup));
    out.e2e("job_p50_ms", job_p50);
    out.e2e(
        "cells_per_s",
        phase.cells / (phase.job_ms.iter().sum::<f64>() / 1e3),
    );
    out.e2e("delta_p50_ms", stats::median(&phase.delta_ms));
    out.e2e("delta_p90_ms", stats::quantile(&phase.delta_ms, 0.9));
    out.e2e("avg_disp_rows", avg);
    out.e2e("max_disp_rows", max);
    out.e2e("score_s", score);
    out.info("jobs", &phase.job_ms.len().to_string());
    out.info("round means ms", &format!("{:.1?}", phase.round_ms));
    out.info("deltas", &phase.delta_ms.len().to_string());
    out.layers.push(
        "engine.pool_spawns",
        diag.pool_spawns as f64 / diag.runs.max(1) as f64,
    );
    out.layers.push(
        "engine.worker_spawns",
        diag.worker_spawns as f64 / diag.runs.max(1) as f64,
    );

    if traced {
        let traced_phase = run_traced_phase(
            kind,
            &cfg,
            &mut designs,
            &out_dir,
            seconds as f64 / 2.0,
            seed,
            &mut delta_seq,
            &mut out,
        );
        out.attempted += traced_phase.attempted;
        out.failed += traced_phase.failed;
        let traced_p50 = stats::median(&traced_phase.round_ms);
        out.info("untraced job_p50_ms", &format!("{job_p50:.3}"));
        out.info("traced job_p50_ms", &format!("{traced_p50:.3}"));
        out.layers.push("trace.overhead_ms", traced_p50 - job_p50);
    }

    // The sessions' final placements must still be legal and complete.
    for d in &designs {
        if let Some(s) = &d.session {
            let placed = s.design();
            out.check(checks::legal_and_complete(
                placed,
                &mcl_db::prelude::Checker::new(placed).check(),
            ));
        }
    }
    out.e2e("peak_rss_mb", stats::peak_rss_mb());
    out
}

/// Checks one job's output. The first output of a design gets every
/// check; each later output must be byte-identical to it (the job is
/// deterministic), and its report must carry the same golden subset.
fn verify_job(d: &mut Design, j: JobOut, cfg: &LegalizerConfig, out: &mut Outcome) {
    match &d.first {
        None => {
            out.check(checks::job_output(&j.placed, &j.stats, &j.report));
            match EcoSession::open(j.placed.clone(), cfg.clone()) {
                Ok(s) => d.session = Some(s),
                Err(e) => out.check(Err(format!("{}: eco session open: {e}", d.bundle.name))),
            }
            d.first = Some(j);
        }
        Some(first) => {
            if j.pl != first.pl {
                out.check(Err(format!(
                    "{}: placement differs from the first job's",
                    d.bundle.name
                )));
            }
            if j.report.golden_json() != first.report.golden_json() {
                out.check(Err(format!(
                    "{}: report golden subset differs from the first job's",
                    d.bundle.name
                )));
            }
        }
    }
}

/// Pushes one delta into the next session in turn. Returns its wall time.
fn delta(
    designs: &mut [Design],
    seed: u64,
    seq: &mut u64,
    tr: Option<&mut Tracer>,
    layers: &mut Layers,
) -> Option<f64> {
    let k = (*seq % designs.len() as u64) as usize;
    let delta_seed = inputs::delta_seed(seed, *seq);
    *seq += 1;
    let session = designs[k].session.as_mut()?;
    let span = tr.map(|t| {
        let id = t.begin("core.eco.apply", *seq);
        (t, id)
    });
    let t = Instant::now();
    let moves = EcoSession::synthesize_delta(session.design(), DELTA_CELLS, delta_seed);
    let res = session.apply_delta(&moves);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if let Some((tr, id)) = span {
        tr.end(id);
        if let Ok((s, _)) = &res {
            let dirty = s.obs.counter(mcl_obs::CounterKind::EcoWindowsDirty) as f64;
            let reused = s.obs.counter(mcl_obs::CounterKind::EcoCellsReused) as f64;
            let cells = session.design().movable_cells().count().max(1) as f64;
            layers.push("eco.apply_ms", ms);
            layers.push("eco.windows_dirty", dirty);
            layers.push("eco.cells_reused", reused);
            layers.push("eco.closure_share", 1.0 - reused / cells);
        }
    }
    match res {
        Ok(_) => Some(ms),
        Err(e) => {
            eprintln!("operation failed: delta {}: {e}", *seq - 1);
            None
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    kind: Kind,
    engine: &mut Engine,
    cfg: &LegalizerConfig,
    designs: &mut [Design],
    out_dir: &Path,
    secs: f64,
    seed: u64,
    delta_seq: &mut u64,
    out: &mut Outcome,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let hard_stop = start + Duration::from_secs_f64(secs * HARD_STOP);
    let mut delta_attempts = 0;
    loop {
        let before = p.job_ms.len();
        for d in designs.iter_mut() {
            p.attempted += 1;
            match job::run(engine, &d.bundle, out_dir) {
                // A degraded run is a failed operation, not a timing sample.
                Ok(j) if !j.stats.claims_full_success() => {
                    p.failed += 1;
                    out.note_failure(&format!("{}: job degraded", d.bundle.name));
                }
                Ok(j) => {
                    p.job_ms.push(j.wall_ms);
                    p.cells += d.bundle.cells as f64;
                    verify_job(d, j, cfg, out);
                }
                Err(e) => {
                    p.failed += 1;
                    out.note_failure(&e);
                }
            }
        }
        p.end_round(before);
        for _ in 0..kind.deltas_per_round() {
            p.attempted += 1;
            delta_attempts += 1;
            match delta(designs, seed, delta_seq, None, &mut out.layers) {
                Some(ms) => p.delta_ms.push(ms),
                None => p.failed += 1,
            }
        }
        let now = Instant::now();
        if now >= hard_stop || (now >= deadline && delta_attempts >= MIN_DELTAS) {
            out.check(enough_deltas(p.delta_ms.len(), delta_attempts as u64));
            return p;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_traced_phase(
    kind: Kind,
    cfg: &LegalizerConfig,
    designs: &mut [Design],
    out_dir: &Path,
    secs: f64,
    seed: u64,
    delta_seq: &mut u64,
    out: &mut Outcome,
) -> Phase {
    let mut p = Phase::default();
    let mut tr = Tracer::new(out.epoch, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut job_id = 0u64;
    loop {
        let before = p.job_ms.len();
        for d in designs.iter_mut() {
            job_id += 1;
            p.attempted += 1;
            match job::run_traced(cfg, &d.bundle, out_dir, &mut tr, job_id) {
                Ok((j, l)) => {
                    p.job_ms.push(j.wall_ms);
                    out.layers.add_job(&l, d.bundle.cells as f64);
                    // The composed job must reproduce the engine's job.
                    if let Some(first) = &d.first {
                        if j.pl != first.pl {
                            out.check(Err(format!(
                                "{}: stage-by-stage placement differs from the end-to-end one",
                                d.bundle.name
                            )));
                        }
                        if j.report.golden_json() != first.report.golden_json() {
                            out.check(Err(format!(
                                "{}: stage-by-stage report differs from the end-to-end one",
                                d.bundle.name
                            )));
                        }
                    }
                    out.check(checks::job_output(&j.placed, &j.stats, &j.report));
                }
                Err(e) => {
                    p.failed += 1;
                    out.check(Err(e));
                }
            }
        }
        p.end_round(before);
        for _ in 0..kind.deltas_per_round() {
            p.attempted += 1;
            match delta(designs, seed, delta_seq, Some(&mut tr), &mut out.layers) {
                Some(ms) => p.delta_ms.push(ms),
                None => p.failed += 1,
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.layers.add_spans(&tr);
    out.spans.absorb(tr);
    p
}
