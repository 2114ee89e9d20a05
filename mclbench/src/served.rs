//! `served_eco_mix`: an in-process `mclegal serve` daemon with the journal
//! and the report directory on, driven by two closed-loop clients over
//! its TCP wire. The first client holds a resident ECO session on a legal
//! contest-mode base and pushes small synthetic deltas; the second submits
//! queued `legalize` jobs of small contest bundles, in turn.

use crate::inputs::{self, Bundle};
use crate::outcome::Outcome;
use crate::trace::Tracer;
use crate::{checks, job, stats};
use mcl_core::{build_run_report, EcoSession, Engine, LegalizerConfig};
use mcl_db::prelude::*;
use mcl_serve::json::{parse, Json};
use mcl_serve::{Client, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine threads of the daemon's scheduler.
pub const ENGINE_THREADS: usize = 1;
/// Client connections (ECO session + queued jobs).
pub const CLIENTS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Queue capacity, above the client count so no request is refused.
const QUEUE_CAP: usize = 8;

fn config() -> LegalizerConfig {
    let mut cfg = LegalizerConfig::contest();
    cfg.threads = ENGINE_THREADS;
    cfg.clamp_threads_to_hardware = false;
    cfg
}

/// A started daemon with its open ECO session.
struct Daemon {
    server: Server,
    eco: Client,
    session: u64,
}

/// Timings of one set-up, in milliseconds.
struct SetupTimes {
    parse: f64,
    base: f64,
    start: f64,
    open: f64,
}

fn request(c: &mut Client, line: &str) -> Result<Json, String> {
    let resp = c
        .request(line)
        .map_err(|e| format!("{line}: {e}"))?
        .ok_or_else(|| format!("{line}: connection closed"))?;
    let j = parse(&resp).map_err(|e| format!("bad response {resp}: {e}"))?;
    if j.str_field("status") != Some("OK") {
        return Err(format!("{line}: {resp}"));
    }
    Ok(j)
}

fn dir_arg(p: &Path) -> String {
    // Bundle paths are relative to the working directory and made of
    // plain name characters, so they need no JSON escaping.
    p.display().to_string()
}

/// Program set-up: parse the inputs, start the daemon, legalize the
/// session design, persist it and open the session over the wire.
fn set_up(eco: &Bundle, jobs: &[Bundle], work: &Path) -> Result<(Daemon, SetupTimes), String> {
    let cfg = config();
    let t = Instant::now();
    let design = mcl_parsers::read_bookshelf_dir(&eco.dir).map_err(|e| e.to_string())?;
    for job in jobs {
        mcl_parsers::read_bookshelf_dir(&job.dir).map_err(|e| e.to_string())?;
    }
    let parse = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut sc = ServeConfig::new(cfg.clone());
    sc.queue_cap = QUEUE_CAP;
    sc.report_dir = Some(work.join("reports"));
    sc.journal_path = Some(work.join("serve.journal"));
    let server = Server::start(sc)?;
    let start = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let (placed, stats) = Engine::new(cfg)
        .try_legalize(&design)
        .map_err(|e| format!("base legalization: {e}"))?;
    if !stats.claims_full_success() {
        return Err("base legalization degraded".into());
    }
    let base_dir = work.join("eco_base");
    mcl_parsers::write_bookshelf_dir(&placed, &base_dir, &placed.name)
        .map_err(|e| e.to_string())?;
    let base = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let opened = request(
        &mut client,
        &format!(r#"{{"op":"eco_open","dir":"{}"}}"#, dir_arg(&base_dir)),
    )?;
    let session = opened
        .u64_field("session")
        .ok_or("eco_open: no session id")?;
    let open = t.elapsed().as_secs_f64() * 1e3;
    Ok((
        Daemon {
            server,
            eco: client,
            session,
        },
        SetupTimes {
            parse,
            base,
            start,
            open,
        },
    ))
}

fn shut_down(d: Daemon) -> Result<(), String> {
    let Daemon {
        server,
        mut eco,
        session,
    } = d;
    request(
        &mut eco,
        &format!(r#"{{"op":"eco_close","session":{session}}}"#),
    )?;
    drop(eco);
    server.drain();
    server.join();
    Ok(())
}

/// What one client measured.
#[derive(Default)]
struct ClientRun {
    ms: Vec<f64>,
    /// Mean job time of each whole round over the job bundles.
    round_ms: Vec<f64>,
    /// Cells legalized by the successful jobs.
    cells: f64,
    ack_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    seeds: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn eco_client(
    addr: std::net::SocketAddr,
    session: u64,
    seed: u64,
    seq: &mut u64,
    deadline: Instant,
    hard_stop: Instant,
    tr: Option<&mut Tracer>,
) -> ClientRun {
    let mut r = ClientRun::default();
    // The untraced phase pushes at least `MIN_DELTAS`, for a p90 with
    // ten samples beyond it, unless it reaches its hard stop first.
    let min = if tr.is_some() {
        0
    } else {
        crate::cli::MIN_DELTAS as u64
    };
    let mut tr = tr;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.errors.push(format!("eco client connect: {e}"));
            return r;
        }
    };
    while Instant::now() < deadline || (r.attempted < min && Instant::now() < hard_stop) {
        let s = inputs::delta_seed(seed, *seq);
        *seq += 1;
        r.attempted += 1;
        let line = format!(
            r#"{{"op":"eco_delta","session":{session},"cells":{},"seed":{s}}}"#,
            crate::cli::DELTA_CELLS
        );
        let t0 = Instant::now();
        let resp = c.request(&line);
        let t1 = Instant::now();
        if let Some(tr) = tr.as_deref_mut() {
            tr.record("serve.eco_delta", *seq, t0, t1);
        }
        let Ok(Some(resp)) = resp else {
            r.failed += 1;
            r.errors.push("eco_delta: connection lost".into());
            break;
        };
        let j = parse(&resp).ok();
        let ok = j.as_ref().and_then(|j| j.str_field("status")) == Some("OK");
        if !ok {
            r.failed += 1;
            eprintln!("operation failed: {resp}");
            // A refused delta leaves the base unchanged: the twin replay
            // must skip it too.
            continue;
        }
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        r.ms.push(ms);
        r.seeds.push(s);
        if let Some(server_ms) = j.as_ref().and_then(|j| j.num_field("delta_ms")) {
            r.overhead_ms.push(ms - server_ms);
        }
    }
    r
}

fn job_client(
    addr: std::net::SocketAddr,
    bundles: &[Bundle],
    goldens: &[String],
    report_dir: &Path,
    deadline: Instant,
    tr: Option<&mut Tracer>,
) -> ClientRun {
    let mut r = ClientRun::default();
    let mut tr = tr;
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.errors.push(format!("job client connect: {e}"));
            return r;
        }
    };
    let mut job = 0u64;
    'rounds: while Instant::now() < deadline {
        let before = r.ms.len();
        for (bundle, golden) in bundles.iter().zip(goldens) {
            let line = format!(r#"{{"op":"legalize","dir":"{}"}}"#, dir_arg(&bundle.dir));
            let golden_file = report_dir.join(format!("{}.golden.json", bundle.name));
            job += 1;
            r.attempted += 1;
            let t0 = Instant::now();
            let sent = c.send(&line);
            let first = sent.and_then(|()| c.recv());
            let t_ack = Instant::now();
            let accepted = matches!(&first, Ok(Some(l)) if l.contains(r#""phase":"ACCEPTED""#));
            if !accepted {
                r.failed += 1;
                eprintln!("operation failed: legalize not accepted: {first:?}");
                if !matches!(first, Ok(Some(_))) {
                    r.errors.push("job client: connection lost".into());
                    break 'rounds;
                }
                continue;
            }
            let last = c.recv();
            let t1 = Instant::now();
            if let Some(tr) = tr.as_deref_mut() {
                let id = tr.record("serve.legalize", job, t0, t1);
                tr.record_in(Some(id), "serve.ack", job, t0, t_ack);
                tr.record_in(Some(id), "serve.exec", job, t_ack, t1);
            }
            let Ok(Some(last)) = last else {
                r.failed += 1;
                r.errors.push("job client: connection lost".into());
                break 'rounds;
            };
            // Non-OK statuses and degraded runs are failed operations.
            if !last.starts_with(r#"{"status":"OK""#) || !last.contains(r#""degradations":[]"#) {
                r.failed += 1;
                eprintln!("operation failed: {last:.300}");
                continue;
            }
            r.ms.push((t1 - t0).as_secs_f64() * 1e3);
            r.cells += bundle.cells as f64;
            r.ack_ms.push((t_ack - t0).as_secs_f64() * 1e3);
            r.exec_ms.push((t1 - t_ack).as_secs_f64() * 1e3);
            // Outside the timed span: the served report against the solo run.
            let report = last
                .find(r#""report":"#)
                .map(|i| &last[i + 9..last.len() - 1])
                .unwrap_or("");
            if !report.starts_with(&golden[..golden.len() - 1]) {
                r.errors.push(format!(
                    "served report differs from the solo run: {report:.200}"
                ));
            }
            match std::fs::read_to_string(&golden_file) {
                Ok(g) if g == format!("{golden}\n") => {}
                Ok(g) => r.errors.push(format!(
                    "published golden report differs from the solo run: {g:.200}"
                )),
                Err(e) => r
                    .errors
                    .push(format!("published report {}: {e}", golden_file.display())),
            }
        }
        let jobs = &r.ms[before..];
        if !jobs.is_empty() {
            r.round_ms
                .push(jobs.iter().sum::<f64>() / jobs.len() as f64);
        }
    }
    r
}

/// One measured phase: both clients until `secs` have passed.
#[allow(clippy::too_many_arguments)]
fn phase(
    d: &Daemon,
    jobs: &[Bundle],
    goldens: &[String],
    work: &Path,
    seed: u64,
    seq: &mut u64,
    secs: f64,
    traced: Option<(&mut Tracer, &mut Tracer)>,
) -> (ClientRun, ClientRun) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let hard_stop = start + Duration::from_secs_f64(secs * crate::cli::HARD_STOP);
    let addr = d.server.local_addr();
    let report_dir = work.join("reports");
    let (ta, tb) = match traced {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    std::thread::scope(|s| {
        let h = s.spawn(|| job_client(addr, jobs, goldens, &report_dir, deadline, tb));
        let e = eco_client(addr, d.session, seed, seq, deadline, hard_stop, ta);
        let j = h.join().unwrap_or_else(|_| ClientRun {
            errors: vec!["job client panicked".into()],
            ..ClientRun::default()
        });
        (e, j)
    })
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, traced: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config();
    let (eco, jobs) = inputs::served(seed, work);
    out.info("input session", &eco.makeup);
    for b in &jobs {
        out.info("input job", &b.makeup);
    }

    // The reference every served report must equal: a fresh in-process
    // solo run of the same bundle.
    let mut solos = Vec::new();
    let mut goldens = Vec::new();
    for b in &jobs {
        let d = mcl_parsers::read_bookshelf_dir(&b.dir).expect("job bundle parses");
        let (solo, solo_stats) = Engine::new(cfg.clone())
            .try_legalize(&d)
            .expect("solo reference run");
        let solo_report = build_run_report(&solo, &solo_stats, &cfg);
        out.check(checks::job_output(&solo, &solo_stats, &solo_report));
        goldens.push(solo_report.golden_json());
        solos.push(solo);
    }

    // The measured daemon's set-up. The further set-ups that `setup_s`
    // takes its median over run after the measurement and the peak-memory
    // reading: memory freed by a stopped daemon's threads stays resident
    // in their allocator arenas and would make the peak vary run to run.
    let serve_dir = work.join("setup0");
    let mut setups = Vec::new();
    let mut times = Vec::new();
    let t = Instant::now();
    let mut eco_client_conn = match set_up(&eco, &jobs, &serve_dir) {
        Ok((d, st)) => {
            setups.push(t.elapsed().as_secs_f64());
            times.push(st);
            d
        }
        Err(e) => {
            out.check(Err(format!("set-up: {e}")));
            return out;
        }
    };
    let stats_before = request(&mut eco_client_conn.eco, r#"{"op":"stats"}"#).ok();
    let mut seq = 0u64;
    let untraced_secs = if traced {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let (e, j) = phase(
        &eco_client_conn,
        &jobs,
        &goldens,
        &serve_dir,
        seed,
        &mut seq,
        untraced_secs,
        None,
    );
    out.check(crate::cli::enough_deltas(e.ms.len(), e.attempted));
    let mut all_seeds = e.seeds.clone();
    // Each round submits every job bundle once: its mean is the typical
    // job of the mix, and the median over rounds drops host noise.
    let job_p50 = stats::median(&j.round_ms);
    out.e2e("job_p50_ms", job_p50);
    out.e2e("cells_per_s", j.cells / (j.ms.iter().sum::<f64>() / 1e3));
    out.e2e("delta_p50_ms", stats::median(&e.ms));
    out.e2e("delta_p90_ms", stats::quantile(&e.ms, 0.9));
    // Quality of the served outputs, which equal the solo runs: the mean
    // over the job bundles.
    let n = solos.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Design) -> f64| solos.iter().map(f).sum::<f64>() / n;
    out.e2e("avg_disp_rows", mean(&|d| checks::own_displacement(d).0));
    out.e2e("max_disp_rows", mean(&|d| checks::own_displacement(d).1));
    out.e2e(
        "score_s",
        mean(&|d| Metrics::measure(d).contest_score(d, &Checker::new(d).check())),
    );
    out.info("jobs", &j.ms.len().to_string());
    out.info("deltas", &e.ms.len().to_string());
    if let Some(first) = e.ms.first() {
        out.info("first delta ms", &format!("{first:.3}"));
    }
    for r in [&e, &j] {
        out.attempted += r.attempted;
        out.failed += r.failed;
        for err in &r.errors {
            out.check(Err(err.clone()));
        }
    }

    if traced {
        let mut ta = Tracer::new(out.epoch, 1);
        let mut tb = Tracer::new(out.epoch, 2);
        let (e2, j2) = phase(
            &eco_client_conn,
            &jobs,
            &goldens,
            &serve_dir,
            seed,
            &mut seq,
            seconds as f64 / 2.0,
            Some((&mut ta, &mut tb)),
        );
        for r in [&e2, &j2] {
            out.attempted += r.attempted;
            out.failed += r.failed;
            for err in &r.errors {
                out.check(Err(err.clone()));
            }
        }
        all_seeds.extend(&e2.seeds);
        for v in &j2.ack_ms {
            out.layers.push("serve.ack_ms", *v);
        }
        for v in &j2.exec_ms {
            out.layers.push("serve.exec_ms", *v);
        }
        for v in &e2.overhead_ms {
            out.layers.push("serve.delta_overhead_ms", *v);
        }
        out.layers
            .push("trace.overhead_ms", stats::median(&j2.round_ms) - job_p50);
        out.spans.absorb(ta);
        out.spans.absorb(tb);
    }
    let stats_after = request(&mut eco_client_conn.eco, r#"{"op":"stats"}"#).ok();
    if let (Some(a), Some(b)) = (&stats_before, &stats_after) {
        for (field, metric) in [
            ("admitted", "serve.jobs_admitted"),
            ("rejected", "serve.jobs_rejected"),
        ] {
            let n = b.u64_field(field).unwrap_or(0) - a.u64_field(field).unwrap_or(0);
            out.layers.push(metric, n as f64);
        }
    }

    // The session's final placement, written with eco_commit, must pass
    // the auditor.
    let commit_dir = serve_dir.join("eco_final");
    let committed = request(
        &mut eco_client_conn.eco,
        &format!(
            r#"{{"op":"eco_commit","session":{},"out":"{}"}}"#,
            eco_client_conn.session,
            dir_arg(&commit_dir)
        ),
    )
    .and_then(|_| read_placed(&commit_dir));
    match &committed {
        Ok(placed) => out.check(checks::legal_and_complete(
            placed,
            &Checker::new(placed).check(),
        )),
        Err(e) => out.check(Err(format!("eco_commit: {e}"))),
    }

    if traced {
        traced_extras(
            &cfg,
            &jobs,
            &solos,
            &goldens,
            &serve_dir,
            &all_seeds,
            committed.ok().as_ref(),
            &mut out,
        );
    }

    // Drain: every admitted job finishes, then the journal must be empty.
    out.check(shut_down(eco_client_conn));
    let journal = serve_dir.join("serve.journal");
    match std::fs::metadata(&journal) {
        Ok(m) if m.len() == 0 => {}
        Ok(m) => out.check(Err(format!("journal holds {} bytes after drain", m.len()))),
        Err(e) => out.check(Err(format!("journal {}: {e}", journal.display()))),
    }
    out.e2e("peak_rss_mb", stats::peak_rss_mb());

    for rep in 1..SETUP_REPS {
        let dir = work.join(format!("setup{rep}"));
        let t = Instant::now();
        match set_up(&eco, &jobs, &dir) {
            Ok((d, st)) => {
                setups.push(t.elapsed().as_secs_f64());
                times.push(st);
                out.check(shut_down(d));
            }
            Err(e) => out.check(Err(format!("set-up: {e}"))),
        }
    }
    for (name, f) in [
        (
            "setup.parse_ms",
            (|t: &SetupTimes| t.parse) as fn(&SetupTimes) -> f64,
        ),
        ("setup.base_legalize_ms", |t| t.base),
        ("setup.daemon_start_ms", |t| t.start),
        ("setup.session_open_ms", |t| t.open),
    ] {
        let v: Vec<f64> = times.iter().map(f).collect();
        out.layers.push(name, stats::median(&v));
    }
    out.e2e("setup_s", stats::median(&setups));
    out
}

/// Reads a committed bundle with its placement applied as positions.
fn read_placed(dir: &Path) -> Result<Design, String> {
    let mut d = mcl_parsers::read_bookshelf_dir(dir).map_err(|e| e.to_string())?;
    let pl = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "pl"))
        .ok_or("no .pl in committed bundle")?;
    let text = std::fs::read_to_string(&pl).map_err(|e| e.to_string())?;
    mcl_parsers::bookshelf::apply_pl(&mut d, &text).map_err(|e| e.to_string())?;
    Ok(d)
}

/// Traced-run extras: the job composed stage by stage (per-layer stage
/// figures, and it must reproduce the served report and the solo
/// placement), and an in-process twin session fed the same deltas (delta
/// figures, and it must end on the committed placement).
#[allow(clippy::too_many_arguments)]
fn traced_extras(
    cfg: &LegalizerConfig,
    jobs: &[Bundle],
    solos: &[Design],
    goldens: &[String],
    work: &Path,
    seeds: &[u64],
    committed: Option<&Design>,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new(out.epoch, 3);
    let out_dir: PathBuf = work.join("composed");
    let _ = std::fs::create_dir_all(&out_dir);
    for (k, ((b, solo), golden)) in jobs.iter().zip(solos).zip(goldens).enumerate() {
        match job::run_traced(cfg, b, &out_dir, &mut tr, k as u64) {
            Ok((j, l)) => {
                out.layers.add_job(&l, b.cells as f64);
                if j.report.golden_json() != *golden {
                    out.check(Err(format!(
                        "{}: stage-by-stage report differs from the served one",
                        b.name
                    )));
                }
                if j.pl != mcl_parsers::write_bookshelf(solo).pl {
                    out.check(Err(format!(
                        "{}: stage-by-stage placement differs from the end-to-end one",
                        b.name
                    )));
                }
            }
            Err(e) => out.check(Err(e)),
        }
    }
    out.layers.add_spans(&tr);
    // Prep is rebuilt per delta on the session design: that is the prep
    // cost this workload's deltas pay.
    out.layers.clear("prep.ms");

    let base = match mcl_parsers::read_bookshelf_dir(&work.join("eco_base")) {
        Ok(d) => d,
        Err(e) => {
            out.check(Err(format!("twin base: {e}")));
            return;
        }
    };
    let mut twin = match EcoSession::open(base, cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            out.check(Err(format!("twin session: {e}")));
            return;
        }
    };
    let cells = twin.design().movable_cells().count().max(1) as f64;
    for (k, &s) in seeds.iter().enumerate() {
        let id = tr.begin("core.eco.apply", k as u64);
        let moves = EcoSession::synthesize_delta(twin.design(), crate::cli::DELTA_CELLS, s);
        let res = twin.apply_delta(&moves);
        let ms = tr.end(id);
        match res {
            Ok((st, _)) => {
                let reused = st.obs.counter(mcl_obs::CounterKind::EcoCellsReused) as f64;
                out.layers.push("eco.apply_ms", ms);
                out.layers.push(
                    "eco.windows_dirty",
                    st.obs.counter(mcl_obs::CounterKind::EcoWindowsDirty) as f64,
                );
                out.layers.push("eco.cells_reused", reused);
                out.layers.push("eco.closure_share", 1.0 - reused / cells);
            }
            Err(e) => out.check(Err(format!("twin delta {k}: {e}"))),
        }
        let design = twin.design();
        let p = tr.begin("core.prep", k as u64);
        let prep = mcl_core::pipeline::Prep::new(design, cfg);
        std::hint::black_box(&prep.weights);
        out.layers.push("prep.ms", tr.end(p));
    }
    if let Some(c) = committed {
        let twin_pl = mcl_parsers::write_bookshelf(twin.design()).pl;
        if twin_pl != mcl_parsers::write_bookshelf(c).pl {
            out.check(Err(
                "in-process twin session ended on a different placement than the served one".into(),
            ));
        }
    }
    out.spans.absorb(tr);
}
