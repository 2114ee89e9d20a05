//! `mclbench`: the end-to-end benchmark of `mclegal`.
//!
//! ```text
//! cargo run --release --manifest-path mclbench/Cargo.toml -- \
//!     --workload cli_total --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks every output, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1` (which also writes a Chrome trace file).
//! `--spread N` instead runs the workload N times on seeds `seed..seed+N`
//! in child processes and prints each end-to-end metric's median and
//! quartiles. See `README.md` for the workloads and metrics.

mod checks;
mod cli;
mod inputs;
mod job;
mod outcome;
mod served;
mod stats;
mod trace;

use mcl_obs::JsonWriter;
use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["cli_total", "cli_contest_fenced", "served_eco_mix"];

/// End-to-end metrics (`--trace 0`), with units.
const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("cells_per_s", "cells/s"),
    ("delta_p50_ms", "ms"),
    ("delta_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("avg_disp_rows", "rows"),
    ("max_disp_rows", "rows"),
    ("score_s", "score"),
];

/// Per-layer metrics (`--trace 1`), with units.
const LAYERS: [(&str, &str); 44] = [
    ("parsers.read_ms", "ms"),
    ("parsers.write_ms", "ms"),
    ("parsers.bytes", "bytes"),
    ("prep.ms", "ms"),
    ("mgl.ms", "ms"),
    ("mgl.windows_evaluated", "count"),
    ("mgl.windows_per_cell", "ratio"),
    ("mgl.expansions", "count"),
    ("mgl.fallbacks", "count"),
    ("mgl.curve_minimizations", "count"),
    ("scheduler.rounds", "count"),
    ("scheduler.eval_parallelism", "ratio"),
    ("scheduler.dedup_hit_rate", "ratio"),
    ("maxdisp.ms", "ms"),
    ("maxdisp.groups", "count"),
    ("maxdisp.groups_changed", "count"),
    ("maxdisp.changed_share", "ratio"),
    ("maxdisp.cells_moved", "count"),
    ("fixed_order.ms", "ms"),
    ("fixed_order.cells", "count"),
    ("fixed_order.neighbor_arcs", "count"),
    ("flow.simplex_pivots", "count"),
    ("flow.pivots_per_cell", "ratio"),
    ("fixed_order.cells_moved", "count"),
    ("routability.soft_violations", "count"),
    ("check.ms", "ms"),
    ("report.build_ms", "ms"),
    ("report.bytes", "bytes"),
    ("engine.pool_spawns", "count"),
    ("engine.worker_spawns", "count"),
    ("eco.apply_ms", "ms"),
    ("eco.windows_dirty", "count"),
    ("eco.cells_reused", "count"),
    ("eco.closure_share", "ratio"),
    ("serve.ack_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.delta_overhead_ms", "ms"),
    ("serve.jobs_admitted", "count"),
    ("serve.jobs_rejected", "count"),
    ("setup.parse_ms", "ms"),
    ("setup.base_legalize_ms", "ms"),
    ("setup.daemon_start_ms", "ms"),
    ("setup.session_open_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spread: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut spread = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = num(value()?)?,
            "--seconds" => seconds = num(value()?)?.max(1),
            "--trace" => trace = num(value()?)? != 0,
            "--spread" => spread = Some(num(value()?)? as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spread,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mclbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.spread {
        return spread(&args, n);
    }
    let out_root = PathBuf::from(".bench_out");
    let work = out_root.join(format!(
        "work-{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("mclbench: {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "cli_total" => cli::run(cli::Kind::Total, args.seed, args.seconds, args.trace, &work),
        "cli_contest_fenced" => cli::run(
            cli::Kind::ContestFenced,
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        _ => served::run(args.seed, args.seconds, args.trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    // A failed check fails the run: the result line is still printed, for
    // the record, but the exit code says the outputs were wrong.
    if finish(&args, outcome, &out_root) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Prints the header lines, the trace summary (traced runs) and the
/// result line. Returns whether every check passed.
fn finish(args: &Args, mut o: Outcome, out_root: &Path) -> bool {
    // Threads that compute at once. Served: the daemon's scheduler runs
    // the queued jobs on its engine threads while the ECO session's
    // deltas run on that client's connection thread; the job client's
    // connection thread only waits.
    let (engine_threads, connections, busy) = match args.workload.as_str() {
        "cli_total" => (cli::Kind::Total.config().threads, 0, 1),
        "cli_contest_fenced" => (cli::Kind::ContestFenced.config().threads, 0, 1),
        _ => (
            served::ENGINE_THREADS,
            served::CLIENTS,
            served::ENGINE_THREADS + 1,
        ),
    };
    let cpus = stats::host_cpus();
    let header = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("host_cpus", cpus.to_string()),
        ("engine_threads", engine_threads.to_string()),
        ("client_connections", connections.to_string()),
        ("compute_threads", busy.to_string()),
        ("oversubscribed", (busy > cpus).to_string()),
        ("git_revision", stats::git_revision()),
    ];
    for (k, v) in &header {
        println!("mclbench {k}: {v}");
    }
    for (k, v) in &o.info {
        println!("mclbench {k}: {v}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let selfs = trace::self_times(o.spans.spans());
        println!("mclbench self time per span (count / total ms / self ms):");
        for (name, (count, total, own)) in &selfs {
            println!("  {name:<24} {count:>6} {total:>12.3} {own:>12.3}");
        }
        let meta: Vec<(&str, String)> = header.iter().map(|(k, v)| (*k, v.clone())).collect();
        let path = out_root.join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::chrome_trace_json(o.spans.spans(), &meta)) {
            Ok(()) => println!("mclbench trace file: {}", path.display()),
            Err(e) => o.check(Err(format!("trace file {}: {e}", path.display()))),
        }
        for (name, unit) in LAYERS {
            metrics.push((name, o.layers.value(name).unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in E2E {
            match o.e2e.get(name) {
                Some(&v) => metrics.push((name, v, unit)),
                None => o.check(Err(format!("metric {name} was not measured"))),
            }
        }
    }
    for (name, v, _) in &mut metrics {
        if !v.is_finite() {
            o.check(Err(format!("metric {name} is not a finite number")));
            *v = 0.0;
        }
    }
    if o.attempted == 0 {
        o.check(Err("no operation was attempted".into()));
    }
    let correct = o.errors.is_empty();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", correct);
    w.field_u64("attempted", o.attempted);
    w.field_u64("failed", o.failed);
    w.key("metrics");
    w.begin_object();
    for (name, v, unit) in &metrics {
        w.key(name);
        w.begin_object();
        w.field_raw("value", &format!("{v:?}"));
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
    correct
}

/// `--spread N`: N runs on consecutive seeds, each in a child process,
/// then each end-to-end metric's median, quartiles and spread. A run that
/// fails a check is named and left out of the quartiles.
fn spread(args: &Args, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("mclbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); E2E.len()];
    let mut shares = Vec::new();
    let mut left_out = 0;
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("mclbench: seed {seed}: {e}");
                return ExitCode::from(1);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let Some(last) = text.lines().last() else {
            eprintln!("mclbench: seed {seed} printed nothing");
            return ExitCode::from(1);
        };
        let Ok(j) = mcl_serve::json::parse(last) else {
            eprintln!("mclbench: seed {seed}: bad result line {last}");
            return ExitCode::from(1);
        };
        let num =
            |v: Option<&mcl_serve::json::Json>| v.and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
        let correct = j.get("correct").and_then(|c| c.as_bool()) == Some(true);
        if !correct || !out.status.success() {
            println!("seed {seed}: incorrect (exit {}), left out", out.status);
            left_out += 1;
            continue;
        }
        let attempted = num(j.get("attempted"));
        let failed = num(j.get("failed"));
        shares.push(failed / attempted);
        let metrics = j.get("metrics");
        let mut line = format!("seed {seed}:");
        for (k, (name, _)) in E2E.iter().enumerate() {
            let v = num(metrics
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value")));
            values[k].push(v);
            line.push_str(&format!(" {name}={v:.4}"));
        }
        println!("{line}");
    }
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>9}",
        "metric", "q1", "median", "q3", "spread"
    );
    let runs = n - left_out;
    for (k, (name, unit)) in E2E.iter().enumerate() {
        let q = stats::quartiles_exclusive(&values[k]);
        println!(
            "{name:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.2}%  ({unit}, {runs} runs)",
            q[0],
            q[1],
            q[2],
            100.0 * (q[2] - q[0]) / q[1]
        );
    }
    println!("failed share per run: {shares:?}");
    if left_out > 0 {
        println!("{left_out} of {n} runs failed a check and were left out");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
