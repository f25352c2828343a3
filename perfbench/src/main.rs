//! `perfbench`: the serving benchmark of the MAXelerator GC-MAC stack.
//!
//! Starts an in-process `GcService` behind `listen_tcp` on loopback and
//! drives it through the public client API over `FramedTcp`, checking
//! every result against plaintext. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inline|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Exit codes: 0 success,
//! 1 incorrect result (never a slow success), 2 bad arguments, 3 invalid
//! run (a validity gate failed; no numbers are printed), 4 setup failure.

mod host;
mod layers;
mod serving;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use layers::Spans;
use serving::{Abort, JobSample, PhaseOut, RunInputs, Workload, FABRIC_CYCLES_PER_JOB};
use stats::{median, percentile};

/// A measured phase must hold this many jobs, so p90 has at least ten
/// samples beyond it.
const MIN_MEASURED_JOBS: usize = 100;
/// Validity bound on how late the `churn` generator may run (p90).
const CHURN_LAG_LIMIT_MS: f64 = 25.0;

const USAGE: &str =
    "usage: perfbench --workload <inline|churn> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample support printed beside the value.
    note: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: None,
    }
}

fn pct_metric(name: &'static str, values: &[f64], p: u32) -> Metric {
    let pct = percentile(values, p);
    Metric {
        name,
        value: pct.value,
        unit: "ms",
        note: Some(format!("n={}, {} beyond", pct.samples, pct.beyond)),
    }
}

fn column(samples: &[JobSample], f: impl Fn(&JobSample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(err) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: create {}: {err}", work_dir.display());
        return ExitCode::from(4);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::host_json());
    let inputs = RunInputs::new(args.workload, args.seed, &work_dir);
    let outcome = if args.trace {
        traced_run(&inputs, args.seconds)
    } else {
        end_to_end_run(&inputs, args.seconds)
    };
    // Journals are removed as each service shuts down; drop the (now
    // empty) scratch directory too.
    let _ = std::fs::remove_dir(&work_dir);
    match outcome {
        Ok((metrics, attempted, failed)) => {
            print_result(&metrics, attempted, failed);
            ExitCode::SUCCESS
        }
        Err(Abort::Incorrect(why)) => {
            eprintln!("perfbench: INCORRECT: {why}");
            // An aborted run reports no counts or numbers, only that it
            // was wrong.
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": {{}}}}");
            ExitCode::from(1)
        }
        Err(Abort::Invalid(why)) => {
            eprintln!("perfbench: invalid run, no numbers reported: {why}");
            ExitCode::from(3)
        }
        Err(Abort::Setup(why)) => {
            eprintln!("perfbench: setup failed: {why}");
            ExitCode::from(4)
        }
    }
}

/// The correctness gate beyond per-job plaintext checks (done as each
/// job completes): every STATS must carry the seed tree's modeled fabric
/// cycles for the shape.
fn check_cycles(out: &PhaseOut) -> Result<(), Abort> {
    match out
        .samples
        .iter()
        .find(|s| s.fabric_cycles != FABRIC_CYCLES_PER_JOB)
    {
        Some(s) => Err(Abort::Incorrect(format!(
            "job {} reported {} fabric cycles, the shape models {FABRIC_CYCLES_PER_JOB}",
            s.job, s.fabric_cycles
        ))),
        None => Ok(()),
    }
}

/// Validity gates: a run that breaks one measured something other than
/// the workload it names.
fn check_valid(workload: Workload, out: &PhaseOut) -> Result<(), Abort> {
    if out.samples.is_empty() {
        return Err(Abort::Invalid("no job completed".to_string()));
    }
    let served = out.prepared + out.fallback;
    if workload.uses_model() && (served == 0 || out.fallback > 0) {
        return Err(Abort::Invalid(format!(
            "registry hit ratio below 1.0 ({} prepared, {} fallback)",
            out.prepared, out.fallback
        )));
    }
    if workload.closed_loop() && out.busy > 0 {
        return Err(Abort::Invalid(format!(
            "{} BUSY rejections on a closed-loop workload",
            out.busy
        )));
    }
    if workload == Workload::Churn {
        let lag = percentile(&column(&out.samples, |s| s.lag_ms), 90).value;
        if lag > CHURN_LAG_LIMIT_MS {
            return Err(Abort::Invalid(format!(
                "churn generator ran {lag:.2} ms late at p90 (limit {CHURN_LAG_LIMIT_MS} ms)"
            )));
        }
    }
    Ok(())
}

fn end_to_end_run(inputs: &RunInputs, seconds: f64) -> Result<(Vec<Metric>, u64, u64), Abort> {
    let out = serving::run(inputs, seconds)?;
    check_cycles(&out)?;
    check_valid(inputs.workload, &out)?;
    let jobs = out.samples.len();
    if jobs < MIN_MEASURED_JOBS {
        return Err(Abort::Invalid(format!(
            "measured phase held {jobs} jobs, fewer than {MIN_MEASURED_JOBS}"
        )));
    }
    let job_ms = column(&out.samples, |s| s.job_ms);
    let ready_ms = column(&out.samples, |s| s.ready_ms);
    let wire: u64 = out.samples.iter().map(|s| s.wire_bytes).sum();
    let cycles: u64 = out.samples.iter().map(|s| s.fabric_cycles).sum();
    let metrics = vec![
        pct_metric("job_ms_p50", &job_ms, 50),
        pct_metric("job_ms_p90", &job_ms, 90),
        pct_metric("ready_ms_p90", &ready_ms, 90),
        metric("jobs_per_s", jobs as f64 / out.wall_s, "1/s"),
        metric("cpu_ms_per_job", out.cpu_s * 1e3 / jobs as f64, "ms"),
        Metric {
            note: Some(format!("median of {} setups", out.setup_s.len())),
            ..metric("setup_s", median(&out.setup_s), "s")
        },
        metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        metric("jobs_ok_ratio", jobs as f64 / out.attempted as f64, "ratio"),
        metric(
            "wire_kib_per_job",
            wire as f64 / 1024.0 / jobs as f64,
            "KiB",
        ),
        metric(
            "fabric_cycles_per_job",
            cycles as f64 / jobs as f64,
            "cycles",
        ),
    ];
    Ok((metrics, out.attempted, out.failed))
}

/// The per-layer run: an untraced and a traced serving phase (their p50s
/// give the tracing overhead), then the layer harness.
fn traced_run(inputs: &RunInputs, seconds: f64) -> Result<(Vec<Metric>, u64, u64), Abort> {
    let (untraced, traced) = serving::run_pair(inputs, seconds)?;
    for phase in [&untraced, &traced] {
        check_cycles(phase)?;
        check_valid(inputs.workload, phase)?;
    }
    let mut spans = Spans::default();
    for s in &traced.samples {
        spans.record("core.run_job_ms", s.job, s.run_job_ms / 1e3);
        spans.record("gc.frames_per_job", s.job, s.frames as f64);
        spans.record("gc.bytes_per_job", s.job, s.wire_bytes as f64);
    }
    for &(id, ms) in &traced.handshake_ms {
        spans.record("serve.handshake_ms", id, ms / 1e3);
    }
    layers::measure(inputs, &mut spans).map_err(Abort::Incorrect)?;
    println!(
        "spans: {} recorded over {} job ids (served jobs, layer-harness jobs, probes)",
        spans.len(),
        spans.jobs()
    );

    let untraced_p50 = median(&column(&untraced.samples, |s| s.job_ms));
    let traced_p50 = median(&column(&traced.samples, |s| s.job_ms));
    let jobs = traced.samples.len() as f64;
    let served = traced.prepared + traced.fallback;
    let span = |layer: &str, scale: f64| {
        spans
            .median(layer)
            .map(|v| v * scale)
            .ok_or_else(|| Abort::Invalid(format!("layer {layer} recorded no spans")))
    };
    let metrics = vec![
        metric("core.garble_job_ms", span("core.garble_job_ms", 1e3)?, "ms"),
        metric(
            "core.schedule_compile_ms",
            span("core.schedule_compile_ms", 1e3)?,
            "ms",
        ),
        metric(
            "core.labels_per_job",
            span("core.labels_per_job", 1.0)?,
            "count",
        ),
        metric(
            "core.materialize_ms",
            span("core.materialize_ms", 1e3)?,
            "ms",
        ),
        metric("core.run_job_ms", span("core.run_job_ms", 1e3)?, "ms"),
        metric("core.evaluate_ms", span("core.evaluate_ms", 1e3)?, "ms"),
        metric("rng.label_us", span("rng.label_us", 1e6)?, "us"),
        metric("ot.setup_ms", span("ot.setup_ms", 1e3)?, "ms"),
        metric("ot.ext_ms", span("ot.ext_ms", 1e3)?, "ms"),
        metric(
            "crypto.stream_digest_ms",
            span("crypto.stream_digest_ms", 1e3)?,
            "ms",
        ),
        metric(
            "crypto.digest_mib_per_s",
            span("crypto.digest_mib_per_s", 1.0)?,
            "MiB/s",
        ),
        metric(
            "gc.seal_open_us_per_job",
            span("gc.seal_open_us_per_job", 1e6)?,
            "us",
        ),
        metric(
            "gc.frames_per_job",
            span("gc.frames_per_job", 1.0)?,
            "count",
        ),
        metric("gc.bytes_per_job", span("gc.bytes_per_job", 1.0)?, "bytes"),
        metric("registry.fill_ms", span("registry.fill_ms", 1e3)?, "ms"),
        metric(
            "registry.acquire_us",
            span("registry.acquire_us", 1e6)?,
            "us",
        ),
        metric(
            "registry.hit_ratio",
            if served == 0 {
                0.0
            } else {
                traced.prepared as f64 / served as f64
            },
            "ratio",
        ),
        metric(
            "registry.stock_mib",
            traced.stock_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        metric(
            "registry.refills_during_run",
            traced.refills as f64,
            "count",
        ),
        metric("serve.handshake_ms", span("serve.handshake_ms", 1e3)?, "ms"),
        metric(
            "serve.journal_append_us",
            span("serve.journal_append_us", 1e6)?,
            "us",
        ),
        metric(
            "serve.journal_appends_per_job",
            traced.journal_appends as f64 / jobs,
            "count",
        ),
        metric(
            "serve.busy_ratio",
            traced.busy as f64 / traced.attempted as f64,
            "ratio",
        ),
        Metric {
            unit: "ms",
            ..pct_metric(
                "bench.lag_ms_p90",
                &column(&traced.samples, |s| s.lag_ms),
                90,
            )
        },
        metric(
            "bench.trace_overhead_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
        ),
        metric("host.nproc", host::nproc() as f64, "count"),
    ];
    Ok((
        metrics,
        untraced.attempted + traced.attempted,
        untraced.failed + traced.failed,
    ))
}

/// Prints every metric by name with its unit (and a percentile's sample
/// support), then the result object as the last line.
fn print_result(metrics: &[Metric], attempted: u64, failed: u64) {
    for m in metrics {
        match &m.note {
            Some(note) => println!("{} = {} {} ({note})", m.name, m.value, m.unit),
            None => println!("{} = {} {}", m.name, m.value, m.unit),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
