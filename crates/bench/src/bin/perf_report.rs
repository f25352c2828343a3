//! Machine-readable perf report: the repo's trajectory baseline artifact.
//!
//! Runs a representative secure matvec three ways — the threaded 4-unit
//! bank, the single-unit `CloudServer`, and a genuine
//! two-party GC execution over the typed channel layer — with the global
//! telemetry recorder installed, then prints the cost attribution as human
//! tables and writes the full snapshot to `BENCH_matvec.json`.
//!
//! ```text
//! cargo run --release -p max-bench --bin perf_report [rows cols]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use max_bench::{multi_unit_perf, multi_unit_perf_header, multi_unit_perf_row, row, rule, sci};
use max_crypto::AesBackend;
use max_gc::protocol::{run_two_party, trusted_transfer};
use max_gc::{Garbler, PrgLabelSource};
use max_telemetry::report::JsonValue;
use max_telemetry::{Recorder, Snapshot};
use maxelerator::{
    connect, connect_multi, secure_matvec, secure_matvec_multi, AcceleratorConfig, MatvecTranscript,
};

const UNITS: usize = 4;

/// Measures steady-state per-element garbling throughput under whatever
/// AES backend is active in this process.
///
/// One output element of a `cols`-wide model is `cols` garbled MAC-round
/// circuits; this drives the GC engine (`Garbler` over the MAC netlist)
/// directly so the measurement isolates the crypto hot path the SIMD
/// backend accelerates, not the cycle-accurate fabric model around it.
fn garble_throughput(config: &AcceleratorConfig, cols: usize) -> f64 {
    let netlist = config.mac_circuit().netlist().clone();
    let mut labels = PrgLabelSource::new(max_crypto::Block::new(0x6a5b));
    // Warm up the backend detection, key schedule, and allocator.
    let _ = Garbler::new(&mut labels).garble(&netlist, 0);
    let budget = Duration::from_millis(400);
    let start = Instant::now();
    let mut circuits = 0u64;
    while circuits < 3 || start.elapsed() < budget {
        let gc = Garbler::new(&mut labels).garble(&netlist, circuits << 32);
        std::hint::black_box(gc.material().wire_bytes());
        circuits += 1;
    }
    circuits as f64 / start.elapsed().as_secs_f64() / cols as f64
}

/// Re-runs this binary with `MAX_AES_BACKEND=software` to measure the
/// software-scalar baseline: the backend choice is cached per process, so
/// the comparison needs a child process.
fn software_baseline(rows: usize, cols: usize) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(exe)
        .args(["--garble-baseline", &rows.to_string(), &cols.to_string()])
        .env("MAX_AES_BACKEND", "software")
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let stdout = String::from_utf8(out.stdout).ok()?;
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("garble_elements_per_sec "))
        .and_then(|v| v.trim().parse().ok())
}

fn demo_weights(rows: usize, cols: usize) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| ((r * 13 + c * 7) % 255) as i64 - 127)
                .collect()
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("--garble-baseline") {
        let rows: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
        let cols: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
        let _ = rows;
        let config = AcceleratorConfig::new(8);
        let eps = garble_throughput(&config, cols);
        println!("garble_backend {}", AesBackend::active().label());
        println!("garble_elements_per_sec {eps}");
        return;
    }
    let rows: usize = first.and_then(|s| s.parse().ok()).unwrap_or(16);
    let cols: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    if rows == 0 || cols == 0 {
        eprintln!("perf_report needs a non-empty workload (got {rows}x{cols})");
        std::process::exit(2);
    }
    let config = AcceleratorConfig::new(8);

    let recorder = Arc::new(Recorder::new());
    max_telemetry::install(Arc::clone(&recorder));

    let weights = demo_weights(rows, cols);
    let x: Vec<i64> = (0..cols).map(|c| ((c * 5) % 251) as i64 - 125).collect();
    let expected: Vec<i64> = weights
        .iter()
        .map(|w| w.iter().zip(&x).map(|(a, b)| a * b).sum())
        .collect();

    println!("perf_report: secure matvec {rows}x{cols}, b=8 signed, {UNITS}-unit pipeline");
    println!();

    // Workload 1 — threaded multi-unit bank (per-unit timeline +
    // multi_unit.* counters, recorded explicitly from its timing). It runs
    // first, and the unit table reads a
    // snapshot taken right after it: the single-unit CloudServer below is
    // a one-unit bank whose garbling would otherwise join lane 0.
    let (mut multi, mut multi_client) = connect_multi(&config, weights.clone(), UNITS, 1);
    let (got_multi, _, timing) = secure_matvec_multi(&mut multi, &mut multi_client, &x)
        .expect("in-process frames are well-formed");
    assert_eq!(got_multi, expected, "multi-unit result mismatch");
    timing.record_into(&recorder);
    let units_snapshot = recorder.snapshot();

    // Workload 2 — single-unit CloudServer. Spans: the client thread's
    // secure_matvec/remote.client_job, the server end's remote.stream_job
    // and the unit thread's unit_garble (which carries the fabric cycles).
    let (mut server, mut client) = connect(&config, weights.clone(), 1);
    let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
    assert_eq!(got, expected, "single-unit result mismatch");

    // Workload 3 — genuine two-party GC over the typed channel layer, so
    // the per-kind byte breakdown (blocks/tables/bits) is populated.
    let netlist = config.mac_circuit().netlist().clone();
    let g_bits: Vec<bool> = (0..netlist.garbler_inputs().len())
        .map(|i| i % 3 == 0)
        .collect();
    let e_bits: Vec<bool> = (0..netlist.evaluator_inputs().len())
        .map(|i| i % 2 == 0)
        .collect();
    let _ = run_two_party(
        &netlist,
        &g_bits,
        &e_bits,
        max_crypto::Block::new(0x7e1e),
        trusted_transfer(),
    );

    let snapshot = recorder.snapshot();
    max_telemetry::uninstall();

    // Workload 4 — steady-state garbling throughput under the active AES
    // backend, with the software-scalar baseline measured in a child
    // process (backend choice is cached per process).
    let backend = AesBackend::active().label();
    let eps = garble_throughput(&config, cols);
    let software_eps = software_baseline(rows, cols);

    print_spans(&snapshot);
    print_gates(&snapshot, &transcript);
    print_channel(&snapshot);
    print_ot(&snapshot, &transcript);
    print_units(&units_snapshot);
    print_garbling(backend, eps, software_eps);

    let json = build_json(
        rows,
        cols,
        &transcript,
        &snapshot,
        backend,
        eps,
        software_eps,
    );
    let path = "BENCH_matvec.json";
    std::fs::write(path, json.render_pretty()).expect("write perf artifact");
    println!();
    println!("wrote {path}");
}

fn print_spans(snapshot: &Snapshot) {
    let widths = [30usize, 7, 12, 12];
    println!("Per-phase spans (wall-clock + modeled fabric cycles):");
    println!(
        "  {}",
        row(
            &["span", "count", "wall (ms)", "cycles"].map(String::from),
            &widths
        )
    );
    println!("  {}", rule(&widths));
    if snapshot.spans.is_empty() {
        println!("  (none recorded)");
        return;
    }
    for span in &snapshot.spans {
        println!(
            "  {}",
            row(
                &[
                    span.path.clone(),
                    format!("{}", span.count),
                    format!("{:.2}", span.wall_ns as f64 / 1e6),
                    if span.cycles > 0 {
                        sci(span.cycles as f64)
                    } else {
                        "-".to_string()
                    },
                ],
                &widths
            )
        );
    }
}

fn print_gates(snapshot: &Snapshot, transcript: &MatvecTranscript) {
    println!();
    println!("Garbling cost attribution:");
    let and = snapshot.counter("gc.gates.and");
    let xor = snapshot.counter("gc.gates.xor");
    println!("  AND gates garbled        {and:>12}  (2 ciphertexts each)");
    println!("  XOR gates (free)         {xor:>12}  (0 ciphertexts — Free-XOR)");
    println!(
        "  garbled tables           {:>12}  (telemetry: {})",
        transcript.tables,
        snapshot.counter("gc.tables")
    );
    println!(
        "  AES invocations          {:>12}  garble / {:>} evaluate",
        snapshot.counter("gc.aes.garble"),
        snapshot.counter("gc.aes.evaluate")
    );
}

fn print_channel(snapshot: &Snapshot) {
    println!();
    println!("Channel bytes by message kind (in-process sessions + 2PC wire):");
    let widths = [8usize, 12, 10];
    println!(
        "  {}",
        row(&["kind", "bytes", "frames"].map(String::from), &widths)
    );
    println!("  {}", rule(&widths));
    for kind in ["raw", "blocks", "tables", "bits"] {
        let bytes = snapshot.counter(match kind {
            "raw" => "channel.raw.bytes",
            "blocks" => "channel.blocks.bytes",
            "tables" => "channel.tables.bytes",
            _ => "channel.bits.bytes",
        });
        let frames = snapshot.counter(match kind {
            "raw" => "channel.raw.messages",
            "blocks" => "channel.blocks.messages",
            "tables" => "channel.tables.messages",
            _ => "channel.bits.messages",
        });
        println!(
            "  {}",
            row(
                &[kind.to_string(), format!("{bytes}"), format!("{frames}"),],
                &widths
            )
        );
    }
    println!(
        "  total: {} bytes in {} frames",
        snapshot.counter("channel.bytes"),
        snapshot.counter("channel.messages")
    );
}

fn print_ot(snapshot: &Snapshot, transcript: &MatvecTranscript) {
    println!();
    println!("Oblivious transfer:");
    println!(
        "  base OTs                 {:>12}",
        snapshot.counter("ot.base.transfers")
    );
    println!(
        "  extension rounds         {:>12}  ({} transfers)",
        snapshot.counter("ot.ext.rounds"),
        snapshot.counter("ot.ext.transfers")
    );
    println!(
        "  download bytes           {:>12}  (transcript: {})",
        snapshot.counter("ot.ext.download_bytes"),
        transcript.ot_bytes
    );
    println!(
        "  upload bytes             {:>12}  (transcript: {})",
        snapshot.counter("ot.ext.upload_bytes"),
        transcript.ot_upload_bytes
    );
}

fn print_units(snapshot: &Snapshot) {
    println!();
    println!("Multi-unit pipeline ({UNITS} units):");
    match multi_unit_perf(snapshot) {
        Some(perf) => {
            println!("  {}", multi_unit_perf_header());
            println!("  {}", rule(&max_bench::MULTI_UNIT_WIDTHS));
            println!("  {}", multi_unit_perf_row(&perf));
        }
        None => println!("  (no multi-unit run recorded)"),
    }
    if let Some(timeline) = snapshot.timeline("multi_unit.units") {
        println!(
            "  per-unit busy (makespan {:.2} ms):",
            timeline.makespan_ns() as f64 / 1e6
        );
        for lane in timeline.lanes() {
            println!(
                "    unit {lane}: {:.2} ms busy",
                timeline.lane_busy_ns(lane) as f64 / 1e6
            );
        }
    }
}

fn print_garbling(backend: &str, eps: f64, software_eps: Option<f64>) {
    println!();
    println!("Per-element garbling throughput (elements/sec, GC engine):");
    println!("  {backend:<10} {:>12.0}", eps);
    match software_eps {
        Some(sw) if sw > 0.0 => {
            println!("  {:<10} {sw:>12.0}", "software");
            println!("  speedup    {:>12.2}x", eps / sw);
        }
        _ => println!("  (software baseline unavailable)"),
    }
}

fn build_json(
    rows: usize,
    cols: usize,
    transcript: &MatvecTranscript,
    snapshot: &Snapshot,
    backend: &str,
    eps: f64,
    software_eps: Option<f64>,
) -> JsonValue {
    let mut workload = JsonValue::object();
    workload
        .push("rows", JsonValue::UInt(rows as u64))
        .push("cols", JsonValue::UInt(cols as u64))
        .push("bit_width", JsonValue::UInt(8))
        .push("units", JsonValue::UInt(UNITS as u64));

    // The serde stub is marker-only, so the transcript is laid out by hand.
    let mut t = JsonValue::object();
    t.push("elements", JsonValue::UInt(transcript.elements as u64))
        .push("rounds", JsonValue::UInt(transcript.rounds))
        .push("tables", JsonValue::UInt(transcript.tables))
        .push("material_bytes", JsonValue::UInt(transcript.material_bytes))
        .push("ot_bytes", JsonValue::UInt(transcript.ot_bytes))
        .push(
            "ot_upload_bytes",
            JsonValue::UInt(transcript.ot_upload_bytes),
        )
        .push("fabric_cycles", JsonValue::UInt(transcript.fabric_cycles))
        .push(
            "fabric_seconds",
            JsonValue::Float(transcript.fabric_seconds),
        );

    let mut garbling = JsonValue::object();
    garbling
        .push("backend", JsonValue::Str(backend.to_string()))
        .push("elements_per_sec", JsonValue::Float(eps));
    if let Some(sw) = software_eps {
        garbling
            .push("software_elements_per_sec", JsonValue::Float(sw))
            .push(
                "speedup_vs_software",
                JsonValue::Float(if sw > 0.0 { eps / sw } else { 0.0 }),
            );
    }

    let mut root = JsonValue::object();
    root.push("schema", JsonValue::Str("maxelerator-perf-v1".to_string()))
        .push("workload", workload)
        .push("transcript", t)
        .push("garbling", garbling)
        .push("telemetry", snapshot.to_json());
    root
}
