//! The traced run's per-layer harness: each span is timed around one call
//! into a layer's public API, from this file, and carries the id of the
//! job it belongs to. One job's worth of every layer runs end to end in
//! process — garble, materialize, digest, OT extension, sealing,
//! evaluation — and the result is checked against plaintext, so a layer
//! that got fast by getting wrong cannot report a number.

use std::hint::black_box;
use std::time::Instant;

use bytes::{BufMut, BytesMut};
use max_crypto::TranscriptDigest;
use max_gc::channel::{encode_block_pairs, open_frame, seal_frame};
use max_ot::iknp;
use max_registry::{ModelRegistry, RegistryConfig};
use max_rng::LabelGenerator;
use max_serve::{plain_matvec, Journal, JournalConfig, SessionCheckpoint};
use maxelerator::remote::{derive_seed, garble_matvec_job, materialize_job, stream_digest};
use maxelerator::{AcceleratorConfig, Maxelerator, Schedule, ScheduledEvaluator};

use crate::serving::{RunInputs, COLS, ROWS, WIDTH};

/// Jobs the layer harness runs end to end.
const LAYER_JOBS: u64 = 12;
/// Job ids of the layer harness (disjoint from served jobs).
const LAYER_JOB_BASE: u64 = 3 << 61;
/// Registry fill steps (and acquisitions) timed.
const FILL_STEPS: u64 = 6;
/// Journal checkpoint appends timed (below the journal's 64-append
/// rotation, so no compaction lands inside a span).
const JOURNAL_APPENDS: u64 = 48;

/// One timed call or counted quantity, keyed by the job it belongs to.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: &'static str,
    job: u64,
    value: f64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a measured quantity for `job`.
    pub fn record(&mut self, layer: &'static str, job: u64, value: f64) {
        self.spans.push(Span { layer, job, value });
    }

    /// Runs `f`, recording its wall time in seconds under `layer`.
    fn time<T>(&mut self, layer: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = black_box(f());
        self.record(layer, job, t0.elapsed().as_secs_f64());
        out
    }

    /// Median of a layer's values; `None` if it recorded none.
    pub fn median(&self, layer: &str) -> Option<f64> {
        let values: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.value)
            .collect();
        (!values.is_empty()).then(|| crate::stats::median(&values))
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Distinct jobs the spans cover.
    pub fn jobs(&self) -> usize {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

/// Runs the layer harness, appending its spans. `Err` names a wrong
/// result.
pub fn measure(inputs: &RunInputs, spans: &mut Spans) -> Result<(), String> {
    let cfg = AcceleratorConfig::new(WIDTH);
    let mac = cfg.mac_circuit();
    let cores = Maxelerator::new(cfg.clone(), 0).cores();
    for j in 0..LAYER_JOBS {
        let job = LAYER_JOB_BASE + j;
        let seed = derive_seed(inputs.seed, job);
        let weights = &inputs.weights;
        let x = inputs.vector(job);
        let expected = plain_matvec(weights, &x);

        // maxelerator: the pool's whole garble, then its parts.
        let garbled = spans
            .time("core.garble_job_ms", job, || {
                garble_matvec_job(&cfg, weights, seed, 1)
            })
            .map_err(|err| format!("garble job {job}: {err}"))?;
        spans.time("core.schedule_compile_ms", job, || {
            // Once per element, as `try_garble_job` compiles today.
            for _ in 0..ROWS {
                black_box(Schedule::compile(
                    mac.netlist(),
                    cores,
                    COLS,
                    cfg.state_range(),
                ));
            }
        });
        let mut accel = Maxelerator::new(cfg.clone(), seed);
        for (r, row) in weights.iter().enumerate() {
            accel.begin_element(r as u32);
            accel
                .try_garble_job(row, true)
                .map_err(|err| format!("garble element {r} of job {job}: {err}"))?;
        }
        let labels = accel.report().labels_generated;
        spans.record("core.labels_per_job", job, labels as f64);
        let mut generator = LabelGenerator::new(seed, WIDTH);
        let t0 = Instant::now();
        for _ in 0..labels {
            black_box(generator.next_label());
        }
        let per_label = t0.elapsed().as_secs_f64() / labels.max(1) as f64;
        spans.record("rng.label_us", job, per_label);
        let materialized = spans.time("core.materialize_ms", job, || materialize_job(&garbled));
        spans.time("crypto.stream_digest_ms", job, || {
            stream_digest(&materialized)
        });

        // max-ot + max-gc + client evaluation, element by element.
        let (mut sender, mut receiver) = spans.time("ot.setup_ms", job, || iknp::setup_pair(seed));
        let mut evaluator = ScheduledEvaluator::new(&cfg);
        let (mut ot_s, mut eval_s, mut seal_s, mut fold_s) = (0.0, 0.0, 0.0, 0.0);
        let mut folded = 0usize;
        let mut digest = TranscriptDigest::new();
        let mut y = Vec::with_capacity(ROWS);
        for (e, row) in garbled.rows.iter().enumerate() {
            let choices: Vec<bool> = x.iter().flat_map(|&xl| cfg.encode_x(xl)).collect();
            let t0 = Instant::now();
            let (ext, keys) = receiver.prepare(&choices);
            let cipher = sender.send(&ext, &row.pairs);
            let x_labels = receiver.receive(&cipher, &keys, &choices);
            ot_s += t0.elapsed().as_secs_f64();

            let mut ext_frame = BytesMut::with_capacity(9 + ext.columns.len() * 8 + 16);
            ext_frame.put_u8(0);
            ext_frame.put_u32(ext.count as u32);
            ext_frame.put_u32(ext.columns.first().map_or(0, Vec::len) as u32);
            for word in ext.columns.iter().flatten() {
                ext_frame.put_u64(*word);
            }
            ext_frame.put_slice(&digest.value());
            let frames = [
                ext_frame.freeze(),
                encode_block_pairs(&cipher.pairs),
                materialized.elements[e].rounds_frame.clone(),
            ];
            let t0 = Instant::now();
            for frame in &frames {
                digest.fold(frame);
            }
            fold_s += t0.elapsed().as_secs_f64();
            folded += frames.iter().map(|f| f.len()).sum::<usize>();
            let t0 = Instant::now();
            for frame in &frames {
                let opened = open_frame(seal_frame(frame.clone()))
                    .map_err(|err| format!("seal/open job {job}: {err:?}"))?;
                black_box(opened);
            }
            seal_s += t0.elapsed().as_secs_f64();

            evaluator.begin_element(e as u32);
            let t0 = Instant::now();
            let mut decoded = None;
            for (i, msg) in row.messages.iter().enumerate() {
                decoded = evaluator
                    .evaluate_round(msg, &x_labels[i * WIDTH..(i + 1) * WIDTH])
                    .map_err(|err| format!("evaluate job {job}: {err}"))?;
            }
            eval_s += t0.elapsed().as_secs_f64();
            y.push(decoded.ok_or_else(|| format!("job {job}: no decode bits"))?);
        }
        if y != expected {
            return Err(format!(
                "layer job {job}: evaluated {y:?}, plaintext {expected:?}"
            ));
        }
        spans.record("ot.ext_ms", job, ot_s);
        spans.record("core.evaluate_ms", job, eval_s);
        spans.record("gc.seal_open_us_per_job", job, seal_s);
        spans.record(
            "crypto.digest_mib_per_s",
            job,
            folded as f64 / (1 << 20) as f64 / fold_s,
        );
    }

    // max-registry: background fill steps, then single-use acquisitions.
    let registry = ModelRegistry::new(
        cfg.clone(),
        RegistryConfig {
            target_stock: FILL_STEPS as usize,
            ..RegistryConfig::default()
        },
        derive_seed(inputs.seed, LAYER_JOB_BASE - 1),
    );
    registry
        .register(1, inputs.weights.clone())
        .map_err(|err| format!("register: {err}"))?;
    for step in 0..FILL_STEPS {
        let report = spans.time("registry.fill_ms", LAYER_JOB_BASE + step, || {
            registry.fill_step()
        });
        match report {
            Some(Ok(r)) if r.deposited => {}
            other => return Err(format!("fill step {step} deposited nothing: {other:?}")),
        }
    }
    for step in 0..FILL_STEPS {
        let acquired = spans.time("registry.acquire_us", LAYER_JOB_BASE + step, || {
            registry.acquire(1, 1)
        });
        if !matches!(acquired, Some(max_registry::Acquired::Prepared(_))) {
            return Err(format!("acquire {step} missed a stocked stream"));
        }
    }

    // max-serve: fsync'd checkpoint appends, in the directory kind `churn`
    // journals to.
    let dir = inputs
        .work_dir
        .join(format!("layer-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) =
        Journal::open(JournalConfig::new(&dir)).map_err(|err| format!("journal open: {err}"))?;
    let (sender, _) = iknp::setup_pair(inputs.seed);
    for n in 0..JOURNAL_APPENDS {
        let checkpoint = SessionCheckpoint {
            session_id: n,
            resume_token: derive_seed(inputs.seed, n),
            session_seed: inputs.seed,
            next_job: 1,
            job_id: 0,
            columns: 1,
            job_seed: derive_seed(inputs.seed, n + 1),
            model_id: Some(1),
            snapshots: vec![
                (0, sender.clone(), TranscriptDigest::new()),
                (1, sender.clone(), TranscriptDigest::new()),
            ],
        };
        spans
            .time("serve.journal_append_us", LAYER_JOB_BASE + n, || {
                journal.append_checkpoint(&checkpoint)
            })
            .map_err(|err| format!("journal append: {err}"))?;
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
