//! Per-session protocol loop: handshake or resume, job dispatch,
//! heartbeats, round checkpoints, idle reaping.
//!
//! One session = one client connection = one thread (blocking transports).
//! The loop owns the transport and the session's OT sender state; garbling
//! happens elsewhere, on the unit pool, so a slow client streaming rounds
//! never occupies a garbling unit.
//!
//! A connection opens with either HELLO (fresh session) or RESUME
//! (reconnect into an interrupted job, validated against the
//! [`ResumeRegistry`](crate::resume::ResumeRegistry)). During the
//! lock-step job exchange the transport runs under the per-step deadline;
//! between jobs it falls back to the idle timeout, and PING/PONG
//! heartbeats keep an intentionally quiet session alive.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use max_crypto::TranscriptDigest;
use max_gc::Transport;
use max_ot::iknp::{self, OtExtSender};
use max_registry::{Acquired, PreparedStream, RegisterError};
use max_telemetry::{FlightRecorder, TraceContext};
use maxelerator::remote::{
    derive_seed, materialize_job, recv_control, send_control, stream_materialized_job_from,
    ControlMsg, MaterializedJob, PROTOCOL_VERSION, REJECT_DRAINING, REJECT_MODEL, REJECT_OVERLOAD,
    REJECT_RESUME, REJECT_VERSION, REJECT_WIDTH, STREAM_DIGEST_MISMATCH,
};
use maxelerator::AcceleratorError;

use crate::resume::SessionCheckpoint;
use crate::service::ServiceShared;

/// Largest matmul a single job request may ask for (columns).
pub const MAX_JOB_COLUMNS: u32 = 64;

/// Draws an unguessable per-session resume token from OS entropy.
///
/// Deliberately *not* derived from the seed chain: [`derive_seed`] is an
/// invertible bijection and `ot_seed` (also seed-derived) is published in
/// ACCEPT, so a seed-derived token would let any client invert its own
/// `ot_seed` back to `base_seed` and forge every other session's token.
fn fresh_resume_token() -> u64 {
    use std::io::Read;
    let mut buf = [0u8; 8];
    match std::fs::File::open("/dev/urandom").and_then(|mut f| f.read_exact(&mut buf)) {
        Ok(()) => u64::from_le_bytes(buf),
        Err(_) => {
            // Portable fallback: `RandomState`'s SipHash keys are seeded
            // from OS entropy, and its output never appears on the wire.
            use std::hash::{BuildHasher, Hasher};
            let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
            hasher.write_u64(0x7e57);
            hasher.finish()
        }
    }
}

/// Identity and seed material of a live session, common to the fresh and
/// resumed entry paths, plus the session's flight ring (shared with the
/// transport wrapper).
struct SessionCtx<'a> {
    session_id: u64,
    session_seed: u64,
    resume_token: u64,
    next_job: u64,
    trace: TraceContext,
    flight: Option<&'a FlightRecorder>,
}

/// Records an instantaneous server-side trace event when the service has a
/// recorder attached and the session is traced.
fn trace_instant(shared: &ServiceShared, trace: TraceContext, name: &str) {
    if trace.is_traced() {
        if let Some(rec) = &shared.recorder {
            rec.record_trace_instant(trace, name);
        }
    }
}

/// Identity of one streamed job: what a [`SessionCheckpoint`] must record
/// to rebuild it after a disconnect.
struct JobRun {
    job_id: u64,
    columns: u32,
    job_seed: u64,
    /// Prepared model the job ran against (`None` = session default
    /// matrix); recorded in checkpoints so a RESUME re-garbles from the
    /// registry's weights.
    model_id: Option<u64>,
    start_element: usize,
    /// Fill-time digest of a prepared stream, re-verified (pipelined
    /// behind READY) before any material frame leaves; `None` for
    /// pool-garbled and resumed jobs, whose material was never cached.
    expected_digest: Option<[u8; 16]>,
}

/// Builds the checkpoint covering the current snapshot window — the value
/// both the in-memory registry (on error) and the durable journal (every
/// boundary) persist.
fn window_checkpoint(
    ctx: &SessionCtx<'_>,
    run: &JobRun,
    snapshots: &VecDeque<(usize, OtExtSender, TranscriptDigest)>,
) -> SessionCheckpoint {
    SessionCheckpoint {
        session_id: ctx.session_id,
        resume_token: ctx.resume_token,
        session_seed: ctx.session_seed,
        next_job: run.job_id + 1,
        job_id: run.job_id,
        columns: run.columns,
        job_seed: run.job_seed,
        model_id: run.model_id,
        snapshots: snapshots.iter().cloned().collect(),
    }
}

/// Journals the current window, if a journal is configured. A failed
/// append degrades durability, not availability: it is counted and flight-
/// logged, and the session keeps streaming from memory.
fn journal_window(
    shared: &ServiceShared,
    ctx: &SessionCtx<'_>,
    run: &JobRun,
    snapshots: &VecDeque<(usize, OtExtSender, TranscriptDigest)>,
) {
    let Some(journal) = &shared.journal else {
        return;
    };
    if let Err(err) = journal.append_checkpoint(&window_checkpoint(ctx, run, snapshots)) {
        max_telemetry::counter_add("serve.journal.append_errors", 1);
        if let Some(flight) = ctx.flight {
            flight.log("journal.error", format!("{err}"), 0);
        }
    }
}

/// Appends a journal tombstone for `session_id` after its in-flight work
/// stopped needing recovery (job done, clean BYE, or checkpoint evicted).
fn journal_remove(shared: &ServiceShared, session_id: u64) {
    if let Some(journal) = &shared.journal {
        if journal.append_remove(session_id).is_err() {
            max_telemetry::counter_add("serve.journal.append_errors", 1);
        }
    }
}

/// Streams one job under the per-step deadline, snapshotting the OT sender
/// at each element boundary; every boundary is journaled (durable) and on
/// failure the final window is deposited in the in-memory registry,
/// covering the client's two possible rollback points.
fn stream_job_checkpointed<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    ctx: &SessionCtx<'_>,
    job: &MaterializedJob,
    ot_sender: &mut OtExtSender,
    run: &JobRun,
    mut digest: TranscriptDigest,
) -> Result<(), AcceleratorError> {
    let _stream_span = shared
        .recorder
        .as_ref()
        .filter(|_| ctx.trace.is_traced())
        .map(|rec| rec.trace_span(ctx.trace, "server/stream"));
    let mut snapshots: VecDeque<(usize, OtExtSender, TranscriptDigest)> =
        VecDeque::with_capacity(3);
    snapshots.push_back((run.start_element, ot_sender.clone(), digest.clone()));
    // The pre-job boundary goes to disk before READY: a crash anywhere in
    // the exchange now has a durable floor to resume from.
    journal_window(shared, ctx, run, &snapshots);
    if shared.step_timeout.is_some() {
        transport.set_idle_timeout(shared.step_timeout);
    }
    let result = stream_materialized_job_from(
        transport,
        job,
        ot_sender,
        &mut digest,
        run.job_id,
        ctx.trace,
        run.start_element,
        run.expected_digest,
        |next, sender, boundary_digest| {
            snapshots.push_back((next, sender.clone(), boundary_digest.clone()));
            if snapshots.len() > 2 {
                snapshots.pop_front();
            }
            journal_window(shared, ctx, run, &snapshots);
        },
    );
    transport.set_idle_timeout(shared.idle_timeout);
    match result {
        Ok(_) => {
            // The job finished on this connection: a restart must not
            // resurrect (and a reconnect must not replay) it.
            journal_remove(shared, ctx.session_id);
            Ok(())
        }
        Err(err) => {
            if matches!(err, AcceleratorError::Integrity { .. }) {
                shared.integrity_rejects.fetch_add(1, Ordering::Relaxed);
                if let Some(flight) = ctx.flight {
                    flight.log("integrity.reject", format!("{err}"), run.job_id);
                }
                // A prepared stream that no longer matches its fill-time
                // digest is cache/disk rot, not a wire fault: count the
                // drop so operators can see material decaying in stock.
                if matches!(err, AcceleratorError::Integrity { what } if what == STREAM_DIGEST_MISMATCH)
                {
                    shared.registry.note_integrity_drop();
                }
            }
            let elements_kept = snapshots.back().map_or(0, |(next, _, _)| *next as u64);
            let evicted = shared.resume.save(window_checkpoint(ctx, run, &snapshots));
            shared.checkpoints_saved.fetch_add(1, Ordering::Relaxed);
            trace_instant(shared, ctx.trace, "server/checkpoint");
            if let Some(flight) = ctx.flight {
                flight.log(
                    "checkpoint.saved",
                    format!("job {}", run.job_id),
                    elements_kept,
                );
                if let Some(victim) = evicted {
                    flight.log("resume.evicted", format!("session {victim}"), victim);
                }
            }
            if let Some(victim) = evicted {
                // Keep disk and memory telling the same story: the evicted
                // session can no longer resume, live or after a restart.
                journal_remove(shared, victim);
            }
            Err(err)
        }
    }
}

/// Runs one session over `transport` until BYE, disconnect, idle timeout,
/// or a protocol violation.
///
/// Returns the trace id the client put in its HELLO/RESUME (0 = untraced
/// or no handshake), which tags the flight-recorder dump of an error-ending
/// session, alongside how it ended: `Ok` for clean closes (BYE, disconnect
/// between jobs, idle timeout, handshake rejection), the killing error
/// otherwise. Job and checkpoint tallies land on the shared counters at
/// event time.
pub(crate) fn run_session<T: Transport>(
    shared: &ServiceShared,
    mut transport: T,
    session_id: u64,
    flight: Option<Arc<FlightRecorder>>,
) -> (u128, Result<(), AcceleratorError>) {
    let mut trace_id = 0;
    let outcome = session_loop(
        shared,
        &mut transport,
        session_id,
        &mut trace_id,
        flight.as_deref(),
    );
    (trace_id, outcome)
}

fn session_loop<T: Transport>(
    shared: &ServiceShared,
    transport: &mut T,
    session_id: u64,
    trace_id: &mut u128,
    flight: Option<&FlightRecorder>,
) -> Result<(), AcceleratorError> {
    transport.set_idle_timeout(shared.idle_timeout);

    // METRICS is valid before the handshake (operators poll without
    // becoming a session), so keep answering until a real first frame.
    let first = loop {
        match recv_control(transport) {
            Ok(ControlMsg::MetricsRequest) => {
                send_control(
                    transport,
                    &ControlMsg::MetricsReply {
                        body: shared.metrics_json(),
                    },
                )?;
            }
            Ok(msg) => break msg,
            Err(AcceleratorError::Disconnected) => return Ok(()),
            Err(AcceleratorError::Transport(max_gc::channel::TransportError::TimedOut)) => {
                max_telemetry::counter_add("serve.sessions.idle_reaped", 1);
                if let Some(flight) = flight {
                    flight.log("deadline.reap", "handshake", 0);
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    };

    let reject = |transport: &mut T, code: u8, detail: u32| {
        send_control(transport, &ControlMsg::Reject { code, detail })
    };
    // Jobs completed on this connection, for the `serve.session.jobs`
    // histogram.
    let mut jobs_completed = 0u64;

    let (mut ctx, mut ot_sender) = match first {
        ControlMsg::Hello {
            version,
            bit_width,
            trace,
        } => {
            *trace_id = trace.trace_id;
            if shared.is_draining() {
                reject(transport, REJECT_DRAINING, 0)?;
                return Ok(());
            }
            if shared.breaker.should_shed() {
                if let Some(flight) = flight {
                    flight.log(
                        "breaker.shed",
                        "handshake",
                        u64::from(shared.breaker.config().retry_after_ms),
                    );
                }
                reject(
                    transport,
                    REJECT_OVERLOAD,
                    shared.breaker.config().retry_after_ms,
                )?;
                return Ok(());
            }
            if version != PROTOCOL_VERSION {
                reject(transport, REJECT_VERSION, u32::from(PROTOCOL_VERSION))?;
                return Ok(());
            }
            if bit_width as usize != shared.config.bit_width {
                reject(transport, REJECT_WIDTH, shared.config.bit_width as u32)?;
                return Ok(());
            }
            let session_seed = derive_seed(shared.base_seed, session_id);
            let ot_seed = derive_seed(session_seed, 0x07);
            let resume_token = if shared.deterministic_resume_tokens {
                // Test-only reproducibility escape hatch — forgeable; see
                // `ServeConfig::deterministic_resume_tokens`.
                derive_seed(session_seed, 0x7e57)
            } else {
                fresh_resume_token()
            };
            send_control(
                transport,
                &ControlMsg::Accept {
                    session_id,
                    ot_seed,
                    resume_token,
                    rows: shared.weights.len() as u32,
                    cols: shared.weights.first().map_or(0, Vec::len) as u32,
                    bit_width: shared.config.bit_width as u32,
                    acc_width: shared.config.acc_width as u32,
                    signed: shared.config.signed,
                    freq_mhz_bits: shared.config.freq_mhz.to_bits(),
                },
            )?;
            let (ot_sender, _client_half) = iknp::setup_pair(ot_seed);
            trace_instant(shared, trace, "server/handshake");
            (
                SessionCtx {
                    session_id,
                    session_seed,
                    resume_token,
                    next_job: 0,
                    trace,
                    flight,
                },
                ot_sender,
            )
        }
        ControlMsg::Resume {
            session_id: resumed_id,
            resume_token,
            job_id,
            columns,
            elements_done,
            trace,
        } => {
            *trace_id = trace.trace_id;
            // Resumes finish work already admitted: allowed while draining
            // and while the breaker sheds new load.
            let checkpoint = shared.resume.lookup(resumed_id);
            let valid = checkpoint.as_ref().is_some_and(|cp| {
                cp.resume_token == resume_token
                    && cp.job_id == job_id
                    && cp.columns == columns
                    && cp.snapshot_at(elements_done as usize).is_some()
            });
            let Some(checkpoint) = checkpoint.filter(|_| valid) else {
                reject(transport, REJECT_RESUME, 0)?;
                return Ok(());
            };
            // A model job resumes by re-garbling from the registry's
            // weights with the checkpoint's seed (bit-identical to the
            // consumed stream). If the model was evicted since, the
            // checkpoint is unservable — same refusal as unknown state.
            let model_weights = match checkpoint.model_id {
                None => None,
                Some(model_id) => match shared.registry.weights(model_id) {
                    Some(weights) => Some(weights),
                    None => {
                        max_telemetry::counter_add("serve.resume.model_evicted", 1);
                        reject(transport, REJECT_RESUME, 0)?;
                        return Ok(());
                    }
                },
            };
            let request = crate::scheduler::JobRequest {
                session_id: resumed_id,
                job_id,
                columns,
                seed: checkpoint.job_seed,
                weights: model_weights,
                trace,
            };
            let result_rx = match shared.pool.submit(request) {
                Ok(rx) => rx,
                Err(full) => {
                    // The checkpoint stays put; the client backs off and
                    // re-sends RESUME on its next connection.
                    shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    send_control(
                        transport,
                        &ControlMsg::Busy {
                            retry_after_ms: shared.retry_after_ms,
                            queue_depth: full.queue_depth as u32,
                        },
                    )?;
                    return Ok(());
                }
            };
            let start_element = elements_done as usize;
            let Some((sender, digest)) = checkpoint
                .snapshot_at(start_element)
                .map(|(sender, digest)| (sender.clone(), digest.clone()))
            else {
                // Unreachable given `valid`, but never panic on peer input.
                reject(transport, REJECT_RESUME, 0)?;
                return Ok(());
            };
            let mut ot_sender = sender;
            let job =
                materialize_job(&result_rx.recv().map_err(|_| AcceleratorError::Protocol {
                    what: "unit pool shut down mid-job",
                })??);
            let ctx = SessionCtx {
                session_id: resumed_id,
                session_seed: checkpoint.session_seed,
                resume_token: checkpoint.resume_token,
                next_job: checkpoint.next_job,
                trace,
                flight,
            };
            trace_instant(shared, trace, "server/resume_restore");
            if let Some(flight) = flight {
                flight.log(
                    "resume.restored",
                    format!("job {job_id}"),
                    u64::from(elements_done),
                );
            }
            stream_job_checkpointed(
                shared,
                transport,
                &ctx,
                &job,
                &mut ot_sender,
                &JobRun {
                    job_id,
                    columns,
                    job_seed: checkpoint.job_seed,
                    model_id: checkpoint.model_id,
                    start_element,
                    expected_digest: None,
                },
                digest,
            )?;
            shared.resume.remove(resumed_id);
            jobs_completed += 1;
            shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            shared.jobs_resumed.fetch_add(1, Ordering::Relaxed);
            (ctx, ot_sender)
        }
        _ => {
            return Err(AcceleratorError::Protocol {
                what: "expected HELLO or RESUME",
            })
        }
    };

    loop {
        match recv_control(transport) {
            Ok(ControlMsg::JobRequest { columns, model_id }) => {
                if columns == 0 || columns > MAX_JOB_COLUMNS {
                    return Err(AcceleratorError::Protocol {
                        what: "JOB column count out of range",
                    });
                }
                /// How this job will be served: a warm pre-garbled stream
                /// replayed on the session thread, or a unit-pool garble.
                enum Plan {
                    Prepared(Box<PreparedStream>),
                    Pool {
                        weights: Option<Arc<Vec<Vec<i64>>>>,
                        seed_override: Option<u64>,
                    },
                }
                let plan = match model_id {
                    None => Plan::Pool {
                        weights: None,
                        seed_override: None,
                    },
                    Some(id) => match shared.registry.acquire(id, columns) {
                        None => {
                            // Unknown model is a per-job refusal, not a
                            // session error: the client may PUT and retry.
                            max_telemetry::counter_add("serve.jobs.model_unknown", 1);
                            if let Some(flight) = flight {
                                flight.log("model.unknown", format!("model {id}"), id);
                            }
                            send_control(
                                transport,
                                &ControlMsg::Reject {
                                    code: REJECT_MODEL,
                                    detail: 0,
                                },
                            )?;
                            continue;
                        }
                        Some(Acquired::Prepared(stream)) => Plan::Prepared(stream),
                        Some(Acquired::Starved(ticket)) => {
                            // Stock exhausted (or a shape with no prepared
                            // form): garble inline from the ticket's fresh
                            // generation. Counted, never an error.
                            if let Some(flight) = flight {
                                flight.log(
                                    "model.starved",
                                    format!("model {id}"),
                                    ticket.generation,
                                );
                            }
                            Plan::Pool {
                                weights: Some(ticket.weights),
                                seed_override: Some(ticket.seed),
                            }
                        }
                    },
                };
                match plan {
                    Plan::Prepared(stream) => {
                        // The warm path never touches the breaker or the
                        // pool: the online phase is OT plus frame replay,
                        // which is exactly the capacity the breaker is NOT
                        // guarding.
                        let job_id = ctx.next_job;
                        ctx.next_job += 1;
                        shared.jobs_prepared.fetch_add(1, Ordering::Relaxed);
                        trace_instant(shared, ctx.trace, "server/prepared_serve");
                        if let Some(flight) = flight {
                            flight.log(
                                "model.prepared",
                                format!("model {}", stream.model_id),
                                stream.generation,
                            );
                        }
                        stream_job_checkpointed(
                            shared,
                            transport,
                            &ctx,
                            &stream.job,
                            &mut ot_sender,
                            &JobRun {
                                job_id,
                                columns,
                                job_seed: stream.seed,
                                model_id: Some(stream.model_id),
                                start_element: 0,
                                expected_digest: Some(stream.digest),
                            },
                            TranscriptDigest::new(),
                        )?;
                        jobs_completed += 1;
                        shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Plan::Pool {
                        weights,
                        seed_override,
                    } => {
                        if shared.breaker.should_shed() {
                            shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                            if let Some(flight) = flight {
                                flight.log(
                                    "breaker.shed",
                                    "job",
                                    u64::from(shared.breaker.config().retry_after_ms),
                                );
                            }
                            send_control(
                                transport,
                                &ControlMsg::Busy {
                                    retry_after_ms: shared.breaker.config().retry_after_ms,
                                    queue_depth: shared.pool.depth() as u32,
                                },
                            )?;
                            continue;
                        }
                        let job_id = ctx.next_job;
                        let job_seed = seed_override
                            .unwrap_or_else(|| derive_seed(ctx.session_seed, 0x100 + job_id));
                        let request = crate::scheduler::JobRequest {
                            session_id: ctx.session_id,
                            job_id,
                            columns,
                            seed: job_seed,
                            weights,
                            trace: ctx.trace,
                        };
                        match shared.pool.submit(request) {
                            Ok(result_rx) => {
                                shared.breaker.note_ok();
                                ctx.next_job += 1;
                                let job = materialize_job(&result_rx.recv().map_err(|_| {
                                    AcceleratorError::Protocol {
                                        what: "unit pool shut down mid-job",
                                    }
                                })??);
                                stream_job_checkpointed(
                                    shared,
                                    transport,
                                    &ctx,
                                    &job,
                                    &mut ot_sender,
                                    &JobRun {
                                        job_id,
                                        columns,
                                        job_seed,
                                        model_id,
                                        start_element: 0,
                                        expected_digest: None,
                                    },
                                    TranscriptDigest::new(),
                                )?;
                                jobs_completed += 1;
                                shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(full) => {
                                shared.breaker.note_queue_full();
                                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                                send_control(
                                    transport,
                                    &ControlMsg::Busy {
                                        retry_after_ms: shared.retry_after_ms,
                                        queue_depth: full.queue_depth as u32,
                                    },
                                )?;
                            }
                        }
                    }
                }
            }
            Ok(ControlMsg::ModelPut {
                model_id,
                rows: _,
                cols,
                weights,
            }) => {
                // Reshape row-major; the decoder already enforced
                // `weights.len() == rows * cols` and the element cap.
                let matrix: Vec<Vec<i64>> = if cols == 0 {
                    Vec::new()
                } else {
                    weights.chunks(cols as usize).map(<[i64]>::to_vec).collect()
                };
                match shared.put_model(model_id, matrix) {
                    Ok(status) => {
                        max_telemetry::counter_add("serve.models.put", 1);
                        if let Some(flight) = flight {
                            flight.log("model.put", format!("model {model_id}"), model_id);
                        }
                        send_control(transport, &ControlMsg::ModelStat { status })?;
                    }
                    Err(err) => {
                        // A refused registration keeps the session alive:
                        // the detail tells the client what to fix.
                        let detail: u8 = match err {
                            RegisterError::EmptyModel => 1,
                            RegisterError::RaggedRow { .. } => 2,
                            RegisterError::TooLarge { .. } => 3,
                            RegisterError::ValueOutOfRange { .. } => 4,
                        };
                        max_telemetry::counter_add("serve.models.put_rejected", 1);
                        if let Some(flight) = flight {
                            flight.log("model.put_rejected", format!("{err}"), u64::from(detail));
                        }
                        send_control(
                            transport,
                            &ControlMsg::Reject {
                                code: REJECT_MODEL,
                                detail: u32::from(detail),
                            },
                        )?;
                    }
                }
            }
            Ok(ControlMsg::ModelInfo { model_id }) => match shared.registry.status(model_id) {
                Some(status) => send_control(transport, &ControlMsg::ModelStat { status })?,
                None => send_control(
                    transport,
                    &ControlMsg::Reject {
                        code: REJECT_MODEL,
                        detail: 0,
                    },
                )?,
            },
            Ok(ControlMsg::ModelEvict { model_id }) => match shared.evict_model(model_id) {
                Some(status) => {
                    if let Some(flight) = flight {
                        flight.log("model.evicted", format!("model {model_id}"), model_id);
                    }
                    send_control(transport, &ControlMsg::ModelStat { status })?;
                }
                None => send_control(
                    transport,
                    &ControlMsg::Reject {
                        code: REJECT_MODEL,
                        detail: 0,
                    },
                )?,
            },
            Ok(ControlMsg::Ping { nonce }) => {
                send_control(transport, &ControlMsg::Pong { nonce })?;
                max_telemetry::counter_add("serve.heartbeats", 1);
            }
            Ok(ControlMsg::MetricsRequest) => {
                send_control(
                    transport,
                    &ControlMsg::MetricsReply {
                        body: shared.metrics_json(),
                    },
                )?;
            }
            Ok(ControlMsg::Bye) => {
                // A clean goodbye retires any stale checkpoint this session
                // id left behind on an earlier connection — in memory and
                // on disk.
                shared.resume.remove(ctx.session_id);
                journal_remove(shared, ctx.session_id);
                break;
            }
            Err(AcceleratorError::Disconnected) => break,
            Err(AcceleratorError::Transport(max_gc::channel::TransportError::TimedOut)) => {
                max_telemetry::counter_add("serve.sessions.idle_reaped", 1);
                if let Some(flight) = flight {
                    flight.log("deadline.reap", "idle", 0);
                }
                break;
            }
            Ok(_) => {
                return Err(AcceleratorError::Protocol {
                    what: "expected JOB, MODEL, PING, or BYE",
                })
            }
            Err(e) => return Err(e),
        }
    }
    max_telemetry::histogram_record("serve.session.jobs", jobs_completed);
    Ok(())
}
