//! Multiple MAC units on one device, running **concurrently**: each unit
//! garbles an interleaved stripe of a job's output elements on its own
//! thread (§6: "the throughput can be increased linearly by adding more GC
//! cores").
//!
//! A [`MultiUnitServer`] is the accelerator bank behind every in-process
//! server — [`crate::CloudServer`] is the one-unit bank. A query runs the
//! one wire exchange of [`crate::remote`] over an in-memory
//! [`Duplex`]: the server end reads the JOB, garbles it on the bank,
//! renders it with [`materialize_job`] and streams it with
//! [`stream_materialized_job_from`]; the client end is
//! [`RemoteClient::secure_matmul`]. The job is garbled in full before it
//! streams, so garbling does not overlap OT and evaluation.
//!
//! Functional output is **independent of the unit count**: every element's
//! label stream derives from `(base_seed, stream)` alone (see
//! [`Maxelerator::begin_element`]), so the thread/unit assignment cannot
//! leak into the transcript. Label streams keep counting across the jobs
//! of one server, so no two queries share labels or Δ; the first job on a
//! fresh server uses streams `0..elements`, exactly as
//! [`crate::remote::garble_matvec_job`] numbers them.
//!
//! Timing is reported two ways: the *modeled* fabric cycles (makespan =
//! busiest unit) and the *measured* wall-clock of the garbling threads, so
//! the linear-scaling claim can be checked against real thread-level
//! speedup.

use std::time::{Duration, Instant};

use max_crypto::{Block, TranscriptDigest};
use max_gc::channel::Duplex;
use max_ot::iknp::{self, OtExtSender};
use max_telemetry::TraceContext;

use crate::accelerator::{Maxelerator, RoundMessage};
use crate::config::AcceleratorConfig;
use crate::error::AcceleratorError;
use crate::remote::{
    garble_row, materialize_job, recv_control, send_control, stream_materialized_job_from,
    ControlMsg, GarbledJob, GarbledRow, RemoteClient,
};
use crate::server::{ClientSession, MatvecTranscript};

/// OT label pairs for one row, one inner `Vec` per round.
pub type RowOtPairs = Vec<Vec<(Block, Block)>>;

/// Panic message for a query on a session that is not open.
const SESSION_CLOSED: &str =
    "in-process session is closed (server not built via connect_multi, or an exchange failed)";

/// A bank of independent MAC units sharing one device.
///
/// All units derive per-element label streams from the **same** base seed,
/// which is what makes the parallel transcript equal to the single-unit
/// one.
pub struct MultiUnitServer {
    pub(crate) units: Vec<Maxelerator>,
    /// Label streams used by earlier jobs: element `e` of the next job
    /// garbles from stream `next_stream + e`.
    next_stream: u32,
    weights: Vec<Vec<i64>>,
    /// The garbler's end of the session; present when built via
    /// [`connect_multi`].
    link: Option<ServerLink>,
}

/// The garbler's end of an in-process session.
struct ServerLink {
    transport: Duplex,
    ot_sender: OtExtSender,
    jobs: u64,
}

/// One unit's share of a garbled job.
struct Stripe {
    rows: Vec<GarbledRow>,
    busy: Duration,
    cycles: u64,
}

impl std::fmt::Debug for MultiUnitServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiUnitServer")
            .field("units", &self.units.len())
            .field("rows", &self.weights.len())
            .finish_non_exhaustive()
    }
}

/// Timing summary of a multi-unit matvec: modeled fabric cycles plus the
/// measured wall-clock of the actual threaded run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MultiUnitTiming {
    /// Units used.
    pub units: usize,
    /// Fabric cycles of the busiest unit (= the parallel makespan).
    pub makespan_cycles: u64,
    /// Sum of all units' fabric cycles (= the single-unit equivalent).
    pub total_cycles: u64,
    /// Measured wall-clock of the busiest garbling thread.
    pub measured_makespan: Duration,
    /// Sum of all garbling threads' busy time (= single-thread equivalent).
    pub measured_busy_total: Duration,
    /// Measured end-to-end wall-clock: garbling, then the wire exchange
    /// (OT and evaluation) for a query; garbling alone for
    /// [`MultiUnitServer::garble_matvec`].
    pub measured_wall: Duration,
    /// Bytes of garbled material (ROUNDS frames) streamed to the client;
    /// zero when nothing was streamed.
    pub streamed_bytes: u64,
}

impl MultiUnitTiming {
    /// Modeled parallel speedup over one unit.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 1.0;
        }
        self.total_cycles as f64 / self.makespan_cycles as f64
    }

    /// Measured thread-level speedup: total garbling CPU time over the
    /// busiest thread's wall-clock.
    pub fn measured_speedup(&self) -> f64 {
        if self.measured_makespan.is_zero() {
            return 1.0;
        }
        self.measured_busy_total.as_secs_f64() / self.measured_makespan.as_secs_f64()
    }

    /// Publishes this timing into `recorder` as `multi_unit.*` counters —
    /// the single source of truth the benches and `perf_report` read back
    /// via [`MultiUnitTiming::from_snapshot`]. Meant to be called once per
    /// recorder (counters accumulate).
    pub fn record_into(&self, recorder: &max_telemetry::Recorder) {
        recorder.add("multi_unit.units", self.units as u64);
        recorder.add("multi_unit.makespan_cycles", self.makespan_cycles);
        recorder.add("multi_unit.total_cycles", self.total_cycles);
        recorder.add(
            "multi_unit.measured_makespan_ns",
            self.measured_makespan.as_nanos() as u64,
        );
        recorder.add(
            "multi_unit.measured_busy_total_ns",
            self.measured_busy_total.as_nanos() as u64,
        );
        recorder.add(
            "multi_unit.measured_wall_ns",
            self.measured_wall.as_nanos() as u64,
        );
        recorder.add("multi_unit.streamed_bytes", self.streamed_bytes);
    }

    /// Rebuilds a timing from the `multi_unit.*` counters of `snapshot`;
    /// `None` when no multi-unit run was recorded.
    pub fn from_snapshot(snapshot: &max_telemetry::Snapshot) -> Option<Self> {
        let units = snapshot.counter("multi_unit.units");
        if units == 0 {
            return None;
        }
        Some(MultiUnitTiming {
            units: units as usize,
            makespan_cycles: snapshot.counter("multi_unit.makespan_cycles"),
            total_cycles: snapshot.counter("multi_unit.total_cycles"),
            measured_makespan: Duration::from_nanos(
                snapshot.counter("multi_unit.measured_makespan_ns"),
            ),
            measured_busy_total: Duration::from_nanos(
                snapshot.counter("multi_unit.measured_busy_total_ns"),
            ),
            measured_wall: Duration::from_nanos(snapshot.counter("multi_unit.measured_wall_ns")),
            streamed_bytes: snapshot.counter("multi_unit.streamed_bytes"),
        })
    }
}

impl MultiUnitServer {
    /// Creates `units` MAC units serving model matrix `weights`. An empty
    /// matrix is accepted (the matvec is then the empty vector).
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero, the matrix is ragged, or a non-empty
    /// matrix has zero columns.
    pub fn new(
        config: &AcceleratorConfig,
        weights: Vec<Vec<i64>>,
        units: usize,
        seed: u64,
    ) -> Self {
        assert!(units > 0, "need at least one unit");
        let cols = weights.first().map_or(0, Vec::len);
        assert!(
            weights.is_empty() || cols > 0,
            "model matrix must have columns"
        );
        for row in &weights {
            assert_eq!(row.len(), cols, "ragged model matrix");
        }
        MultiUnitServer {
            units: (0..units)
                .map(|_| Maxelerator::new(config.clone(), seed))
                .collect(),
            next_stream: 0,
            weights,
            link: None,
        }
    }

    /// Number of units.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// Number of model rows (output elements).
    pub fn rows(&self) -> usize {
        self.weights.len()
    }

    /// Vector length the client must supply (zero for an empty model).
    pub fn cols(&self) -> usize {
        self.weights.first().map_or(0, Vec::len)
    }

    /// Garbles a `columns`-pass job: element `e` (model row
    /// `e % rows`) on unit `e % units`, every unit on its own scoped thread.
    /// The timing's `measured_wall` covers the garbling only.
    pub(crate) fn garble(
        &mut self,
        columns: u32,
    ) -> Result<(GarbledJob, MultiUnitTiming), AcceleratorError> {
        let started = Instant::now();
        let n_units = self.units.len();
        let elements = self.weights.len() * columns as usize;
        let first_stream = self.next_stream;
        let weights = &self.weights;
        let stripes = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .units
                .iter_mut()
                .enumerate()
                .map(|(u, unit)| {
                    scope.spawn(move || {
                        garble_stripe(unit, u, n_units, weights, elements, first_stream)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        self.next_stream = first_stream.wrapping_add(elements as u32);

        let busy: Vec<Duration> = stripes.iter().map(|s| s.busy).collect();
        let cycles: Vec<u64> = stripes.iter().map(|s| s.cycles).collect();
        let mut lanes: Vec<_> = stripes.into_iter().map(|s| s.rows.into_iter()).collect();
        let rows = (0..elements)
            .map(|e| {
                lanes[e % n_units]
                    .next()
                    .expect("stripe holds its elements")
            })
            .collect();
        let makespan = cycles.iter().copied().max().unwrap_or(0);
        let freq_mhz = self.units[0].config().freq_mhz;
        let timing = MultiUnitTiming {
            units: n_units,
            makespan_cycles: makespan,
            total_cycles: cycles.iter().sum(),
            measured_makespan: busy.iter().copied().max().unwrap_or(Duration::ZERO),
            measured_busy_total: busy.iter().sum(),
            measured_wall: started.elapsed(),
            streamed_bytes: 0,
        };
        let job = GarbledJob {
            rows,
            rows_per_pass: self.weights.len(),
            fabric_cycles: makespan,
            fabric_seconds: makespan as f64 / (freq_mhz * 1e6),
        };
        Ok((job, timing))
    }

    /// Garbles every row, row `i` on unit `i % units`, and returns the
    /// per-row messages with their OT pairs and the parallel timing — the
    /// job one matvec query garbles, without the exchange. Like a query,
    /// it draws fresh label streams.
    ///
    /// # Panics
    ///
    /// Panics if a model value does not fit the configured bit-width.
    pub fn garble_matvec(&mut self) -> (Vec<Vec<RoundMessage>>, Vec<RowOtPairs>, MultiUnitTiming) {
        let (job, timing) = self
            .garble(1)
            .expect("compiled schedule satisfies its own dependencies");
        let b = self.units[0].config().bit_width;
        let (messages, pairs) = job
            .rows
            .into_iter()
            .map(|row| {
                (
                    row.messages,
                    row.pairs.chunks(b).map(<[_]>::to_vec).collect(),
                )
            })
            .unzip();
        (messages, pairs, timing)
    }

    /// The server end of one query: reads the JOB, garbles it on the bank
    /// and streams it. Runs on its own thread; `link` drops on failure, so
    /// the client end never waits on a dead server.
    fn serve_job(
        &mut self,
        mut link: ServerLink,
    ) -> Result<(MultiUnitTiming, ServerLink), AcceleratorError> {
        let ControlMsg::JobRequest {
            columns,
            model_id: None,
        } = recv_control(&mut link.transport)?
        else {
            return Err(AcceleratorError::Protocol {
                what: "expected JOB",
            });
        };
        let (job, timing) = self.garble(columns)?;
        let job = materialize_job(&job);
        stream_materialized_job_from(
            &mut link.transport,
            &job,
            &mut link.ot_sender,
            &mut TranscriptDigest::new(),
            link.jobs,
            TraceContext::none(),
            0,
            None,
            |_, _, _| {},
        )?;
        link.jobs += 1;
        let streamed_bytes = job
            .elements
            .iter()
            .map(|e| e.rounds_frame.len() as u64)
            .sum();
        Ok((
            MultiUnitTiming {
                streamed_bytes,
                ..timing
            },
            link,
        ))
    }

    /// Runs one job of `x_columns` through the wire exchange: the server
    /// end on a scoped thread, the client end ([`RemoteClient::secure_matmul`])
    /// on this one. Each end hangs up when it fails, so neither can block
    /// the other, and a failed exchange closes the session.
    pub(crate) fn exchange(
        &mut self,
        client: &mut ClientSession,
        x_columns: &[Vec<i64>],
    ) -> Result<(Vec<Vec<i64>>, MatvecTranscript, MultiUnitTiming), AcceleratorError> {
        let started = Instant::now();
        let link = self.link.take().expect(SESSION_CLOSED);
        let mut remote = client.remote.take().expect(SESSION_CLOSED);
        let this = &mut *self;
        let (served, received) = std::thread::scope(|scope| {
            let server = scope.spawn(move || this.serve_job(link));
            let received = remote.secure_matmul(x_columns).map(|out| (out, remote));
            let served = server
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (served, received)
        });
        let ((timing, link), ((columns, transcript), remote)) = match (served, received) {
            (Ok(served), Ok(received)) => (served, received),
            // Report the failing end, not the other end's view of the hang-up.
            (Err(AcceleratorError::Disconnected), Err(err)) | (Err(err), _) | (_, Err(err)) => {
                return Err(err)
            }
        };
        self.link = Some(link);
        client.remote = Some(remote);
        let timing = MultiUnitTiming {
            measured_wall: started.elapsed(),
            ..timing
        };
        Ok((columns, transcript, timing))
    }
}

/// Garbles unit `u`'s stripe of a job — elements `u, u + n, u + 2n, …` —
/// on the calling thread.
fn garble_stripe(
    unit: &mut Maxelerator,
    u: usize,
    n_units: usize,
    weights: &[Vec<i64>],
    elements: usize,
    first_stream: u32,
) -> Result<Stripe, AcceleratorError> {
    // Busy interval of this unit on the shared timeline; closed when the
    // guard drops at thread exit.
    let _lane = max_telemetry::timeline("multi_unit.units", u as u32);
    let mut span = max_telemetry::span("unit_garble");
    let started = Instant::now();
    let cycles_before = unit.report().cycles;
    let mut rows = Vec::with_capacity(elements.div_ceil(n_units));
    for e in (u..elements).step_by(n_units) {
        unit.begin_element_on_stream(e as u32, first_stream.wrapping_add(e as u32));
        rows.push(garble_row(unit, &weights[e % weights.len()])?);
    }
    let cycles = unit.report().cycles - cycles_before;
    let busy = started.elapsed();
    span.add_cycles(cycles);
    max_telemetry::histogram_record("multi_unit.unit_busy_ns", busy.as_nanos() as u64);
    Ok(Stripe { rows, busy, cycles })
}

/// Creates a connected multi-unit server / client pair, mirroring
/// [`crate::connect`]: an in-memory session whose OT base phase uses the
/// same seed, so the transcript is byte-identical to the single-unit
/// server's.
///
/// # Panics
///
/// Panics if `units` is zero or the matrix is ragged.
pub fn connect_multi(
    config: &AcceleratorConfig,
    weights: Vec<Vec<i64>>,
    units: usize,
    seed: u64,
) -> (MultiUnitServer, ClientSession) {
    let mut server = MultiUnitServer::new(config, weights, units, seed);
    let ot_seed = seed ^ 0x0055_aaff;
    let (mut server_end, client_end) = Duplex::pair();
    // The in-memory channel buffers, so ACCEPT can be queued before the
    // client's HELLO and the handshake needs no second thread. In-process
    // sessions never RESUME, so the resume token carries no secret.
    let accept = ControlMsg::Accept {
        session_id: 0,
        ot_seed,
        resume_token: 0,
        rows: u32::try_from(server.rows()).expect("model rows fit the wire format"),
        cols: u32::try_from(server.cols()).expect("model columns fit the wire format"),
        bit_width: config.bit_width as u32,
        acc_width: config.acc_width as u32,
        signed: config.signed,
        freq_mhz_bits: config.freq_mhz.to_bits(),
    };
    let handshake = send_control(&mut server_end, &accept)
        .and_then(|()| {
            RemoteClient::connect_with_trace(client_end, config.bit_width, TraceContext::none())
        })
        .and_then(|remote| recv_control(&mut server_end).map(|_hello| remote));
    let remote = handshake.expect("in-process handshake");
    let (ot_sender, _receiver) = iknp::setup_pair(ot_seed);
    server.link = Some(ServerLink {
        transport: server_end,
        ot_sender,
        jobs: 0,
    });
    (
        server,
        ClientSession {
            remote: Some(remote),
        },
    )
}

/// Runs a complete privacy-preserving `y = W·x` through the multi-unit
/// bank with the client's `x` delivered via the full OT-extension stack —
/// the parallel counterpart of [`crate::secure_matvec`], producing
/// byte-identical results, OT ciphertexts and transcript byte counts. The
/// transcript's fabric cycles are this job's makespan.
///
/// # Errors
///
/// Returns a typed [`AcceleratorError`] if either end of the exchange
/// fails; the session is closed afterwards.
///
/// # Panics
///
/// Panics if `server` was not built via [`connect_multi`], its session is
/// closed, or `x` length mismatches the model.
pub fn secure_matvec_multi(
    server: &mut MultiUnitServer,
    client: &mut ClientSession,
    x: &[i64],
) -> Result<(Vec<i64>, MatvecTranscript, MultiUnitTiming), AcceleratorError> {
    assert_eq!(x.len(), server.cols(), "vector length mismatch");
    let (mut columns, transcript, timing) = server.exchange(client, &[x.to_vec()])?;
    Ok((columns.swap_remove(0), transcript, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{connect, secure_matvec};

    fn model(rows: usize, cols: usize) -> Vec<Vec<i64>> {
        (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r * 5 + c * 3) % 21) as i64 - 10)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn multi_unit_result_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = model(4, 3);
        let x = vec![7i64, -8, 9];
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        for units in [1usize, 2, 4] {
            let (mut server, mut client) = connect_multi(&config, w.clone(), units, 99);
            let (got, _, timing) = secure_matvec_multi(&mut server, &mut client, &x).unwrap();
            assert_eq!(got, expected, "{units} units");
            assert_eq!(timing.units, units);
            assert!(timing.streamed_bytes > 0);
        }
    }

    #[test]
    fn parallel_makespan_shrinks_with_units() {
        let config = AcceleratorConfig::new(8);
        let w = model(8, 4);
        let x = vec![1i64, 2, 3, 4];
        let (mut one, mut one_client) = connect_multi(&config, w.clone(), 1, 5);
        let (mut four, mut four_client) = connect_multi(&config, w, 4, 5);
        let (_, _, t1) = secure_matvec_multi(&mut one, &mut one_client, &x).unwrap();
        let (_, _, t4) = secure_matvec_multi(&mut four, &mut four_client, &x).unwrap();
        assert!(
            t4.makespan_cycles * 3 < t1.makespan_cycles * 4,
            "4 units gave makespan {} vs {}",
            t4.makespan_cycles,
            t1.makespan_cycles
        );
        assert!(t4.speedup() > 2.5, "speedup {}", t4.speedup());
        assert!((t1.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn units_use_distinct_randomness() {
        let config = AcceleratorConfig::new(8);
        let mut server = MultiUnitServer::new(&config, model(2, 2), 2, 7);
        let (messages, _, _) = server.garble_matvec();
        // Rows on different units must not share tables even for identical
        // model values: each element has its own derived label stream.
        assert_ne!(messages[0][0].tables, messages[1][0].tables);
    }

    #[test]
    fn unit_count_does_not_change_garbled_bytes() {
        // The acceptance invariant at the message level: the exact same
        // RoundMessages (tables, labels, decode bits) come out no matter
        // how many threads garble them.
        let config = AcceleratorConfig::new(8);
        let w = model(5, 3);
        let mut one = MultiUnitServer::new(&config, w.clone(), 1, 42);
        let mut five = MultiUnitServer::new(&config, w, 5, 42);
        let (m1, p1, _) = one.garble_matvec();
        let (m5, p5, _) = five.garble_matvec();
        assert_eq!(m1, m5);
        assert_eq!(p1, p5);
    }

    #[test]
    fn full_protocol_transcript_matches_single_unit_server() {
        // N = 4 threads, full OT stack: outputs and every byte count must
        // equal the sequential CloudServer's.
        let config = AcceleratorConfig::new(8);
        let w = model(6, 4);
        let x = vec![3i64, -1, 0, 7];
        let (mut single, mut single_client) = connect(&config, w.clone(), 77);
        let (want, st) = secure_matvec(&mut single, &mut single_client, &x);

        let (mut multi, mut multi_client) = connect_multi(&config, w, 4, 77);
        let (got, mt, timing) = secure_matvec_multi(&mut multi, &mut multi_client, &x).unwrap();

        assert_eq!(got, want);
        assert_eq!(mt.elements, st.elements);
        assert_eq!(mt.rounds, st.rounds);
        assert_eq!(mt.tables, st.tables);
        assert_eq!(mt.material_bytes, st.material_bytes);
        assert_eq!(mt.ot_bytes, st.ot_bytes);
        assert_eq!(mt.ot_upload_bytes, st.ot_upload_bytes);
        assert_eq!(timing.units, 4);
        assert!(timing.measured_wall > Duration::ZERO);
        assert!(timing.measured_makespan > Duration::ZERO);
        assert!(timing.measured_busy_total >= timing.measured_makespan);
    }

    #[test]
    fn more_units_than_rows_is_fine() {
        let config = AcceleratorConfig::new(8);
        let w = model(2, 3);
        let x = vec![1i64, -2, 3];
        let expected: Vec<i64> = w
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let (mut server, mut client) = connect_multi(&config, w, 6, 11);
        let (got, _, timing) = secure_matvec_multi(&mut server, &mut client, &x).unwrap();
        assert_eq!(got, expected);
        assert_eq!(timing.units, 6);
    }

    #[test]
    fn empty_model_is_fine() {
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect_multi(&config, vec![], 3, 11);
        let (got, _, timing) = secure_matvec_multi(&mut server, &mut client, &[]).unwrap();
        assert!(got.is_empty());
        assert_eq!(timing.total_cycles, 0);
        assert_eq!(timing.streamed_bytes, 0);

        let (mut server, mut client) = connect_multi(&config, vec![], 2, 4);
        let (y, t, _) = secure_matvec_multi(&mut server, &mut client, &[]).unwrap();
        assert!(y.is_empty());
        assert_eq!(t.elements, 0);
    }
    #[test]
    fn repeated_garbling_draws_fresh_labels() {
        // Every job on one bank garbles from its own label streams: the
        // same model garbled twice must share no tables and no OT pairs.
        let config = AcceleratorConfig::new(8);
        let mut server = MultiUnitServer::new(&config, model(3, 2), 2, 7);
        let (m1, p1, _) = server.garble_matvec();
        let (m2, p2, _) = server.garble_matvec();
        for row in 0..3 {
            assert_ne!(m1[row][0].tables, m2[row][0].tables, "row {row}");
            assert_ne!(p1[row], p2[row], "row {row}");
        }
    }

    #[test]
    fn repeated_queries_draw_fresh_labels() {
        // Two identical queries on one session: each unit's last element
        // must hold different OT pairs the second time, and both results
        // must still decode.
        let config = AcceleratorConfig::new(8);
        let w = model(4, 2);
        let x = vec![5i64, -6];
        let (mut server, mut client) = connect_multi(&config, w, 2, 13);
        let last_pairs = |server: &MultiUnitServer| -> Vec<Vec<(Block, Block)>> {
            server
                .units
                .iter()
                .map(|unit| unit.ot_pairs(1).unwrap().to_vec())
                .collect()
        };
        let (y1, _, _) = secure_matvec_multi(&mut server, &mut client, &x).unwrap();
        let first = last_pairs(&server);
        let (y2, _, _) = secure_matvec_multi(&mut server, &mut client, &x).unwrap();
        assert_eq!(y1, y2);
        for (unit, (a, b)) in first.iter().zip(&last_pairs(&server)).enumerate() {
            assert_ne!(a, b, "unit {unit} reused its OT pairs");
        }
    }
}
