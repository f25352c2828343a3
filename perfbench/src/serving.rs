//! The serving workloads: an in-process [`GcService`] behind [`listen_tcp`]
//! on loopback, driven through the public client API
//! (`RemoteClient::connect`, `start_job` / `start_model_job`, `run_job`,
//! `goodbye`) over [`FramedTcp`]. Every result is checked against
//! [`plain_matvec`] before it counts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use max_gc::FramedTcp;
use max_serve::{
    demo_vector, demo_weights, listen_tcp, plain_matvec, GcService, JournalConfig, ServeConfig,
    ServeHandle,
};
use max_telemetry::{Recorder, TraceContext};
use maxelerator::remote::derive_seed;
use maxelerator::{AcceleratorConfig, AcceleratorError, ModelHandle, RemoteClient};

use crate::host::process_cpu_s;
use crate::stats::{arrival_schedule, lag_ms};

/// Operand bit-width of every workload.
pub const WIDTH: usize = 8;
/// Demo model shape (rows × cols).
pub const ROWS: usize = 4;
/// Demo model shape (rows × cols).
pub const COLS: usize = 4;
/// Garbling units in the pool (the host has two cores).
const WORKERS: usize = 2;
/// Client connections the benchmark process holds at once.
const CONNECTIONS: usize = 2;
/// Id the prepared model is registered under.
const MODEL_ID: u64 = 1;
/// Modeled fabric cycles of one 4×4, b = 8 matvec, as the seed tree's
/// STATS frame reports them. A host-time change must never move this.
pub const FABRIC_CYCLES_PER_JOB: u64 = 1028;

/// Unmeasured jobs each closed-loop session runs before the measured
/// phase (first-use costs: page faults, socket buffers, allocator growth).
const WARMUP_JOBS_PER_SESSION: usize = 2;
/// Unmeasured whole sessions before an open-loop phase.
const WARMUP_SESSIONS: usize = 2;
/// Warm-up jobs draw their inputs from a range measured jobs never reach.
const WARMUP_JOB_BASE: u64 = 1 << 62;
/// Extra handshakes the traced phase times (ids from their own range).
const HANDSHAKE_PROBES: u64 = 16;
const PROBE_JOB_BASE: u64 = 1 << 61;
/// `churn` arrival rate. On the 2-core reference host, closed-loop churn
/// (both connection slots back to back) completed ~230 sessions/s; half
/// of that loads the service without building a backlog, so generator
/// lag stays bounded while both slots still overlap.
pub const CHURN_RATE_PER_S: f64 = 115.0;
/// Arrivals per `churn` round; the round's stock covers all of them.
const CHURN_JOBS_PER_ROUND: usize = 120;
/// Rounds a `churn` run holds at least (each round is a fresh service:
/// setup, then a measured phase bounded by its prefilled stock).
const MIN_ROUNDS: usize = 3;
/// Setup-only repetitions an `inline` run adds: its setup is cheap, so
/// more samples steady the reported median.
const INLINE_SETUP_SAMPLES: usize = 15;
/// How long setup may wait for the stock to reach its target before the
/// service is declared broken.
const STOCK_DEADLINE: Duration = Duration::from_secs(120);

/// One of the benchmark's traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Two long-lived closed-loop sessions against the session-default
    /// matrix: the pool garbles every job on demand.
    Inline,
    /// Open-loop session arrivals, one warm job per session (served from
    /// a prepared model's prefilled stock), checkpoint journal on.
    Churn,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "inline" => Some(Workload::Inline),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Inline => "inline",
            Workload::Churn => "churn",
        }
    }

    /// Whether jobs run against a prepared model (and must all hit stock);
    /// the one workload that does is also the open-loop one.
    pub fn uses_model(self) -> bool {
        self == Workload::Churn
    }

    /// Whether clients wait for each reply before the next request.
    pub fn closed_loop(self) -> bool {
        !self.uses_model()
    }

    /// Stock a round prefills: every measured job plus the warm-up.
    fn stock_target(self) -> usize {
        match self {
            Workload::Inline => 0,
            Workload::Churn => CHURN_JOBS_PER_ROUND + WARMUP_SESSIONS,
        }
    }
}

/// What one job produced, measured from outside the service.
#[derive(Clone, Copy, Debug)]
pub struct JobSample {
    /// Global job index (the trace span key).
    pub job: u64,
    /// Due → plaintext-verified result.
    pub job_ms: f64,
    /// JOB sent → READY received.
    pub ready_ms: f64,
    /// READY → STATS on the client (`run_job`).
    pub run_job_ms: f64,
    /// How late the generator issued the job (open loop: behind its
    /// schedule; closed loop: after the session's previous result).
    pub lag_ms: f64,
    /// Client-side payload bytes, both directions, for the job (a
    /// `churn` job includes its session's handshake and BYE).
    pub wire_bytes: u64,
    /// Client-side frames, both directions, for the job.
    pub frames: u64,
    /// Modeled fabric cycles from STATS.
    pub fabric_cycles: u64,
}

/// Why a run cannot report numbers.
#[derive(Debug)]
pub enum Abort {
    /// A result was wrong, or the transcript digest caught corruption:
    /// the run is incorrect, never a slow success.
    Incorrect(String),
    /// A validity gate failed: the run measured something other than the
    /// workload it names, so it reports no numbers.
    Invalid(String),
    /// The service could not be set up.
    Setup(String),
}

/// Everything one measured phase (or several, merged) observed.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Verified jobs, in completion order.
    pub samples: Vec<JobSample>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs lost to a transport or protocol error.
    pub failed: u64,
    /// Jobs the service turned away with BUSY.
    pub busy: u64,
    /// Measured-phase wall time.
    pub wall_s: f64,
    /// Process CPU over the measured phase.
    pub cpu_s: f64,
    /// Jobs served from prepared stock during the phase.
    pub prepared: u64,
    /// Model jobs that fell back to inline garbling during the phase.
    pub fallback: u64,
    /// Streams the pool produced in the background during the phase.
    pub refills: u64,
    /// Prepared stock at the end of setup, bytes.
    pub stock_bytes: u64,
    /// Journal appends during the phase.
    pub journal_appends: u64,
    /// `RemoteClient::connect` latencies (handshake), ms, keyed by the job
    /// (or probe) id the session was opened for.
    pub handshake_ms: Vec<(u64, f64)>,
    /// Setup durations, seconds.
    pub setup_s: Vec<f64>,
}

impl PhaseOut {
    fn merge(&mut self, other: PhaseOut) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.prepared += other.prepared;
        self.fallback += other.fallback;
        self.refills += other.refills;
        self.stock_bytes = self.stock_bytes.max(other.stock_bytes);
        self.journal_appends += other.journal_appends;
        self.handshake_ms.extend(other.handshake_ms);
        self.setup_s.extend(other.setup_s);
    }
}

/// Inputs shared by every round of a run, all generated from the seed.
pub struct RunInputs {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// The model matrix.
    pub weights: Vec<Vec<i64>>,
    /// Scratch directory for journals, inside the benchmark's directory.
    pub work_dir: PathBuf,
}

impl RunInputs {
    /// Generates the model from `seed`.
    pub fn new(workload: Workload, seed: u64, work_dir: &Path) -> RunInputs {
        RunInputs {
            workload,
            seed,
            weights: demo_weights(ROWS, COLS, WIDTH, derive_seed(seed, 0x6d6f_64656c)),
            work_dir: work_dir.to_path_buf(),
        }
    }

    /// Client vector of global job `job`.
    pub fn vector(&self, job: u64) -> Vec<i64> {
        demo_vector(COLS, WIDTH, derive_seed(self.seed, job))
    }
}

/// A running service plus what setup produced.
struct Server {
    handle: ServeHandle,
    model: Option<ModelHandle>,
    journal_dir: Option<PathBuf>,
}

impl Server {
    fn service(&self) -> &GcService {
        self.handle.service()
    }

    fn shutdown(self) {
        self.handle.shutdown();
        if let Some(dir) = self.journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `GcService::start` through to the first job being servable: journal
/// open, listener bound, model PUT, stock prefilled to target, and a
/// probe client's handshake answered.
fn setup(inputs: &RunInputs, round: u64, traced: bool) -> Result<(Server, f64), Abort> {
    let workload = inputs.workload;
    let journal_dir = (workload == Workload::Churn).then(|| {
        inputs
            .work_dir
            .join(format!("journal-{}-{round}", std::process::id()))
    });
    if let Some(dir) = &journal_dir {
        // A leftover from an interrupted run would be replayed; start empty.
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let mut cfg = ServeConfig::new(
        AcceleratorConfig::new(WIDTH),
        inputs.weights.clone(),
        derive_seed(inputs.seed, 0x5e55_0000 + round),
    );
    cfg.workers = WORKERS;
    cfg.registry_target_stock = workload.stock_target();
    // Appends still hit the journal file at every element boundary and
    // BYE, but without fsync: shared-disk flush latency swung `churn`
    // p50/p90 by half from run to run, so disk latency is out of scope.
    // The traced run times fsync'd appends on their own.
    cfg.journal = journal_dir.as_ref().map(|dir| JournalConfig {
        fsync: false,
        ..JournalConfig::new(dir)
    });
    cfg.recorder = traced.then(|| Arc::new(Recorder::new()));
    let service = GcService::start(cfg);
    let handle = listen_tcp(service, "127.0.0.1:0")
        .map_err(|err| Abort::Setup(format!("bind loopback listener: {err}")))?;
    let model = if workload.uses_model() {
        let status = handle
            .service()
            .put_model(MODEL_ID, inputs.weights.clone())
            .map_err(|err| Abort::Setup(format!("register model: {err}")))?;
        // The calling thread fills alongside the pool's idle units; the
        // units may still be garbling their claims when it returns.
        handle.service().prefill_models();
        let deadline = Instant::now() + STOCK_DEADLINE;
        while handle.service().registry().stats().streams_ready < workload.stock_target() {
            if Instant::now() > deadline {
                return Err(Abort::Setup("stock never reached its target".to_string()));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Some(status.handle())
    } else {
        None
    };
    let server = Server {
        handle,
        model,
        journal_dir,
    };
    // Servable means a client can open a session: one probe handshake.
    let (probe, _) =
        connect(&server, false).map_err(|err| Abort::Setup(format!("probe handshake: {err}")))?;
    let setup_s = t0.elapsed().as_secs_f64();
    probe.goodbye();
    Ok((server, setup_s))
}

/// How a single job ended, short of success.
enum JobError {
    /// Transport or protocol failure: counted in `failed`.
    Failed(AcceleratorError),
    /// BUSY: counted in `failed` and in the busy ratio.
    Busy,
}

type Client = RemoteClient<FramedTcp>;

fn wire_totals(client: &Client) -> (u64, u64) {
    let t = client.transport();
    (
        t.sent().bytes() + t.received().bytes(),
        t.sent().messages() + t.received().messages(),
    )
}

fn connect(server: &Server, traced: bool) -> Result<(Client, f64), AcceleratorError> {
    let transport = FramedTcp::connect(server.handle.addr())?;
    let trace = if traced {
        TraceContext::mint()
    } else {
        TraceContext::none()
    };
    let t0 = Instant::now();
    let client = RemoteClient::connect_with_trace(transport, WIDTH, trace)?;
    Ok((client, t0.elapsed().as_secs_f64() * 1e3))
}

/// Runs one job on `client` and verifies it against plaintext. `due` is
/// when the job was due; the returned sample's wire counts cover only
/// this job.
fn run_job(
    inputs: &RunInputs,
    client: &mut Client,
    model: Option<ModelHandle>,
    job: u64,
    due: Instant,
) -> Result<Result<JobSample, JobError>, Abort> {
    let x = inputs.vector(job);
    let expected = plain_matvec(&inputs.weights, &x);
    let (bytes0, frames0) = wire_totals(client);
    let t_send = Instant::now();
    let started = match model {
        Some(handle) => client.start_model_job(handle, std::slice::from_ref(&x)),
        None => client.start_job(std::slice::from_ref(&x)),
    };
    let mut progress = match started {
        Ok(progress) => progress,
        Err(AcceleratorError::Busy { .. }) => return Ok(Err(JobError::Busy)),
        Err(err) => return classify(err),
    };
    let t_ready = Instant::now();
    if let Err(err) = client.run_job(&mut progress) {
        return classify(err);
    }
    let t_stats = Instant::now();
    let (ys, transcript) = progress.into_result();
    if ys.len() != 1 || ys[0] != expected {
        return Err(Abort::Incorrect(format!(
            "job {job}: served {ys:?}, plaintext {expected:?}"
        )));
    }
    let done = Instant::now();
    let (bytes1, frames1) = wire_totals(client);
    Ok(Ok(JobSample {
        job,
        job_ms: (done - due).as_secs_f64() * 1e3,
        ready_ms: (t_ready - t_send).as_secs_f64() * 1e3,
        run_job_ms: (t_stats - t_ready).as_secs_f64() * 1e3,
        lag_ms: 0.0,
        wire_bytes: bytes1 - bytes0,
        frames: frames1 - frames0,
        fabric_cycles: transcript.fabric_cycles,
    }))
}

/// A transcript-digest failure is corruption (incorrect run); anything
/// else is a failed job.
fn classify(err: AcceleratorError) -> Result<Result<JobSample, JobError>, Abort> {
    match err {
        AcceleratorError::Integrity { what } => {
            Err(Abort::Incorrect(format!("transcript integrity: {what}")))
        }
        err => Ok(Err(JobError::Failed(err))),
    }
}

/// Per-thread tallies merged into the phase.
#[derive(Default)]
struct Tally {
    samples: Vec<JobSample>,
    attempted: u64,
    failed: u64,
    busy: u64,
    handshake_ms: Vec<(u64, f64)>,
}

impl Tally {
    fn record(&mut self, outcome: Result<JobSample, JobError>) {
        self.attempted += 1;
        match outcome {
            Ok(sample) => self.samples.push(sample),
            Err(JobError::Busy) => {
                self.busy += 1;
                self.failed += 1;
            }
            Err(JobError::Failed(err)) => {
                eprintln!("perfbench: job failed: {err}");
                self.failed += 1;
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.handshake_ms.extend(other.handshake_ms);
    }
}

/// Two long-lived sessions, each issuing its next job when the previous
/// one is verified.
fn closed_loop(
    inputs: &RunInputs,
    server: &Server,
    run_for: Duration,
    first_job: u64,
    traced: bool,
) -> Result<(Tally, f64, f64), Abort> {
    let next = AtomicU64::new(0);
    let warmup_job = AtomicU64::new(WARMUP_JOB_BASE + first_job);
    let phase = Phase::new();
    phase.run(|start| {
        closed_session(
            inputs,
            server,
            run_for,
            first_job,
            traced,
            &next,
            &warmup_job,
            start,
        )
    })
}

/// The measured-phase harness shared by both loops: [`CONNECTIONS`]
/// session threads meet at a barrier (after their warm-up), the phase
/// clock starts, and wall and CPU time stop once every thread is joined.
struct Phase {
    barrier: Barrier,
    start: OnceLock<Instant>,
    merged: Mutex<Result<Tally, Abort>>,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            barrier: Barrier::new(CONNECTIONS + 1),
            start: OnceLock::new(),
            merged: Mutex::new(Ok(Tally::default())),
        }
    }

    /// Runs `session` on every connection thread. `session` receives a
    /// callback that waits for the phase to start and returns its start
    /// instant; every thread must call it exactly once.
    fn run<F>(self, session: F) -> Result<(Tally, f64, f64), Abort>
    where
        F: Fn(&dyn Fn() -> Instant) -> Result<Tally, Abort> + Sync,
    {
        let (t0, cpu0) = std::thread::scope(|scope| {
            for _ in 0..CONNECTIONS {
                scope.spawn(|| {
                    let wait_start = || {
                        self.barrier.wait();
                        self.barrier.wait();
                        *self
                            .start
                            .get()
                            .expect("phase start published before release")
                    };
                    let outcome = session(&wait_start);
                    let mut merged = self.merged.lock().expect("tally lock poisoned");
                    match (merged.as_mut(), outcome) {
                        (Ok(all), Ok(tally)) => all.absorb(tally),
                        (Ok(_), Err(abort)) => *merged = Err(abort),
                        (Err(_), _) => {}
                    }
                });
            }
            self.barrier.wait();
            let cpu0 = process_cpu_s();
            let t0 = Instant::now();
            self.start.set(t0).expect("phase start set once");
            // Release the sessions only after the start is published.
            self.barrier.wait();
            (t0, cpu0)
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let tally = self.merged.into_inner().expect("tally lock poisoned")?;
        Ok((tally, wall_s, cpu_s))
    }
}

#[allow(clippy::too_many_arguments)]
fn closed_session(
    inputs: &RunInputs,
    server: &Server,
    run_for: Duration,
    first_job: u64,
    traced: bool,
    next: &AtomicU64,
    warmup_job: &AtomicU64,
    wait_start: &dyn Fn() -> Instant,
) -> Result<Tally, Abort> {
    let mut tally = Tally::default();
    let mut client = reconnect(server, traced, WARMUP_JOB_BASE + first_job, &mut tally);
    // Warm-up jobs are verified but not measured. An abort here must still
    // meet the phase barrier, or the other threads would wait forever.
    let mut warmup = Ok(());
    for _ in 0..WARMUP_JOBS_PER_SESSION {
        let Some(c) = client.as_mut() else { break };
        let job = warmup_job.fetch_add(1, Ordering::Relaxed);
        match run_job(inputs, c, server.model, job, Instant::now()) {
            Ok(Ok(_)) => {}
            Ok(Err(_)) => client = None,
            Err(abort) => {
                warmup = Err(abort);
                break;
            }
        }
    }
    let t0 = wait_start();
    warmup?;
    let mut prev_done = t0;
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if t0.elapsed() >= run_for {
            break;
        }
        if client.is_none() {
            client = reconnect(server, traced, first_job + idx, &mut tally);
        }
        let Some(c) = client.as_mut() else {
            tally.attempted += 1;
            tally.failed += 1;
            continue;
        };
        let due = Instant::now();
        let gap_ms = (due - prev_done).as_secs_f64() * 1e3;
        let outcome = run_job(inputs, c, server.model, first_job + idx, due)?;
        prev_done = Instant::now();
        if let Err(JobError::Failed(_)) = &outcome {
            client = None;
        }
        tally.record(outcome.map(|sample| JobSample {
            lag_ms: gap_ms,
            ..sample
        }));
    }
    if let Some(c) = client {
        c.goodbye();
    }
    Ok(tally)
}

/// Opens a session, recording the handshake; `None` (logged) on failure.
fn reconnect(server: &Server, traced: bool, job: u64, tally: &mut Tally) -> Option<Client> {
    match connect(server, traced) {
        Ok((client, ms)) => {
            tally.handshake_ms.push((job, ms));
            Some(client)
        }
        Err(err) => {
            eprintln!("perfbench: connect failed: {err}");
            None
        }
    }
}

/// Session arrivals on a fixed schedule; each connects, runs one warm job
/// and says BYE. At most [`CONNECTIONS`] sessions are open at once, so an
/// arrival that finds both slots busy waits — and that wait counts, since
/// a job is timed from when it was due.
fn open_loop(
    inputs: &RunInputs,
    server: &Server,
    schedule: &[Duration],
    first_job: u64,
    traced: bool,
) -> Result<(Tally, f64, f64), Abort> {
    let next = AtomicU64::new(0);
    Phase::new().run(|wait_start| {
        let t0 = wait_start();
        let mut tally = Tally::default();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(&offset) = schedule.get(idx as usize) else {
                break;
            };
            let due = t0 + offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let lag = lag_ms(offset, t0.elapsed());
            let (outcome, handshake) = one_session(inputs, server, first_job + idx, due, traced)?;
            tally
                .handshake_ms
                .extend(handshake.map(|ms| (first_job + idx, ms)));
            tally.record(outcome.map(|sample| JobSample {
                lag_ms: lag,
                ..sample
            }));
        }
        Ok(tally)
    })
}

/// One `churn` session: connect, handshake, one warm job, BYE. The
/// sample's wire counts cover the whole session.
fn one_session(
    inputs: &RunInputs,
    server: &Server,
    job: u64,
    due: Instant,
    traced: bool,
) -> Result<(Result<JobSample, JobError>, Option<f64>), Abort> {
    let (mut client, handshake) = match connect(server, traced) {
        Ok(connected) => connected,
        Err(err) => return Ok((Err(JobError::Failed(err)), None)),
    };
    let outcome = run_job(inputs, &mut client, server.model, job, due)?;
    let transport = client.goodbye();
    let outcome = outcome.map(|sample| {
        let done = Instant::now();
        JobSample {
            job_ms: (done - due).as_secs_f64() * 1e3,
            wire_bytes: transport.sent().bytes() + transport.received().bytes(),
            frames: transport.sent().messages() + transport.received().messages(),
            ..sample
        }
    });
    Ok((outcome, Some(handshake)))
}

/// One round: a fresh service, its setup timed, then one measured phase.
fn round(
    inputs: &RunInputs,
    round: u64,
    traced: bool,
    inline_for: Duration,
) -> Result<PhaseOut, Abort> {
    let (server, setup_s) = setup(inputs, round, traced)?;
    let stock_bytes = server.service().registry().stats().stock_bytes;
    let first_job = round << 32;
    if inputs.workload == Workload::Churn {
        // Unmeasured sessions run before the counter snapshots below, so
        // the phase's registry and journal deltas are its own.
        for w in 0..WARMUP_SESSIONS as u64 {
            let due = Instant::now();
            let (outcome, _) = one_session(
                inputs,
                &server,
                WARMUP_JOB_BASE + first_job + w,
                due,
                traced,
            )?;
            if let Err(JobError::Failed(err)) = outcome {
                eprintln!("perfbench: warm-up session failed: {err}");
            }
        }
    }
    let registry = server.service().registry().clone();
    let before = registry.stats();
    let appends0 = server.service().journal().map_or(0, |j| j.appends());
    let (tally, wall_s, cpu_s) = match inputs.workload {
        Workload::Inline => closed_loop(inputs, &server, inline_for, first_job, traced)?,
        Workload::Churn => {
            let schedule = arrival_schedule(
                derive_seed(inputs.seed, 0x00a7_7100 + round),
                CHURN_RATE_PER_S,
                CHURN_JOBS_PER_ROUND,
            );
            open_loop(inputs, &server, &schedule, first_job, traced)?
        }
    };
    let after = registry.stats();
    let appends1 = server.service().journal().map_or(0, |j| j.appends());
    let mut handshake_ms = tally.handshake_ms;
    if traced {
        // Long-lived sessions handshake twice per phase: probe more.
        for p in 0..HANDSHAKE_PROBES {
            let (client, ms) = connect(&server, true)
                .map_err(|err| Abort::Setup(format!("handshake probe: {err}")))?;
            client.goodbye();
            handshake_ms.push((PROBE_JOB_BASE + first_job + p, ms));
        }
    }
    // `inline` warms up inside its sessions, but touches neither the
    // registry nor a journal.
    let out = PhaseOut {
        samples: tally.samples,
        attempted: tally.attempted,
        failed: tally.failed,
        busy: tally.busy,
        wall_s,
        cpu_s,
        prepared: after.served_prepared - before.served_prepared,
        fallback: after.served_fallback - before.served_fallback,
        refills: after.streams_produced - before.streams_produced,
        stock_bytes,
        journal_appends: appends1 - appends0,
        handshake_ms,
        setup_s: vec![setup_s],
    };
    server.shutdown();
    Ok(out)
}

/// The untraced end-to-end run: `inline` measures one phase that fills
/// `seconds`; `churn` runs rounds until `seconds` have passed (at least
/// [`MIN_ROUNDS`]), since each phase is bounded by its prefilled stock.
pub fn run(inputs: &RunInputs, seconds: f64) -> Result<PhaseOut, Abort> {
    let mut out = PhaseOut::default();
    let t0 = Instant::now();
    match inputs.workload {
        Workload::Inline => {
            for rep in 0..INLINE_SETUP_SAMPLES as u64 {
                let (server, setup_s) = setup(inputs, 1000 + rep, false)?;
                out.setup_s.push(setup_s);
                server.shutdown();
            }
            let remaining = Duration::from_secs_f64(seconds).saturating_sub(t0.elapsed());
            out.merge(round(
                inputs,
                0,
                false,
                remaining.max(Duration::from_secs(1)),
            )?);
        }
        Workload::Churn => {
            let mut r = 0u64;
            while (r as usize) < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
                out.merge(round(inputs, r, false, Duration::ZERO)?);
                r += 1;
            }
        }
    }
    Ok(out)
}

/// The trace run's two serving phases: one untraced, one traced (server
/// recorder on, minted trace contexts), each on a fresh service. Returns
/// `(untraced, traced)`.
pub fn run_pair(inputs: &RunInputs, seconds: f64) -> Result<(PhaseOut, PhaseOut), Abort> {
    let inline_for = Duration::from_secs_f64((seconds / 3.0).max(1.0));
    let untraced = round(inputs, 0, false, inline_for)?;
    let traced = round(inputs, 1, true, inline_for)?;
    Ok((untraced, traced))
}
