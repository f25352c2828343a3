//! The Figure-1 system: a cloud server (garbler, with the accelerator and
//! the model matrix) serving a client (evaluator, with the input vector).
//!
//! The server's host CPU relays accelerator output and runs the OT with the
//! client — exactly the division of labour in §3: "MAXelerator creates the
//! garbled tables and sends them to the host CPU that later performs the
//! communication with the client including OT."
//!
//! The in-process API is a thin adapter over the one wire exchange of
//! [`crate::remote`]: [`connect`] opens a session over an in-memory
//! [`Duplex`], and every query is one JOB that the server garbles on its
//! accelerator and streams while the client runs
//! [`RemoteClient::secure_matmul`] — the same frames, CRC seals and
//! transcript digests as a served session.

use max_gc::channel::Duplex;
use serde::{Deserialize, Serialize};

use crate::config::AcceleratorConfig;
use crate::multi_unit::{connect_multi, MultiUnitServer};
use crate::remote::RemoteClient;

/// Communication/computation accounting of one secure matrix-vector
/// product.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatvecTranscript {
    /// Output elements computed.
    pub elements: usize,
    /// MAC rounds garbled.
    pub rounds: u64,
    /// Garbled tables transferred.
    pub tables: u64,
    /// Bytes of garbled material + input labels (server → client).
    pub material_bytes: u64,
    /// Bytes of OT ciphertexts (server → client).
    pub ot_bytes: u64,
    /// Bytes of OT corrections (client → server).
    pub ot_upload_bytes: u64,
    /// Fabric cycles spent garbling.
    pub fabric_cycles: u64,
    /// Wall-clock the fabric would need at the configured frequency.
    pub fabric_seconds: f64,
}

/// The cloud server: a one-unit accelerator bank with the model matrix and
/// the garbler's end of the session.
pub struct CloudServer {
    bank: MultiUnitServer,
}

impl std::fmt::Debug for CloudServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer")
            .field("rows", &self.rows())
            .finish_non_exhaustive()
    }
}

/// The client: the evaluator's end of an in-process session.
pub struct ClientSession {
    /// `None` once a failed exchange has closed the session.
    pub(crate) remote: Option<RemoteClient<Duplex>>,
}

impl std::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession").finish_non_exhaustive()
    }
}

/// Creates a connected server/client pair (the OT base phase runs here).
///
/// An empty matrix is accepted: the resulting matvec is the empty vector.
///
/// # Panics
///
/// Panics if the matrix is ragged or a non-empty matrix has zero columns.
/// Values that do not fit the configured bit-width panic at the first
/// query.
pub fn connect(
    config: &AcceleratorConfig,
    weights: Vec<Vec<i64>>,
    seed: u64,
) -> (CloudServer, ClientSession) {
    let (bank, client) = connect_multi(config, weights, 1, seed);
    (CloudServer { bank }, client)
}

impl CloudServer {
    /// Number of model rows (output elements).
    pub fn rows(&self) -> usize {
        self.bank.rows()
    }

    /// Vector length the client must supply (zero for an empty model).
    pub fn cols(&self) -> usize {
        self.bank.cols()
    }

    /// Direct access to the accelerator's activity report.
    pub fn accelerator_report(&self) -> &crate::accelerator::AcceleratorReport {
        self.bank.units[0].report()
    }
}

/// Runs one job of `x_columns` and returns the per-column results with the
/// transcript. The transcript's fabric cycles are the accelerator's
/// cumulative clock, which on a fresh server equals the job's own cycles.
fn run_job(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x_columns: &[Vec<i64>],
) -> (Vec<Vec<i64>>, MatvecTranscript) {
    for column in x_columns {
        assert_eq!(column.len(), server.cols(), "vector length mismatch");
    }
    let _span = max_telemetry::span("secure_matvec");
    let (columns, mut transcript, _) = server
        .bank
        .exchange(client, x_columns)
        .expect("in-process exchange is well-formed");
    let cycles = server.accelerator_report().cycles;
    transcript.fabric_cycles = cycles;
    transcript.fabric_seconds = cycles as f64 / (server.bank.units[0].config().freq_mhz * 1e6);
    (columns, transcript)
}

/// Runs a complete privacy-preserving matrix-vector product `y = W·x`
/// between `server` and `client`, with the client's `x` delivered through
/// the full OT-extension stack.
///
/// Returns the decoded result (revealed to the client, per the protocol)
/// and the transcript accounting.
///
/// # Panics
///
/// Panics if `x` length differs from the server's column count or values do
/// not fit the configured bit-width.
pub fn secure_matvec(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x: &[i64],
) -> (Vec<i64>, MatvecTranscript) {
    let (mut columns, transcript) = run_job(server, client, &[x.to_vec()]);
    (columns.swap_remove(0), transcript)
}

/// Runs a complete privacy-preserving matrix product `Y = W·X` (Eq. 3 of
/// the paper) where the client\'s matrix `X` is supplied column by column.
///
/// Returns `Y` row-major (`rows x x_columns.len()`) and the merged
/// transcript. All columns travel as one job whose elements the one MAC
/// unit garbles column after column, so the paper\'s cycle formula
/// `3*M*N*P*b` holds for it.
///
/// # Panics
///
/// Panics if any column length differs from the server\'s column count.
pub fn secure_matmul(
    server: &mut CloudServer,
    client: &mut ClientSession,
    x_columns: &[Vec<i64>],
) -> (Vec<Vec<i64>>, MatvecTranscript) {
    assert!(!x_columns.is_empty(), "need at least one column");
    let (columns, transcript) = run_job(server, client, x_columns);
    let result = (0..server.rows())
        .map(|i| columns.iter().map(|column| column[i]).collect())
        .collect();
    (result, transcript)
}

#[cfg(test)]
mod tests {
    use super::*;
    use max_gc::GarbledTable;

    fn plain_matvec(w: &[Vec<i64>], x: &[i64]) -> Vec<i64> {
        w.iter()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn secure_matvec_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![
            vec![1i64, -2, 3, 4],
            vec![-5, 6, -7, 8],
            vec![0, 0, 127, -128],
        ];
        let x = vec![9i64, -10, 11, 12];
        let expected = plain_matvec(&w, &x);
        let (mut server, mut client) = connect(&config, w, 99);
        let (got, transcript) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected);
        assert_eq!(transcript.elements, 3);
        assert_eq!(transcript.rounds, 12);
        assert!(transcript.tables > 0);
        assert!(transcript.material_bytes > transcript.tables * GarbledTable::WIRE_BYTES as u64);
        assert!(transcript.ot_bytes > 0);
        assert!(transcript.fabric_seconds > 0.0);
    }

    #[test]
    fn sixteen_bit_matvec() {
        let config = AcceleratorConfig::new(16);
        let w = vec![vec![1000i64, -2000], vec![30_000, 1]];
        let x = vec![-7i64, 250];
        let expected = plain_matvec(&w, &x);
        let (mut server, mut client) = connect(&config, w, 5);
        let (got, _) = secure_matvec(&mut server, &mut client, &x);
        assert_eq!(got, expected);
    }

    #[test]
    fn repeated_queries_reuse_ot_setup() {
        // Sequential GC + OT extension: the same session serves multiple
        // queries with fresh labels each time.
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![2i64, 3]];
        let (mut server, mut client) = connect(&config, w, 17);
        let (y1, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        let (y2, _) = secure_matvec(&mut server, &mut client, &[-1, 1]);
        assert_eq!(y1, vec![80]);
        assert_eq!(y2, vec![1]);
    }

    #[test]
    fn secure_matmul_matches_plaintext() {
        let config = AcceleratorConfig::new(8);
        let w = vec![vec![1i64, -2, 3], vec![4, 5, -6]];
        let x_cols = vec![vec![1i64, 0, -1], vec![7, -8, 9]];
        let (mut server, mut client) = connect(&config, w.clone(), 123);
        let (y, t) = secure_matmul(&mut server, &mut client, &x_cols);
        for i in 0..2 {
            for j in 0..2 {
                let want: i64 = w[i].iter().zip(&x_cols[j]).map(|(a, b)| a * b).sum();
                assert_eq!(y[i][j], want, "({i},{j})");
            }
        }
        assert_eq!(t.elements, 4);
        assert_eq!(t.rounds, 12);
    }

    #[test]
    fn empty_model_yields_empty_result() {
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![], 3);
        let (y, t) = secure_matvec(&mut server, &mut client, &[]);
        assert!(y.is_empty());
        assert_eq!(t.elements, 0);
        assert_eq!(t.tables, 0);
        assert_eq!(t.material_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "vector length mismatch")]
    fn wrong_vector_length_rejected() {
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![vec![1, 2]], 1);
        secure_matvec(&mut server, &mut client, &[1]);
    }

    #[test]
    #[should_panic(expected = "ragged model matrix")]
    fn ragged_matrix_rejected() {
        let config = AcceleratorConfig::new(8);
        connect(&config, vec![vec![1, 2], vec![3]], 1);
    }
    #[test]
    fn repeated_queries_draw_fresh_labels() {
        // Two identical queries on one session must not resend the same
        // labels: a client whose two queries differ in one bit would
        // otherwise learn Δ from the two OT labels of that bit.
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![vec![2i64, 3], vec![-4, 5]], 17);
        let last_pairs = |server: &CloudServer| server.bank.units[0].ot_pairs(1).unwrap().to_vec();
        let (y1, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        let first = last_pairs(&server);
        let (y2, _) = secure_matvec(&mut server, &mut client, &[10, 20]);
        assert_eq!(y1, vec![80, 60]);
        assert_eq!(y2, y1);
        assert_ne!(first, last_pairs(&server));

        // The server end of each query garbles a fresh job.
        let (q1, _) = server.bank.garble(1).unwrap();
        let (q2, _) = server.bank.garble(1).unwrap();
        for (a, b) in q1.rows.iter().zip(&q2.rows) {
            assert_ne!(a.messages[0].tables, b.messages[0].tables);
            assert_ne!(a.pairs, b.pairs);
        }
    }

    #[test]
    fn matmul_columns_draw_fresh_labels() {
        // The two columns of one secure_matmul job garble the same model
        // rows; they must still share no tables and no OT pairs.
        let config = AcceleratorConfig::new(8);
        let (mut server, _client) = connect(&config, vec![vec![1i64, -2], vec![3, 4]], 29);
        let (job, _) = server.bank.garble(2).unwrap();
        let (first, second) = job.rows.split_at(2);
        for (a, b) in first.iter().zip(second) {
            assert_ne!(a.messages[0].tables, b.messages[0].tables);
            assert_ne!(a.pairs, b.pairs);
        }
    }
    #[test]
    #[should_panic(expected = "does not fit in 8 signed bits")]
    fn out_of_range_weight_panics_without_blocking() {
        // The server end panics mid-job: the client end must see the
        // hang-up, and the server's panic must surface here.
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![vec![300, 1]], 1);
        secure_matvec(&mut server, &mut client, &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "does not fit in 8 signed bits")]
    fn out_of_range_input_panics_without_blocking() {
        // The client end panics while the server end waits for its EXT.
        let config = AcceleratorConfig::new(8);
        let (mut server, mut client) = connect(&config, vec![vec![3, 1]], 1);
        secure_matvec(&mut server, &mut client, &[1, 300]);
    }
}
