//! Pinned values of the in-process API for one fixed model and seed.
//!
//! The numbers were recorded from the per-row in-process drivers that the
//! wire-exchange adapters replaced. The adapters must reproduce them
//! exactly: the transcript accounting, the accelerator's activity report
//! and the modeled multi-unit cycles. Only label values may differ from
//! the second query on.

use maxelerator::{
    connect, connect_multi, secure_matmul, secure_matvec, secure_matvec_multi, AcceleratorConfig,
    MatvecTranscript,
};

const SEED: u64 = 2024;
const X: [i64; 3] = [9, -4, 7];
const X2: [i64; 3] = [-3, 12, 5];

/// Transcript of one 5x3 matvec (15 rounds) on a fresh server.
const ONE_MATVEC: MatvecTranscript = MatvecTranscript {
    elements: 5,
    rounds: 15,
    tables: 2730,
    material_bytes: 91_455,
    ot_bytes: 3840,
    ot_upload_bytes: 5120,
    fabric_cycles: 975,
    fabric_seconds: 4.875e-6,
};

fn model() -> Vec<Vec<i64>> {
    (0..5)
        .map(|r| (0..3).map(|c| ((r * 7 + c * 3) % 23) as i64 - 11).collect())
        .collect()
}

fn plain(x: &[i64]) -> Vec<i64> {
    model()
        .iter()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

#[test]
fn first_matvec_transcript_and_report_are_pinned() {
    let config = AcceleratorConfig::new(8);
    let (mut server, mut client) = connect(&config, model(), SEED);
    let (y, transcript) = secure_matvec(&mut server, &mut client, &X);
    assert_eq!(y, plain(&X));
    assert_eq!(transcript, ONE_MATVEC);
    assert_eq!(
        format!("{:?}", server.accelerator_report()),
        "AcceleratorReport { cycles: 975, tables: 2730, rounds: 15, \
         last_job_ii: 25.666666666666668, last_job_utilization: 0.8863636363636364, \
         labels_generated: 530, label_energy_saving: 0.7770382695507487, \
         pcie_pushed_bytes: 87360, pcie_delivered_bytes: 87360, pcie_peak_backlog: 128, \
         bram_would_stall: 0, energy: EnergyMeter { aes_ops: 10920, rng_cycles: 68608, \
         shifts: 2730, bram_writes: 2730, pcie_bytes: 87360, cycles: 975 } }"
    );
}

#[test]
fn repeated_matvec_transcript_is_pinned() {
    let config = AcceleratorConfig::new(8);
    let (mut server, mut client) = connect(&config, model(), SEED);
    secure_matvec(&mut server, &mut client, &X);
    let (y, transcript) = secure_matvec(&mut server, &mut client, &X);
    assert_eq!(y, plain(&X));
    // The fabric clock is cumulative across queries on one server.
    assert_eq!(
        transcript,
        MatvecTranscript {
            fabric_cycles: 1950,
            fabric_seconds: 9.75e-6,
            ..ONE_MATVEC
        }
    );
}

#[test]
fn two_column_matmul_transcript_is_pinned() {
    let config = AcceleratorConfig::new(8);
    let (mut server, mut client) = connect(&config, model(), SEED);
    let (y, transcript) = secure_matmul(&mut server, &mut client, &[X.to_vec(), X2.to_vec()]);
    for (r, row) in y.iter().enumerate() {
        assert_eq!(row, &vec![plain(&X)[r], plain(&X2)[r]]);
    }
    assert_eq!(
        transcript,
        MatvecTranscript {
            elements: 10,
            rounds: 30,
            tables: 5460,
            material_bytes: 182_910,
            ot_bytes: 7680,
            ot_upload_bytes: 10_240,
            fabric_cycles: 1950,
            fabric_seconds: 9.75e-6,
        }
    );
}

#[test]
fn multi_unit_cycles_are_pinned() {
    let config = AcceleratorConfig::new(8);
    for (units, makespan) in [(1usize, 975u64), (2, 585), (4, 390)] {
        let (mut server, mut client) = connect_multi(&config, model(), units, SEED);
        let (y, transcript, timing) =
            secure_matvec_multi(&mut server, &mut client, &X).expect("in-process exchange");
        assert_eq!(y, plain(&X), "{units} units");
        assert_eq!(timing.makespan_cycles, makespan, "{units} units");
        assert_eq!(timing.total_cycles, 975, "{units} units");
        assert_eq!(
            transcript,
            MatvecTranscript {
                fabric_cycles: makespan,
                fabric_seconds: makespan as f64 / 200e6,
                ..ONE_MATVEC
            },
            "{units} units"
        );
    }
}
