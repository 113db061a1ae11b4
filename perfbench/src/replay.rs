//! Single-thread replay of an ingest chain over a workload's population:
//! each public stage function the workload runs is called in turn on the
//! same reports it sends, and timed per 1024-report frame. The replay uses
//! the pipeline's `user_rng_round` streams, so its aggregate must equal what
//! the workload's server drained for the same round.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ldp_core::solutions::{CompactBatch, DynSolution};
use ldp_datasets::Dataset;
use ldp_server::wire::{crc32, encode_batch_seq_frame, read_frame, Frame};
use ldp_sim::user_rng_round;

use crate::run::Run;

/// Reports per replayed frame: `NetClient`'s default batch.
const FRAME: usize = 1024;

/// The ingest chain a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// `NetClient` → `WireServer`: sanitize → `CompactBatch::push` → frame
    /// seal → CRC → `read_frame` → validate → `absorb_compact`.
    Wire,
    /// `LdpServer::ingest_batch`: sanitize → `CompactBatch::push` →
    /// `absorb_compact`.
    InProcess,
}

/// Replays `round` of the population through `chain`, records the per-layer
/// costs of its stages in `run`, and returns the replay's estimates.
pub fn stages(
    run: &mut Run,
    chain: Chain,
    dataset: &Dataset,
    solution: &DynSolution,
    round: u64,
) -> Result<Vec<Vec<f64>>, String> {
    let n = dataset.n();
    let seed = run.cfg.seed;
    let mut aggregator = solution.aggregator();
    let mut reports = Vec::with_capacity(FRAME);
    let mut batch = CompactBatch::new();
    let mut buf = Vec::new();
    let mut t = [Duration::ZERO; 7];
    let (mut frames, mut bytes) = (0u64, 0u64);
    for lo in (0..n).step_by(FRAME) {
        let uids = lo as u64..(lo + FRAME).min(n) as u64;
        reports.clear();
        batch.clear();

        let s = Instant::now();
        for uid in uids.clone() {
            let mut rng = user_rng_round(seed, uid, round);
            reports.push(solution.report(dataset.row(uid as usize), &mut rng));
        }
        t[0] += s.elapsed();

        let s = Instant::now();
        for (uid, report) in uids.zip(&reports) {
            batch.push(uid, report);
        }
        t[1] += s.elapsed();

        if chain == Chain::InProcess {
            let s = Instant::now();
            aggregator.absorb_compact(&batch);
            t[6] += s.elapsed();
            continue;
        }

        let s = Instant::now();
        encode_batch_seq_frame(frames + 1, &batch, &mut buf);
        t[2] += s.elapsed();

        let s = Instant::now();
        black_box(crc32(black_box(&buf)));
        t[3] += s.elapsed();

        let s = Instant::now();
        let frame = read_frame(&mut buf.as_slice()).map_err(|e| format!("replay decode: {e}"))?;
        t[4] += s.elapsed();
        let Frame::BatchSeq { batch: decoded, .. } = frame else {
            return Err(format!("replay decoded {frame:?}, not a BATCH_SEQ"));
        };

        let s = Instant::now();
        decoded
            .validate_for_solution(solution)
            .map_err(|e| format!("replay validate: {e:?}"))?;
        t[5] += s.elapsed();

        let s = Instant::now();
        aggregator.absorb_compact(&decoded);
        t[6] += s.elapsed();

        frames += 1;
        bytes += buf.len() as u64;
    }
    let per_report = |d: Duration| d.as_nanos() as f64 / n as f64;
    run.layer("solutions.sanitize_ns", per_report(t[0]), "ns");
    run.layer("compact.push_ns", per_report(t[1]), "ns");
    run.layer("aggregator.absorb_ns", per_report(t[6]), "ns");
    if chain == Chain::Wire {
        run.layer("wire.seal_ns", per_report(t[2]), "ns");
        let crc_mb_s = bytes as f64 / t[3].as_secs_f64() / 1e6;
        run.layer("wire.crc_mb_s", crc_mb_s, "MB/s");
        run.layer("wire.decode_ns", per_report(t[4]), "ns");
        run.layer("wire.validate_ns", per_report(t[5]), "ns");
        run.layer("wire.frames", frames as f64, "count");
        run.layer("wire.bytes_per_report", bytes as f64 / n as f64, "B");
    }
    Ok(aggregator.estimate())
}
