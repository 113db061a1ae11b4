//! Properties of the compact report representation: for **every protocol ×
//! every solution family**, (1) `CompactBatch` encoding round-trips every
//! report shape exactly, and (2) aggregation straight from the encoded words
//! (`MultidimAggregator::absorb_compact`) is **bit-identical** to absorbing
//! the original `SolutionReport`s — counts, estimates and normalized
//! estimates alike. This is what licenses the ingestion service to move
//! pooled flat buffers across its channels instead of heap-owning reports.
//! (3) Routing a batch by its encoded report spans
//! (`LdpServer::ingest_compact`) drains bit-identically to routing the
//! decoded reports (`LdpServer::ingest_batch`), which is what licenses the
//! wire tier to skip decoding.

use ldp_core::solutions::{
    CompactBatch, DynSolution, MixedKind, RsFdProtocol, RsRfdProtocol, SolutionKind, SolutionReport,
};
use ldp_core::NumericKind;
use ldp_datasets::corpora::adult_like;
use ldp_datasets::mixed::mixed_survey_like;
use ldp_protocols::ProtocolKind;
use ldp_server::{Envelope, LdpServer, ServerConfig};
use ldp_sim::user_rng;

/// Every constructible solution family × every underlying protocol: SPL and
/// SMP over all five frequency oracles, RS+FD over its five fake-data
/// variants, RS+RFD over both of its protocols.
fn all_kinds() -> Vec<SolutionKind> {
    let mut kinds = Vec::new();
    for p in ProtocolKind::ALL {
        kinds.push(SolutionKind::Spl(p));
        kinds.push(SolutionKind::Smp(p));
    }
    for p in RsFdProtocol::ALL {
        kinds.push(SolutionKind::RsFd(p));
    }
    kinds.push(SolutionKind::RsRfd(RsRfdProtocol::Grr));
    kinds.push(SolutionKind::RsRfd(RsRfdProtocol::UeR(
        ldp_protocols::UeMode::Optimized,
    )));
    kinds
}

#[test]
fn compact_encoding_roundtrips_and_aggregates_bit_identically() {
    // A 65-value attribute forces multi-block bit vectors and multi-word
    // subsets through the encoder.
    let ds = adult_like(400, 5);
    let ks = ds.schema().cardinalities();
    for kind in all_kinds() {
        for (seed, eps) in [(1u64, 0.8f64), (2, 2.0), (3, 5.0)] {
            let solution = kind.build(&ks, eps).unwrap();
            let wire: Vec<(u64, SolutionReport)> = (0..ds.n() as u64)
                .map(|uid| {
                    let mut rng = user_rng(seed, uid);
                    (uid, solution.report(ds.row(uid as usize), &mut rng))
                })
                .collect();

            // Property 1: encode → decode is the identity.
            let mut batch = CompactBatch::new();
            for (uid, report) in &wire {
                batch.push(*uid, report);
            }
            assert_eq!(batch.len(), wire.len(), "{kind} eps={eps}");
            let decoded: Vec<(u64, SolutionReport)> = batch.iter().collect();
            assert_eq!(decoded, wire, "{kind} eps={eps}: round-trip");

            // Property 2: counting from the encoded words == absorbing the
            // original reports, bit for bit, including estimates.
            let mut reference = solution.aggregator();
            for (_, report) in &wire {
                reference.absorb(report);
            }
            let mut compact = solution.aggregator();
            compact.absorb_compact(&batch);
            assert_eq!(compact.n(), reference.n(), "{kind} eps={eps}");
            assert_eq!(compact.counts(), reference.counts(), "{kind} eps={eps}");
            for (a, b) in compact
                .estimate()
                .iter()
                .flatten()
                .zip(reference.estimate().iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind} eps={eps}: estimates");
            }
            for (a, b) in compact
                .estimate_normalized()
                .iter()
                .flatten()
                .zip(reference.estimate_normalized().iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind} eps={eps}: normalized");
            }
        }
    }
}

#[test]
fn compact_absorption_splits_arbitrarily_across_batches() {
    // Absorbing one big batch, many small ones, or a reused cleared buffer
    // must all land on the same state (the pool-recycling contract).
    let ds = adult_like(300, 7);
    let ks = ds.schema().cardinalities();
    let solution = SolutionKind::Smp(ProtocolKind::Olh)
        .build(&ks, 2.0)
        .unwrap();
    let wire: Vec<(u64, SolutionReport)> = (0..ds.n() as u64)
        .map(|uid| {
            let mut rng = user_rng(9, uid);
            (uid, solution.report(ds.row(uid as usize), &mut rng))
        })
        .collect();
    let mut reference = solution.aggregator();
    for (_, report) in &wire {
        reference.absorb(report);
    }
    for chunk_size in [1usize, 7, 64, 300] {
        let mut agg = solution.aggregator();
        let mut buffer = CompactBatch::new();
        for chunk in wire.chunks(chunk_size) {
            buffer.clear();
            for (uid, report) in chunk {
                buffer.push(*uid, report);
            }
            agg.absorb_compact(&buffer);
        }
        assert_eq!(agg.counts(), reference.counts(), "chunk={chunk_size}");
    }
}

#[test]
#[should_panic(expected = "does not match this aggregator's solution")]
fn compact_absorption_rejects_foreign_shapes() {
    let smp = SolutionKind::Smp(ProtocolKind::Grr)
        .build(&[4, 3], 1.0)
        .unwrap();
    let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3], 1.0)
        .unwrap();
    let mut rng = user_rng(1, 1);
    let mut batch = CompactBatch::new();
    batch.push(0, &rsfd.report(&[1, 2], &mut rng));
    smp.aggregator().absorb_compact(&batch);
}

#[test]
fn span_routing_drains_bit_identically_to_report_routing() {
    let ds = adult_like(300, 13);
    let ks = ds.schema().cardinalities();
    let mixed = mixed_survey_like(300, 17);
    let mut cases: Vec<(SolutionKind, DynSolution, CompactBatch)> = Vec::new();
    for kind in all_kinds() {
        let solution = kind.build(&ks, 2.0).unwrap();
        let mut batch = CompactBatch::new();
        for uid in 0..ds.n() as u64 {
            let mut rng = user_rng(4, uid);
            batch.push(uid, &solution.report(ds.row(uid as usize), &mut rng));
        }
        cases.push((kind, solution, batch));
    }
    // MIXED over a categorical value, hashed and bit-vector protocol, each
    // with its own numeric mechanism.
    for (protocol, numeric) in [ProtocolKind::Grr, ProtocolKind::Olh, ProtocolKind::Oue]
        .into_iter()
        .zip(NumericKind::ALL)
    {
        let kind = SolutionKind::Mixed(MixedKind {
            protocol,
            numeric,
            sample_k: 3,
        });
        let solution = kind.build(&mixed.ks(), 2.0).unwrap();
        let mut batch = CompactBatch::new();
        for uid in 0..mixed.n() as u64 {
            let mut rng = user_rng(5, uid);
            let i = uid as usize;
            let report = solution
                .report_mixed(mixed.cat().row(i), mixed.num_row(i), &mut rng)
                .unwrap();
            batch.push(uid, &report);
        }
        cases.push((kind, solution, batch));
    }

    for (kind, solution, batch) in &cases {
        // Spans tile the words: concatenated, they are the batch's encoded
        // words (the bytes after the count header and the uids), and
        // re-pushing them rebuilds the batch exactly.
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        let words: Vec<u64> = bytes[16 + 8 * batch.len()..]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let spans: Vec<_> = batch.spans().collect();
        assert_eq!(spans.len(), batch.len(), "{kind}");
        let tiled: Vec<u64> = spans.iter().flat_map(|(_, span)| span.to_vec()).collect();
        assert_eq!(tiled, words, "{kind}: spans tile the words");
        let mut rebuilt = CompactBatch::new();
        for &(uid, span) in &spans {
            rebuilt.push_encoded(uid, span);
        }
        assert_eq!(&rebuilt, batch, "{kind}: push_encoded rebuilds the batch");

        for shards in [1usize, 2, 3, 8] {
            // A small channel batch makes the routing loop flush mid-frame.
            let config = ServerConfig::default().shards(shards).batch(16);
            let by_spans = LdpServer::spawn(solution.clone(), config.clone());
            by_spans.ingest_compact(batch);
            let by_spans = by_spans.drain();
            let by_reports = LdpServer::spawn(solution.clone(), config);
            by_reports.ingest_batch(batch.iter().map(|(uid, report)| Envelope { uid, report }));
            let by_reports = by_reports.drain();
            assert_eq!(by_spans.n, batch.len() as u64, "{kind} shards={shards}");
            assert_eq!(by_spans.n, by_reports.n, "{kind} shards={shards}");
            assert_eq!(
                by_spans.aggregator.counts(),
                by_reports.aggregator.counts(),
                "{kind} shards={shards}"
            );
            assert_eq!(
                by_spans.aggregator.num_sums(),
                by_reports.aggregator.num_sums(),
                "{kind} shards={shards}"
            );
            for (a, b) in by_spans
                .estimates
                .iter()
                .flatten()
                .chain(by_spans.normalized.iter().flatten())
                .zip(
                    by_reports
                        .estimates
                        .iter()
                        .flatten()
                        .chain(by_reports.normalized.iter().flatten()),
                )
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind} shards={shards}");
            }
        }
    }
}
