//! Properties of the compact report representation: for **every protocol ×
//! every solution family**, (1) `CompactBatch` encoding round-trips every
//! report shape exactly, and (2) aggregation straight from the encoded words
//! (`MultidimAggregator::absorb_compact`) is **bit-identical** to absorbing
//! the original `SolutionReport`s — counts, estimates and normalized
//! estimates alike. This is what licenses the ingestion service to absorb
//! flat buffers instead of heap-owning reports.
//! (3) Handing each frame of a batch to one shard whole
//! (`LdpServer::ingest_compact`) drains bit-identically to batching the
//! decoded reports (`LdpServer::ingest_batch`) and to a serial absorb, and
//! snapshots cover exactly the frames sent before them, which is what licenses
//! the wire tier to absorb frames without decoding or copying them. (4) The
//! word-parallel bit-vector tally inside `absorb_compact` counts exactly at
//! its edges: byte lanes saturated by all-ones reports, flushes at every
//! 255 entries, domain widths on and around word boundaries, and batches
//! split at any size. (5) A report is
//! born encoded: `DynSolution::report` writes exactly the words the
//! `SolutionReport` constructors encode for the structured report the
//! solution-level sanitizer draws from the same RNG stream (for RS+FD and
//! RS+RFD, which have no structured sanitizer, a reference assembled from
//! the public protocol objects), and the typed accessors decode them back. (6) Absorbing reports one by one counts
//! exactly what one batch of them counts, and what the structured reports
//! count.

use ldp_core::solutions::{
    CompactBatch, DynSolution, MixedEntry, MixedKind, MixedReport, MultidimAggregator,
    RsFdProtocol, RsRfdProtocol, SmpReport, SolutionKind, SolutionReport, NUMERIC_DIM,
};
use ldp_core::{NumericKind, NumericReport};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::mixed::mixed_survey_like;
use ldp_protocols::{BitVec, FrequencyOracle, Grr, ProtocolKind, Report, UeMode, UnaryEncoding};
use ldp_server::{Envelope, LdpServer, ServerConfig, ServerSnapshot};
use ldp_sim::user_rng;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    // must all land on the same state (the pool-recycling contract). The
    // UE kinds count through the byte-lane tally, whose flush every 255
    // entries the chunk sizes around 255 straddle.
    let ds = adult_like(600, 7);
    let ks = ds.schema().cardinalities();
    for kind in [
        SolutionKind::Smp(ProtocolKind::Olh),
        SolutionKind::Spl(ProtocolKind::Oue),
        SolutionKind::Smp(ProtocolKind::Sue),
        SolutionKind::RsFd(RsFdProtocol::UeZ(UeMode::Optimized)),
    ] {
        let solution = kind.build(&ks, 2.0).unwrap();
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
        for chunk_size in [1usize, 7, 64, 254, 255, 256, 300, 600] {
            let mut agg = solution.aggregator();
            let mut buffer = CompactBatch::new();
            for chunk in wire.chunks(chunk_size) {
                buffer.clear();
                for (uid, report) in chunk {
                    buffer.push(*uid, report);
                }
                agg.absorb_compact(&buffer);
            }
            assert_eq!(agg.n(), reference.n(), "{kind} chunk={chunk_size}");
            assert_eq!(
                agg.counts(),
                reference.counts(),
                "{kind} chunk={chunk_size}"
            );
        }
    }
}

/// A bit vector of width `k` with every lane set: each report adds one to
/// every byte-lane counter of the tally.
fn all_ones(k: usize) -> Report {
    let mut bits = BitVec::zeros(k);
    for wi in 0..bits.word_count() {
        bits.set_word(wi, u64::MAX);
    }
    Report::Bits(bits)
}

/// Report `uid` of a hand-built stream whose every bit-vector entry is
/// all ones, in `solution`'s shape.
fn saturating_report(solution: &DynSolution, uid: u64) -> SolutionReport {
    let ks = solution.ks();
    match solution.kind() {
        SolutionKind::Spl(_) => {
            SolutionReport::full(&ks.iter().map(|&k| all_ones(k)).collect::<Vec<_>>())
        }
        SolutionKind::Smp(_) => {
            // Every other report lands on the last attribute, saturating
            // it; the rest rotate through all of them.
            let attr = if uid.is_multiple_of(2) {
                ks.len() - 1
            } else {
                uid as usize % ks.len()
            };
            SolutionReport::smp(&SmpReport {
                attr,
                report: all_ones(ks[attr]),
            })
        }
        SolutionKind::RsFd(_) => SolutionReport::tuple(
            &ks.iter().map(|&k| all_ones(k)).collect::<Vec<_>>(),
            uid as usize % ks.len(),
        ),
        SolutionKind::Mixed(_) => SolutionReport::mixed(&MixedReport {
            entries: ks
                .iter()
                .enumerate()
                .map(|(j, &k)| match k {
                    NUMERIC_DIM => (j, MixedEntry::Num(NumericReport::from_raw(uid as i64))),
                    k => (j, MixedEntry::Cat(all_ones(k))),
                })
                .collect(),
        }),
        other => unreachable!("no saturating stream for {other}"),
    }
}

#[test]
fn bit_tally_counts_saturated_lanes_exactly_at_every_flush_boundary() {
    // Widths on and around word boundaries; 129 and up spill the report's
    // `BitVec` to the heap. (k = 1 builds no solution; the tally's own unit
    // test covers it.)
    let ks = [2usize, 63, 64, 65, 128, 129, 200];
    let mut mixed_ks = ks.to_vec();
    mixed_ks.insert(3, NUMERIC_DIM);
    let mixed = SolutionKind::Mixed(MixedKind {
        protocol: ProtocolKind::Oue,
        numeric: NumericKind::Piecewise,
        sample_k: mixed_ks.len(),
    });
    let solutions = [
        SolutionKind::Spl(ProtocolKind::Oue).build(&ks, 1.0),
        SolutionKind::Smp(ProtocolKind::Sue).build(&ks, 1.0),
        SolutionKind::RsFd(RsFdProtocol::UeZ(UeMode::Optimized)).build(&ks, 1.0),
        mixed.build(&mixed_ks, 1.0),
    ];
    for solution in solutions.map(Result::unwrap) {
        let name = solution.name();
        for n in [254u64, 255, 256, 511, 1_025] {
            let mut batch = CompactBatch::new();
            let mut reference = solution.aggregator();
            for uid in 0..n {
                let report = saturating_report(&solution, uid);
                reference.absorb(&report);
                batch.push(uid, &report);
            }
            let mut compact = solution.aggregator();
            compact.absorb_compact(&batch);
            assert_eq!(compact.n(), n, "{name} n={n}");
            assert_eq!(compact.counts(), reference.counts(), "{name} n={n}");
            assert_eq!(compact.num_sums(), reference.num_sums(), "{name} n={n}");
            // Saturated attributes count every report in every lane.
            if matches!(
                solution.kind(),
                SolutionKind::Spl(_) | SolutionKind::RsFd(_)
            ) {
                assert!(compact.counts().iter().flatten().all(|&c| c == n), "{name}");
            }
            // A second batch on top of the flushed first one adds exactly.
            compact.absorb_compact(&batch);
            reference.merge(&reference.clone());
            assert_eq!(compact.counts(), reference.counts(), "{name} n={n} twice");
        }
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
fn frame_routing_drains_bit_identically_to_report_routing() {
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
        // Seven frames (six of 43 reports, one of 42): a frame count that
        // is a multiple of no shard count below, so round-robin leaves the
        // shards unevenly loaded.
        let reports: Vec<(u64, SolutionReport)> = batch.iter().collect();
        let frames: Vec<CompactBatch> = reports
            .chunks(43)
            .map(|chunk| {
                let mut frame = CompactBatch::new();
                for (uid, report) in chunk {
                    frame.push(*uid, report);
                }
                frame
            })
            .collect();
        assert_eq!(frames.len(), 7, "{kind}");
        let serial = |reports: &[(u64, SolutionReport)]| {
            let mut aggregator = solution.aggregator();
            for (_, report) in reports {
                aggregator.absorb(report);
            }
            ServerSnapshot::from_aggregator(aggregator, 1)
        };
        let reference = serial(&reports);

        for shards in [1usize, 2, 3, 8] {
            let label = format!("{kind} shards={shards}");
            // A server batch smaller than a frame: `ingest_batch` absorbs
            // several batches per call, `ingest_compact` one per frame.
            let config = ServerConfig::default().shards(shards).batch(16);

            let by_frames = LdpServer::spawn(solution.clone(), config.clone());
            for (k, frame) in frames.iter().enumerate() {
                by_frames.ingest_compact(frame.clone());
                if k == 2 {
                    // Per-shard FIFO: a snapshot covers exactly the
                    // frames sent so far.
                    assert_same(
                        &by_frames.snapshot(),
                        &serial(&reports[..3 * 43]),
                        &format!("{label} after 3 frames"),
                    );
                }
            }
            assert_same(&by_frames.drain(), &reference, &format!("{label} frames"));

            let by_reports = LdpServer::spawn(solution.clone(), config.clone());
            by_reports.ingest_batch(envelopes(batch));
            assert_same(&by_reports.drain(), &reference, &format!("{label} reports"));

            // Both entries interleaved on one server, one-report batches
            // included.
            let mixed = LdpServer::spawn(solution.clone(), config);
            for (k, frame) in frames.iter().enumerate() {
                match k % 3 {
                    0 => envelopes(frame)
                        .for_each(|envelope| mixed.ingest_batch(std::iter::once(envelope))),
                    1 => mixed.ingest_batch(envelopes(frame)),
                    _ => mixed.ingest_compact(frame.clone()),
                }
            }
            assert_same(&mixed.drain(), &reference, &format!("{label} interleaved"));
        }
    }
}

/// A batch's reports as in-process envelopes.
fn envelopes(batch: &CompactBatch) -> impl Iterator<Item = Envelope> + '_ {
    batch.iter().map(|(uid, report)| Envelope { uid, report })
}

/// Two snapshots agree bit for bit: report count, counts, numeric sums,
/// estimates and normalized estimates.
fn assert_same(got: &ServerSnapshot, want: &ServerSnapshot, label: &str) {
    assert_eq!(got.n, want.n, "{label}: n");
    assert_eq!(
        got.aggregator.counts(),
        want.aggregator.counts(),
        "{label}: counts"
    );
    assert_eq!(
        got.aggregator.num_sums(),
        want.aggregator.num_sums(),
        "{label}: numeric sums"
    );
    for (a, b) in got
        .estimates
        .iter()
        .flatten()
        .chain(got.normalized.iter().flatten())
        .zip(
            want.estimates
                .iter()
                .flatten()
                .chain(want.normalized.iter().flatten()),
        )
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: estimates");
    }
}

/// A report as the solution-level sanitizers return it, before encoding.
#[derive(Debug, PartialEq)]
enum Structured {
    Full(Vec<Report>),
    Smp(SmpReport),
    /// A fake-data tuple's entries and its hidden sampled attribute.
    Tuple(Vec<Report>, usize),
    Mixed(MixedReport),
}

impl Structured {
    /// Sanitizes one user through the solution's structured path
    /// (`Spl::report`, `Smp::report`, `Mixed::report_mixed`). The fake-data
    /// solutions sanitize only into words, so their reference is
    /// [`fake_data_tuple`], which shares no code with them.
    fn draw(solution: &DynSolution, cat: &[u32], num: &[f64], rng: &mut StdRng) -> Self {
        match solution {
            DynSolution::Spl(s) => Structured::Full(s.report(cat, rng)),
            DynSolution::Smp(s) => Structured::Smp(s.report(cat, rng)),
            DynSolution::RsFd(_) | DynSolution::RsRfd(_) => fake_data_tuple(solution, cat, rng),
            DynSolution::Mixed(s) => Structured::Mixed(s.report_mixed(cat, num, rng).unwrap()),
        }
    }

    /// The constructor encoding.
    fn encode(&self) -> SolutionReport {
        match self {
            Structured::Full(reports) => SolutionReport::full(reports),
            Structured::Smp(report) => SolutionReport::smp(report),
            Structured::Tuple(values, sampled) => SolutionReport::tuple(values, *sampled),
            Structured::Mixed(report) => SolutionReport::mixed(report),
        }
    }

    /// The one accessor that answers for `report`'s shape.
    fn decode(report: &SolutionReport) -> Self {
        let decoded = [
            report.to_full().map(Structured::Full),
            report.to_smp().map(Structured::Smp),
            report
                .to_tuple()
                .map(|values| Structured::Tuple(values, report.hidden_attribute().unwrap())),
            report.to_mixed().map(Structured::Mixed),
        ];
        let mut shapes = decoded.into_iter().flatten();
        let shape = shapes.next().expect("some accessor decodes the report");
        assert!(shapes.next().is_none(), "two accessors decode one report");
        shape
    }

    /// Absorbs through the aggregator's structured entry points.
    fn absorb_into(&self, agg: &mut MultidimAggregator) {
        match self {
            Structured::Full(reports) => agg.absorb_full(reports),
            Structured::Smp(report) => agg.absorb_smp(report),
            Structured::Tuple(values, _) => agg.absorb_tuple(values),
            Structured::Mixed(report) => agg.absorb_mixed(report),
        }
    }
}

/// How a fake-data solution draws the entry of an attribute it did not
/// sample.
enum Fake<'a> {
    /// A uniform value of the domain (RS+FD over GRR and UE-r).
    Uniform,
    /// A UE-perturbed zero vector (RS+FD over UE-z).
    ZeroVector,
    /// A sample of the attribute's prior (RS+RFD).
    Prior(&'a [Vec<f64>]),
}

/// An RS+FD / RS+RFD tuple built from public protocol objects at the
/// solution's `epsilon_amplified()`: the sampled index is drawn first, then
/// each attribute in order gets either its value sanitized by `Grr` /
/// `UnaryEncoding::randomize` or a fake. A GRR fake is the plain value; a
/// UE-r fake is the value one-hot encoded and randomized; a UE-z fake is
/// `perturb_zero_vector`.
fn fake_data_tuple(solution: &DynSolution, cat: &[u32], rng: &mut StdRng) -> Structured {
    let (eps, ue, fake) = match solution {
        DynSolution::RsFd(s) | DynSolution::RsRfd(s) => match (s.protocol(), s.priors()) {
            (RsFdProtocol::Grr, None) => (s.epsilon_amplified(), None, Fake::Uniform),
            (RsFdProtocol::UeZ(m), _) => (s.epsilon_amplified(), Some(m), Fake::ZeroVector),
            (RsFdProtocol::UeR(m), None) => (s.epsilon_amplified(), Some(m), Fake::Uniform),
            (RsFdProtocol::Grr, Some(p)) => (s.epsilon_amplified(), None, Fake::Prior(p)),
            (RsFdProtocol::UeR(m), Some(p)) => (s.epsilon_amplified(), Some(m), Fake::Prior(p)),
        },
        other => unreachable!("{} is not a fake-data solution", other.name()),
    };
    let sampled = rng.random_range(0..cat.len());
    let mut values = Vec::with_capacity(cat.len());
    for (j, (&k, &v)) in solution.ks().iter().zip(cat).enumerate() {
        let fake_value = |rng: &mut StdRng| match fake {
            Fake::Prior(priors) => sample_prior(&priors[j], rng),
            _ => rng.random_range(0..k as u32),
        };
        values.push(match ue {
            None if j == sampled => Grr::new(k, eps).unwrap().randomize(v, rng),
            None => Report::Value(fake_value(rng)),
            Some(mode) => {
                let ue = UnaryEncoding::new(k, eps, mode).unwrap();
                match fake {
                    _ if j == sampled => ue.randomize(v, rng),
                    Fake::ZeroVector => Report::Bits(ue.perturb_zero_vector(rng)),
                    _ => {
                        let value = fake_value(rng);
                        ue.randomize(value, rng)
                    }
                }
            }
        });
    }
    Structured::Tuple(values, sampled)
}

/// One inverse-CDF sample of `pmf`, as RS+RFD draws a fake: the first value
/// whose renormalized running sum reaches a uniform `u`, the last value if
/// none does before it.
fn sample_prior(pmf: &[f64], rng: &mut StdRng) -> u32 {
    let total: f64 = pmf.iter().sum();
    let u: f64 = rng.random();
    let mut acc = 0.0;
    for (v, &p) in pmf[..pmf.len() - 1].iter().enumerate() {
        acc += p;
        if acc / total >= u {
            return v as u32;
        }
    }
    (pmf.len() - 1) as u32
}

/// Every solution kind: SPL and SMP over the five oracles, RS+FD over GRR,
/// UE-z and UE-r × SUE/OUE, RS+RFD over GRR and UE-r × SUE/OUE, and the
/// mixed solution over every oracle with a numeric mechanism each (a mixed
/// kind gets numeric dimensions spliced into its domains).
fn every_kind(sample_k: usize) -> Vec<SolutionKind> {
    let mut kinds = Vec::new();
    for p in ProtocolKind::ALL {
        kinds.push(SolutionKind::Spl(p));
        kinds.push(SolutionKind::Smp(p));
    }
    kinds.extend(RsFdProtocol::ALL.map(SolutionKind::RsFd));
    kinds.push(SolutionKind::RsRfd(RsRfdProtocol::Grr));
    for mode in [UeMode::Symmetric, UeMode::Optimized] {
        kinds.push(SolutionKind::RsRfd(RsRfdProtocol::UeR(mode)));
    }
    for (protocol, numeric) in ProtocolKind::ALL
        .into_iter()
        .zip(NumericKind::ALL.into_iter().cycle())
    {
        kinds.push(SolutionKind::Mixed(MixedKind {
            protocol,
            numeric,
            sample_k,
        }));
    }
    kinds
}

/// `kind` built over categorical domains `ks` (a mixed kind gets a numeric
/// dimension after the first and at the end).
fn build_kind(kind: SolutionKind, ks: &[usize], eps: f64) -> DynSolution {
    let mut ks = ks.to_vec();
    if let SolutionKind::Mixed(m) = kind {
        ks.insert(1, NUMERIC_DIM);
        ks.push(NUMERIC_DIM);
        let kind = SolutionKind::Mixed(MixedKind {
            sample_k: m.sample_k.clamp(1, ks.len()),
            ..m
        });
        return kind.build(&ks, eps).unwrap();
    }
    kind.build(&ks, eps).unwrap()
}

/// A random user of `solution`: categorical values inside their domains,
/// numeric values in `[-1, 1]`.
fn random_user(solution: &DynSolution, rng: &mut StdRng) -> (Vec<u32>, Vec<f64>) {
    let ks = solution.ks();
    let cat = ks
        .iter()
        .filter(|&&k| k != NUMERIC_DIM)
        .map(|&k| rng.random_range(0..k as u32))
        .collect();
    let num = ks
        .iter()
        .filter(|&&k| k == NUMERIC_DIM)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    (cat, num)
}

/// Domain shapes the born-encoded SPL\[UE\] writer must slice right: the
/// Adult survey (Σk = 174 over three packed words, a k = 74 field
/// straddling two), a tuple past the 512 stack lanes with k > 128 fields
/// (heap `BitVec`s on the structured side), and fields ending on and
/// straddling word boundaries.
const SHAPES: [&[usize]; 3] = [
    &[74, 7, 16, 7, 14, 6, 5, 2, 41, 2],
    &[300, 150, 100],
    &[63, 2, 65, 129, 3],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For every kind and domain shape (the fixed ones plus a random one),
    /// a born-encoded report equals the constructor encoding of the
    /// structured report drawn from the same RNG stream, leaves that stream
    /// at the same position, and decodes back to the structured report.
    #[test]
    fn born_encoded_reports_equal_their_structured_encoding(
        random_ks in prop::collection::vec(2usize..140, 2..6),
        eps in 0.2f64..8.0,
        sample_k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut shapes: Vec<&[usize]> = SHAPES.to_vec();
        shapes.push(&random_ks);
        for ks in shapes {
            for kind in every_kind(sample_k) {
                let solution = build_kind(kind, ks, eps);
                let mut users = StdRng::seed_from_u64(seed ^ 0x05E2);
                let mut born_rng = StdRng::seed_from_u64(seed);
                let mut structured_rng = born_rng.clone();
                for _ in 0..12 {
                    let (cat, num) = random_user(&solution, &mut users);
                    let born = solution.report_mixed(&cat, &num, &mut born_rng).unwrap();
                    let structured =
                        Structured::draw(&solution, &cat, &num, &mut structured_rng);
                    let label = format!("{} ks={ks:?} eps={eps}", solution.name());
                    prop_assert_eq!(born.words(), structured.encode().words(), "{}", label);
                    prop_assert_eq!(&born_rng, &structured_rng, "{}: stream position", label);
                    prop_assert_eq!(Structured::decode(&born), structured, "{}", label);
                }
            }
        }
    }
}

#[test]
fn single_report_absorb_matches_batch_and_structured_absorb() {
    // 600 reports: the batch tally flushes mid-batch (every 255 entries per
    // attribute), the single-report path never holds a pending count, and
    // the structured entry points count from materialized reports.
    for kind in every_kind(2) {
        for ks in SHAPES {
            let solution = build_kind(kind, ks, 1.5);
            let mut users = StdRng::seed_from_u64(31);
            let mut rng = StdRng::seed_from_u64(37);
            let reports: Vec<SolutionReport> = (0..600)
                .map(|_| {
                    let (cat, num) = random_user(&solution, &mut users);
                    solution.report_mixed(&cat, &num, &mut rng).unwrap()
                })
                .collect();
            let (mut single, mut batched, mut structured) = (
                solution.aggregator(),
                solution.aggregator(),
                solution.aggregator(),
            );
            let mut batch = CompactBatch::new();
            for (uid, report) in reports.iter().enumerate() {
                single.absorb(report);
                batch.push(uid as u64, report);
                Structured::decode(report).absorb_into(&mut structured);
            }
            batched.absorb_compact(&batch);
            let label = format!("{} ks={ks:?}", solution.name());
            for other in [&batched, &structured] {
                assert_eq!(single.n(), other.n(), "{label}");
                assert_eq!(single.counts(), other.counts(), "{label}");
                assert_eq!(single.num_sums(), other.num_sums(), "{label}");
                for (a, b) in single
                    .estimate()
                    .iter()
                    .flatten()
                    .zip(other.estimate().iter().flatten())
                {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: estimates");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "does not match this aggregator's solution")]
fn single_report_absorb_rejects_foreign_shapes() {
    let smp = SolutionKind::Smp(ProtocolKind::Grr)
        .build(&[4, 3], 1.0)
        .unwrap();
    let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3], 1.0)
        .unwrap();
    smp.aggregator()
        .absorb(&rsfd.report(&[1, 2], &mut user_rng(1, 1)));
}
