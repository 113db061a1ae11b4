//! Runtime solution selection: [`SolutionKind`] + [`DynSolution`], mirroring
//! `ldp_protocols::{ProtocolKind, Oracle}` one layer up.
//!
//! `DynSolution` erases the concrete solution type, so sweeps, pipelines and
//! services can pick the collection solution at runtime and drive it through
//! one surface. The client side stays generic over `R: Rng + ?Sized`: a
//! producer holding a concrete generator (the pipeline's per-user
//! `SmallRng`) gets a sanitizer monomorphized for it, with no virtual call
//! per draw, while a `&mut dyn RngCore` still drives every solution across
//! an object boundary.

use ldp_protocols::hash::mix2;
use ldp_protocols::{Oracle, ProtocolError, ProtocolKind};
use rand::Rng;

use super::layout::Layout;
use super::mixed::{Mixed, MixedKind};
use super::rsfd::{RsFd, RsFdProtocol};
use super::rsrfd::{RsRfd, RsRfdProtocol};
use super::smp::Smp;
use super::spl::Spl;
use super::{MultidimAggregator, MultidimSolution, SolutionReport};

/// The four collection solutions of the paper, as a plain enum for sweeps
/// and runtime configuration (the counterpart of [`ProtocolKind`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolutionKind {
    /// SPL over one frequency-oracle family at ε/d per attribute.
    Spl(ProtocolKind),
    /// SMP over one frequency-oracle family at the full ε.
    Smp(ProtocolKind),
    /// RS+FD with the given fake-data procedure.
    RsFd(RsFdProtocol),
    /// RS+RFD with the given protocol (priors via
    /// [`SolutionKind::build_with_priors`], uniform otherwise).
    RsRfd(RsRfdProtocol),
    /// Mixed categorical+numeric sample-`k`-of-`d` collection (numeric
    /// dimensions marked with cardinality 0 in `ks`).
    Mixed(MixedKind),
}

impl SolutionKind {
    /// Paper-style display name, e.g. `"SPL[GRR]"` or `"RS+FD[OUE-z]"`.
    pub fn name(self) -> String {
        match self {
            SolutionKind::Spl(kind) => format!("SPL[{}]", kind.name()),
            SolutionKind::Smp(kind) => format!("SMP[{}]", kind.name()),
            SolutionKind::RsFd(protocol) => protocol.name(),
            SolutionKind::RsRfd(protocol) => protocol.name(),
            SolutionKind::Mixed(m) => format!(
                "MIXED[{}+{},k={}]",
                m.protocol.name(),
                m.numeric.name(),
                m.sample_k
            ),
        }
    }

    /// Builds the solution for domain sizes `ks` and per-user budget
    /// `epsilon` — the single construction path for every solution. RS+RFD
    /// defaults to uniform priors (making it estimator-equivalent to RS+FD);
    /// use [`SolutionKind::build_with_priors`] to supply real ones.
    pub fn build(self, ks: &[usize], epsilon: f64) -> Result<DynSolution, ProtocolError> {
        Ok(match self {
            SolutionKind::Spl(kind) => DynSolution::Spl(Spl::new(kind, ks, epsilon)?),
            SolutionKind::Smp(kind) => DynSolution::Smp(Smp::new(kind, ks, epsilon)?),
            SolutionKind::RsFd(protocol) => DynSolution::RsFd(RsFd::new(protocol, ks, epsilon)?),
            SolutionKind::RsRfd(protocol) => {
                let uniform: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
                DynSolution::RsRfd(RsRfd::new(protocol, ks, epsilon, uniform)?)
            }
            SolutionKind::Mixed(m) => DynSolution::Mixed(Mixed::new(m, ks, epsilon)?),
        })
    }

    /// [`SolutionKind::build`] with explicit per-attribute fake-data priors.
    /// Only RS+RFD consumes priors; passing them to any other solution is
    /// rejected so a misconfigured sweep fails loudly.
    pub fn build_with_priors(
        self,
        ks: &[usize],
        epsilon: f64,
        priors: Vec<Vec<f64>>,
    ) -> Result<DynSolution, ProtocolError> {
        match self {
            SolutionKind::RsRfd(protocol) => Ok(DynSolution::RsRfd(RsRfd::new(
                protocol, ks, epsilon, priors,
            )?)),
            other => Err(ProtocolError::InvalidPrior {
                reason: format!("{} does not take fake-data priors", other.name()),
            }),
        }
    }
}

impl std::fmt::Display for SolutionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Enum dispatcher over the concrete solutions (the counterpart of
/// `ldp_protocols::Oracle`): one client/server surface with the solution
/// chosen at runtime.
#[derive(Debug, Clone)]
pub enum DynSolution {
    /// See [`Spl`].
    Spl(Spl),
    /// See [`Smp`].
    Smp(Smp),
    /// See [`RsFd`].
    RsFd(RsFd),
    /// See [`RsRfd`].
    RsRfd(RsRfd),
    /// See [`Mixed`].
    Mixed(Mixed),
}

impl DynSolution {
    /// The solution family of this instance.
    pub fn kind(&self) -> SolutionKind {
        match self {
            DynSolution::Spl(s) => SolutionKind::Spl(s.kind()),
            DynSolution::Smp(s) => SolutionKind::Smp(s.kind()),
            DynSolution::RsFd(s) => SolutionKind::RsFd(s.protocol()),
            DynSolution::RsRfd(s) => SolutionKind::RsRfd(s.protocol()),
            DynSolution::Mixed(s) => SolutionKind::Mixed(s.mixed_kind()),
        }
    }

    /// Paper-style display name.
    pub fn name(&self) -> String {
        self.kind().name()
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.ks().len()
    }

    /// Domain sizes `k_j`.
    pub fn ks(&self) -> &[usize] {
        match self {
            DynSolution::Spl(s) => s.ks(),
            DynSolution::Smp(s) => s.ks(),
            DynSolution::RsFd(s) => s.ks(),
            DynSolution::RsRfd(s) => s.ks(),
            DynSolution::Mixed(s) => s.ks(),
        }
    }

    /// The word layout of this solution's reports, built with it: what
    /// the writer writes and the checked decode, the cursor and the counter
    /// read.
    pub(crate) fn layout(&self) -> &Layout {
        match self {
            DynSolution::Spl(s) => &s.layout,
            DynSolution::Smp(s) => &s.layout,
            DynSolution::RsFd(s) => &s.layout,
            DynSolution::RsRfd(s) => &s.layout,
            DynSolution::Mixed(s) => &s.layout,
        }
    }

    /// The frequency oracle attribute `j`'s entries are counted with: SPL,
    /// SMP and a mixed solution's categorical dimensions have one; fake-data
    /// tuples and numeric dimensions do not.
    pub(crate) fn oracle(&self, j: usize) -> Option<&Oracle> {
        match self {
            DynSolution::Spl(s) => Some(s.oracle(j)),
            DynSolution::Smp(s) => Some(s.oracle(j)),
            DynSolution::Mixed(s) => s.oracle(j),
            DynSolution::RsFd(_) | DynSolution::RsRfd(_) => None,
        }
    }

    /// User-level privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        match self {
            DynSolution::Spl(s) => s.epsilon(),
            DynSolution::Smp(s) => s.epsilon(),
            DynSolution::RsFd(s) => s.epsilon(),
            DynSolution::RsRfd(s) => s.epsilon(),
            DynSolution::Mixed(s) => s.epsilon(),
        }
    }

    /// Client-side sanitization of one user tuple, born encoded: SPL\[UE\]
    /// writes every field straight from its packed draw and RS+FD / RS+RFD
    /// write each entry as they draw it, a GRR value word straight from its
    /// draw ([`MultidimSolution::report_encoded`]); SPL over GRR, OLH or SS
    /// and SMP encode their structured report, so theirs equals
    /// [`SolutionReport::full`] / [`SolutionReport::smp`] of the structured
    /// sanitizer on the same RNG stream. Generic over the RNG: a concrete
    /// generator is monomorphized into the sanitizer, and `&mut dyn RngCore`
    /// works too (`R = dyn RngCore`). Both draw the same stream, so the
    /// reports are identical.
    ///
    /// # Panics
    ///
    /// Panics for [`DynSolution::Mixed`], whose user tuples carry numeric
    /// values a `&[u32]` cannot express — mixed producers must call
    /// [`DynSolution::report_mixed`] instead.
    pub fn report<R: Rng + ?Sized>(&self, tuple: &[u32], rng: &mut R) -> SolutionReport {
        match self {
            DynSolution::Spl(s) => s.report_encoded(tuple, rng),
            DynSolution::Smp(s) => SolutionReport::smp(&s.report(tuple, rng)),
            DynSolution::RsFd(s) => s.report_encoded(tuple, rng),
            DynSolution::RsRfd(s) => s.report_encoded(tuple, rng),
            DynSolution::Mixed(_) => {
                panic!("mixed solutions sanitize via DynSolution::report_mixed")
            }
        }
    }

    /// Client-side sanitization of one heterogeneous user tuple: categorical
    /// values in `cat` (dimension order), normalized `[-1, 1]` numeric values
    /// in `num` (dimension order). The purely categorical solutions require
    /// `num` to be empty and delegate to [`DynSolution::report`].
    pub fn report_mixed<R: Rng + ?Sized>(
        &self,
        cat: &[u32],
        num: &[f64],
        rng: &mut R,
    ) -> Result<SolutionReport, ProtocolError> {
        match self {
            DynSolution::Mixed(s) => Ok(SolutionReport::mixed(&s.report_mixed(cat, num, rng)?)),
            _ if !num.is_empty() => Err(ProtocolError::ReportMismatch {
                expected: "categorical solution given numeric values",
            }),
            _ => Ok(self.report(cat, rng)),
        }
    }

    /// A fresh streaming aggregator holding a copy of this solution, whose
    /// parameters its estimator reads.
    pub fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone())
    }

    /// The parameters that make two solutions the same: the kind (family,
    /// protocol, UE mode, mixed mechanism and `sample_k`), the domain sizes,
    /// ε and, for RS+RFD, the fake-data priors. Everything else a solution
    /// holds (oracles, `(p, q)` pairs, the numeric mechanism) is derived
    /// from these. Aggregators merge only across equal identities, and
    /// [`DynSolution::fingerprint`] hashes it.
    pub(crate) fn identity(&self) -> SolutionIdentity<'_> {
        SolutionIdentity {
            kind: self.kind(),
            ks: self.ks(),
            epsilon: self.epsilon(),
            priors: match self {
                DynSolution::RsRfd(s) => Some(s.priors()),
                _ => None,
            },
        }
    }

    /// A 64-bit hash of the solution's identity, exchanged in the wire
    /// tier's HELLO so a producer sanitizing for a different solution —
    /// which would silently bias every estimate — is refused at handshake.
    /// Equal solutions hash equal; the kind enters by its display name,
    /// plus a mixed solution's mechanism tag and `sample_k`.
    pub fn fingerprint(&self) -> u64 {
        let SolutionIdentity {
            kind,
            ks,
            epsilon,
            priors,
        } = self.identity();
        let mut h = mix2(0x11D9_F00D, epsilon.to_bits());
        for &k in ks {
            h = mix2(h, k as u64);
        }
        for b in kind.name().bytes() {
            h = mix2(h, u64::from(b));
        }
        if let SolutionKind::Mixed(m) = kind {
            h = mix2(h, m.numeric.tag());
            h = mix2(h, m.sample_k as u64);
        }
        for f in priors.into_iter().flatten().flatten() {
            h = mix2(h, f.to_bits());
        }
        h
    }

    /// Batch estimation convenience over buffered reports (prefer streaming
    /// absorption into [`DynSolution::aggregator`] at scale).
    pub fn estimate(&self, reports: &[SolutionReport]) -> Vec<Vec<f64>> {
        let mut agg = self.aggregator();
        for r in reports {
            agg.absorb(r);
        }
        agg.estimate()
    }
}

/// See [`DynSolution::identity`].
#[derive(PartialEq)]
pub(crate) struct SolutionIdentity<'a> {
    kind: SolutionKind,
    ks: &'a [usize],
    epsilon: f64,
    priors: Option<&'a [Vec<f64>]>,
}

impl From<Spl> for DynSolution {
    fn from(s: Spl) -> Self {
        DynSolution::Spl(s)
    }
}

impl From<Smp> for DynSolution {
    fn from(s: Smp) -> Self {
        DynSolution::Smp(s)
    }
}

impl From<RsFd> for DynSolution {
    fn from(s: RsFd) -> Self {
        DynSolution::RsFd(s)
    }
}

impl From<RsRfd> for DynSolution {
    fn from(s: RsRfd) -> Self {
        DynSolution::RsRfd(s)
    }
}

impl From<Mixed> for DynSolution {
    fn from(s: Mixed) -> Self {
        DynSolution::Mixed(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn kind_roundtrips_through_build() {
        let ks = vec![4usize, 3, 5];
        for kind in [
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Sue),
            SolutionKind::RsFd(RsFdProtocol::UeZ(ldp_protocols::UeMode::Optimized)),
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
        ] {
            let solution = kind.build(&ks, 1.5).unwrap();
            assert_eq!(solution.kind(), kind);
            assert_eq!(solution.d(), 3);
            assert_eq!(solution.ks(), &ks[..]);
            assert!((solution.epsilon() - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn build_rejects_bad_parameters() {
        for kind in [
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Grr),
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
        ] {
            assert!(kind.build(&[4], 1.0).is_err(), "{kind}: d < 2");
            assert!(kind.build(&[4, 3], 0.0).is_err(), "{kind}: eps = 0");
        }
    }

    #[test]
    fn priors_only_accepted_by_rsrfd() {
        let ks = [4usize, 3];
        let priors: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
        assert!(SolutionKind::RsRfd(RsRfdProtocol::Grr)
            .build_with_priors(&ks, 1.0, priors.clone())
            .is_ok());
        assert!(SolutionKind::RsFd(RsFdProtocol::Grr)
            .build_with_priors(&ks, 1.0, priors.clone())
            .is_err());
        assert!(SolutionKind::Spl(ProtocolKind::Grr)
            .build_with_priors(&ks, 1.0, priors)
            .is_err());
    }

    #[test]
    fn report_shapes_match_solution_family() {
        let ks = vec![4usize, 3];
        let mut rng = StdRng::seed_from_u64(2);
        let spl = SolutionKind::Spl(ProtocolKind::Grr)
            .build(&ks, 1.0)
            .unwrap();
        assert_eq!(spl.report(&[1, 2], &mut rng).to_full().unwrap().len(), 2);
        let smp = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 1.0)
            .unwrap();
        assert!(smp.report(&[1, 2], &mut rng).to_smp().is_some());
        let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&ks, 1.0)
            .unwrap();
        let tuple = rsfd.report(&[1, 2], &mut rng);
        assert_eq!(tuple.to_tuple().unwrap().len(), 2);
        // Each accessor answers only for its own shape.
        assert!(tuple.to_full().is_none() && tuple.to_smp().is_none());
        assert!(tuple.to_mixed().is_none());
    }

    #[test]
    fn works_behind_dyn_rng_core() {
        // The whole point of the redesign: a boxed RNG (e.g. handed across an
        // object boundary) can drive any solution.
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng: Box<dyn RngCore> = Box::new(StdRng::seed_from_u64(5));
        let report = solution.report(&[0, 1], rng.as_mut());
        assert!(report.to_tuple().is_some());
    }

    #[test]
    fn display_names_follow_paper_convention() {
        assert_eq!(SolutionKind::Spl(ProtocolKind::Grr).name(), "SPL[GRR]");
        assert_eq!(SolutionKind::Smp(ProtocolKind::Oue).name(), "SMP[OUE]");
        assert_eq!(SolutionKind::RsFd(RsFdProtocol::Grr).name(), "RS+FD[GRR]");
        assert_eq!(
            SolutionKind::RsRfd(RsRfdProtocol::Grr).name(),
            "RS+RFD[GRR]"
        );
        assert_eq!(
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: crate::numeric::NumericKind::Piecewise,
                sample_k: 2,
            })
            .name(),
            "MIXED[GRR+PM,k=2]"
        );
    }

    #[test]
    fn mixed_kind_builds_and_reports_through_dyn_surface() {
        let kind = SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: crate::numeric::NumericKind::Hybrid,
            sample_k: 2,
        });
        let ks = [4usize, 0, 3];
        let solution = kind.build(&ks, 1.5).unwrap();
        assert_eq!(solution.kind(), kind);
        assert_eq!(solution.ks(), &ks[..]);
        let mut rng = StdRng::seed_from_u64(7);
        let report = solution.report_mixed(&[1, 2], &[0.5], &mut rng).unwrap();
        assert_eq!(report.to_mixed().unwrap().entries.len(), 2);
        // Categorical solutions still flow through report_mixed, but reject
        // numeric values.
        let spl = SolutionKind::Spl(ProtocolKind::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let full = spl.report_mixed(&[1, 2], &[], &mut rng).unwrap();
        assert!(full.to_full().is_some());
        assert!(spl.report_mixed(&[1, 2], &[0.5], &mut rng).is_err());
    }

    #[test]
    fn fingerprint_separates_solution_configurations() {
        let base = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        for other in [
            SolutionKind::RsFd(RsFdProtocol::Grr)
                .build(&[4, 3], 2.0)
                .unwrap(),
            SolutionKind::RsFd(RsFdProtocol::Grr)
                .build(&[4, 5], 1.0)
                .unwrap(),
            SolutionKind::RsRfd(RsRfdProtocol::Grr)
                .build(&[4, 3], 1.0)
                .unwrap(),
        ] {
            assert_ne!(base.fingerprint(), other.fingerprint(), "{}", other.name());
        }
    }

    #[test]
    fn fingerprint_covers_rsrfd_priors() {
        // Two RS+RFD[GRR] solutions apart only in their priors used to
        // share one HELLO fingerprint (0x61a9dfa59bba8c37), so a producer
        // drawing fake data from the wrong priors passed the handshake.
        let with_priors = |prior0: Vec<f64>| {
            SolutionKind::RsRfd(RsRfdProtocol::Grr)
                .build_with_priors(&[4, 3], 1.0, vec![prior0, vec![0.5, 0.3, 0.2]])
                .unwrap()
        };
        let a = with_priors(vec![0.4, 0.3, 0.2, 0.1]);
        let b = with_priors(vec![0.25; 4]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            with_priors(vec![0.4, 0.3, 0.2, 0.1]).fingerprint()
        );
    }

    #[test]
    fn fingerprints_of_prior_free_kinds_are_pinned() {
        // The HELLO bytes every producer and server exchange: a changed
        // value here breaks the handshake between builds.
        let mixed = SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: crate::numeric::NumericKind::Piecewise,
            sample_k: 2,
        });
        for (kind, ks, epsilon, pinned) in [
            (
                SolutionKind::Spl(ProtocolKind::Oue),
                &[4, 3, 5][..],
                1.0,
                0x3629_b3e4_a03f_c3c3,
            ),
            (
                SolutionKind::Smp(ProtocolKind::Grr),
                &[4, 3],
                2.0,
                0x5307_698e_93a1_c9d7,
            ),
            (
                SolutionKind::RsFd(RsFdProtocol::Grr),
                &[4, 3],
                1.0,
                0x748b_ce22_b907_3eff,
            ),
            (
                SolutionKind::RsFd(RsFdProtocol::UeZ(ldp_protocols::UeMode::Optimized)),
                &[4, 3],
                1.0,
                0xe2a4_a0e8_9ad0_4862,
            ),
            (mixed, &[4, 0, 3], 1.0, 0x0fb5_7ea2_1162_a602),
        ] {
            let solution = kind.build(ks, epsilon).unwrap();
            assert_eq!(solution.fingerprint(), pinned, "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "report_mixed")]
    fn plain_report_panics_for_mixed() {
        let solution = SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: crate::numeric::NumericKind::Duchi,
            sample_k: 1,
        })
        .build(&[4, 0], 1.0)
        .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        solution.report(&[1], &mut rng);
    }
}
