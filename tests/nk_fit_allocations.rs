//! The NK fit holds what its classifier reads, not its synthetic profiles.
//!
//! A no-knowledge attacker trains on `s·n` synthetic profiles. Each one is
//! drawn, sanitized with the known mechanism and encoded into its feature
//! row, then dropped, so the fit's live heap allocations do not grow with
//! the number of profiles. A counting global allocator, in this test binary
//! only, measures the peak number of live allocations during one
//! `SampledAttributeAttack::train` call. A fit that kept every synthetic
//! report alive (one heap allocation each) would hold at least `s·n`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::solutions::{MultidimSolution, RsFd, RsFdProtocol};
use ldp_datasets::corpora::adult_like;
use ldp_gbdt::GbdtParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Live allocations right now, and the most seen since the last reset.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Wraps the system allocator and counts live allocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `Counting` upholds exactly the contract `System` does; the counters are
// atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(1, Ordering::Relaxed) + 1;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(1, Ordering::Relaxed) + 1;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` came from `System`, as for `dealloc`; a
        // realloc moves one allocation, so the live count does not change.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn nk_fit_does_not_hold_its_synthetic_profiles() {
    let n = 2_000;
    let dataset = adult_like(n, 5);
    let solution = RsFd::new(RsFdProtocol::Grr, &dataset.schema().cardinalities(), 4.0).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let (observed, _) = solution.report_round(dataset.rows(), &mut rng);
    let model = AttackModel::NoKnowledge { synth_factor: 5.0 };
    let classifier = AttackClassifier::Gbdt(GbdtParams {
        rounds: 3,
        max_depth: 3,
        ..GbdtParams::default()
    });
    let n_synth = model.synth_count(n);

    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let (attack, test_idx) =
        SampledAttributeAttack::train(&solution, &observed, &[], &model, &classifier, &mut rng, 2);
    let peak = PEAK.load(Ordering::Relaxed) - entry;
    drop(attack);

    assert_eq!(test_idx.len(), n, "an NK attacker tests on every user");
    let bound = n_synth as isize / 4;
    assert!(
        peak < bound,
        "the NK fit held {peak} live allocations above its entry count at its \
         peak, for {n_synth} synthetic profiles (bound {bound})"
    );
}
