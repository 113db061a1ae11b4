//! Fig. 1: analytical expected attacker accuracy over multiple collections,
//! `d = 3`, `k = [74, 7, 16]`, `#surveys = 3`, uniform (Eq. 4) and
//! non-uniform (Eq. 5) privacy metrics.

use ldp_core::profiling::{expected_acc_nonuniform, expected_acc_uniform};
use ldp_protocols::{deniability, ProtocolKind};

use crate::table::{fnum, Table};
use crate::{eps_grid, ExpConfig};

/// The Fig. 1 attribute domains.
pub const FIG1_KS: [usize; 3] = [74, 7, 16];

/// Per-attribute single-report attack accuracies for one protocol at `eps`.
pub fn acc_per_attribute(kind: ProtocolKind, eps: f64, ks: &[usize]) -> Vec<f64> {
    ks.iter()
        .map(|&k| deniability::expected_acc(&kind.build(k, eps).expect("valid config")))
        .collect()
}

/// Runs the figure: one table, written as `fig01.csv`.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let _ = cfg; // analytical: nothing to scale or seed
    let mut table = Table::new(
        "Fig 1: analytical expected ACC after #surveys = d = 3 (k = [74, 7, 16])",
        &["protocol", "eps", "acc_uniform_pct", "acc_nonuniform_pct"],
    );
    for kind in ProtocolKind::ALL {
        for eps in eps_grid() {
            let accs = acc_per_attribute(kind, eps, &FIG1_KS);
            table.row(vec![
                kind.name().to_string(),
                fnum(eps),
                fnum(100.0 * expected_acc_uniform(&accs)),
                fnum(100.0 * expected_acc_nonuniform(&accs)),
            ]);
        }
    }
    vec![table]
}
