//! The one seeding and repetition policy of the experiment grids: every
//! sweep names its cells, and [`sweep`] measures each cell `cfg.runs` times
//! in parallel, each (cell, repetition) pair on its own seed.

use ldp_protocols::hash::{mix2, mix3};
use ldp_sim::par::par_map;

use crate::ExpConfig;

/// The seed of the sweep labelled `label`: the label's hash mixed into the
/// master seed. The label is part of the figure's output bytes.
pub(crate) fn fig_seed(cfg: &ExpConfig, label: &str) -> u64 {
    mix2(
        cfg.seed,
        label.bytes().fold(0u64, |h, b| mix2(h, u64::from(b))),
    )
}

/// Measures every cell of a grid `cfg.runs` times on `cfg.threads` workers
/// and returns each cell's measurements, in cell order and, within a cell,
/// in run order.
///
/// The (cell, run) pairs are flattened with the run innermost: pair
/// `g = cell · runs + run` is one work item, and `measure(cell, run, seed)`
/// gets `seed = mix3(fig_seed, g, run)`. The output is the same for every
/// thread count.
pub(crate) fn sweep<C, T, F>(cfg: &ExpConfig, fig_seed: u64, cells: &[C], measure: F) -> Vec<Vec<T>>
where
    C: Sync,
    T: Send,
    F: Fn(&C, u64, u64) -> T + Sync,
{
    let runs = cfg.runs;
    let mut flat = par_map(cells.len() * runs, cfg.threads, |g| {
        let run = (g % runs) as u64;
        measure(&cells[g / runs], run, mix3(fig_seed, g as u64, run))
    })
    .into_iter();
    (0..cells.len())
        .map(|_| flat.by_ref().take(runs).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// At `runs = 1` the item index equals the cell index, so only a sweep
    /// over several runs pins the flattening order and the run grouping.
    #[test]
    fn each_cell_and_run_gets_its_flattened_seed_in_run_order() {
        let cells = ["a", "b", "c", "d"];
        let fig = 0xF16;
        let at = |threads| {
            let cfg = ExpConfig {
                runs: 3,
                scale: 0.01,
                threads,
                seed: 5,
                out_dir: PathBuf::from("results"),
            };
            sweep(&cfg, fig, &cells, |&cell, run, seed| (cell, run, seed))
        };
        let out = at(1);
        assert_eq!(out.len(), cells.len());
        for (c, runs) in out.iter().enumerate() {
            let want: Vec<_> = (0..3u64)
                .map(|run| (cells[c], run, mix3(fig, c as u64 * 3 + run, run)))
                .collect();
            assert_eq!(runs, &want, "cell {c}");
        }
        assert_eq!(at(3), out);
    }
}
