//! Parallel baselines from the paper's §4 (prior work). The paper's §8
//! names direct quantitative comparison as future work; these
//! implementations provide it.

pub mod aspiration;
pub mod mwf;
pub mod pv_split;
pub mod root_split;
pub mod tree_split;

pub use aspiration::{run_aspiration, run_aspiration_guess, AspirationRunResult};
pub use mwf::{run_mwf, MwfResult};
pub use pv_split::{run_pv_split, run_pv_split_mw, PvSplitResult};
pub use root_split::{run_root_split, RootSplitResult};
pub use tree_split::{run_tree_split, run_tree_split_window, ProcShape, TreeSplitResult};
