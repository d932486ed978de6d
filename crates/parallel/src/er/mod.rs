//! Parallel ER (paper §5–6): configuration types and both execution
//! back-ends (deterministic simulation and real threads).

pub mod engine;
pub mod id;
pub mod threads;

use gametree::{SearchStats, Value};
use problem_heap::{CostModel, SimReport};
use search_serial::OrderPolicy;

/// Which of §5's three speculative-work mechanisms are enabled. The paper's
/// implementation "exploits all three sources"; the ablation experiments
/// toggle them individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Speculation {
    /// After the e-child of E is evaluated, refute E's remaining children
    /// in parallel rather than one at a time.
    pub parallel_refutation: bool,
    /// Keep selecting additional e-children for an e-node via the
    /// speculative queue ("ensure that E always has at least one active
    /// e-child").
    pub multiple_enodes: bool,
    /// Select an e-child as soon as all but one of the elder grandchildren
    /// are evaluated, instead of waiting for the last one.
    pub early_choice: bool,
}

impl Speculation {
    /// All three mechanisms on — the paper's configuration.
    pub const ALL: Speculation = Speculation {
        parallel_refutation: true,
        multiple_enodes: true,
        early_choice: true,
    };

    /// No speculation: only mandatory work is scheduled (heavy starvation,
    /// the motivating failure mode of §3).
    pub const NONE: Speculation = Speculation {
        parallel_refutation: false,
        multiple_enodes: false,
        early_choice: false,
    };
}

/// Configuration of a parallel ER run. Each back-end has one frontier
/// search: the simulator solves serial-frontier jobs with serial ER, the
/// threaded back-end with alpha-beta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ErParallelConfig {
    /// Remaining depth at or below which a taken node is solved by one
    /// serial search in a single unit of work (Table 3's "serial depth"
    /// column). The simulator solves exactly those nodes, with serial ER.
    /// The threaded back-end solves them with alpha-beta and treats a
    /// positive value as a floor, which its grain rule lifts while the
    /// subtrees below stay within 400 minimal-tree leaves (DESIGN.md
    /// §7.2). Zero keeps every node on the heap in both back-ends.
    pub serial_depth: u32,
    /// Static ordering policy for children of non-e-nodes (selects elder
    /// grandchildren); e-node children are never statically sorted.
    pub order: OrderPolicy,
    /// Enabled speculation mechanisms.
    pub spec: Speculation,
    /// Virtual costs of the primitive operations.
    pub cost: CostModel,
    /// Placeholder that carries nothing. Only perfbench's adapter still
    /// reads it, to fill the `sel` of its serial [`ErConfig`] literal;
    /// the next change to the benchmark deletes both. Build
    /// configurations with [`ErParallelConfig::new`].
    ///
    /// [`ErConfig`]: search_serial::ErConfig
    pub sel: (),
}

impl ErParallelConfig {
    /// Serial depth `serial_depth` and ordering `order`, with every
    /// speculation mechanism on and the default cost model.
    pub fn new(serial_depth: u32, order: OrderPolicy) -> ErParallelConfig {
        ErParallelConfig {
            serial_depth,
            order,
            spec: Speculation::ALL,
            cost: CostModel::default(),
            sel: (),
        }
    }

    /// The paper's random-tree configuration for a given serial depth.
    pub fn random_tree(serial_depth: u32) -> ErParallelConfig {
        ErParallelConfig::new(serial_depth, OrderPolicy::NATURAL)
    }

    /// The paper's Othello configuration (sorting above ply five, serial
    /// depth five).
    pub fn othello() -> ErParallelConfig {
        ErParallelConfig::new(5, OrderPolicy::OTHELLO)
    }
}

/// Result of one simulated parallel ER run.
#[derive(Clone, Debug)]
pub struct ErRunResult {
    /// The root value (identical to serial search of the same tree).
    pub value: Value,
    /// Virtual-time execution report.
    pub report: SimReport,
    /// Aggregate nodes examined / evaluator calls across all processors —
    /// the quantity of Figures 12 and 13.
    pub stats: SearchStats,
    /// Per-job trace (start time, cost, ply, task kind) for diagnostics.
    pub trace: Vec<engine::JobTrace>,
    /// Path keys of every examined node (interior expansions and leaves;
    /// serial-frontier subtree roots appear as one key), in completion
    /// order. Meaningful for work classification (the `mandatory` module)
    /// when `serial_depth == 0`.
    pub examined_keys: Vec<u64>,
}

pub use engine::{run_er_sim, run_er_sim_with};
pub use id::{root_split, run_er_threads_id, AspirationConfig, DepthResult, ErIdResult, IdStepper};
pub use threads::{run_er_threads, run_er_threads_exec, run_er_threads_with, ThreadsConfig};
