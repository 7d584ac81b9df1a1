//! Per-layer accounting of solver work, read from each answer's `Stats`.

use crate::report::Outcome;
use crate::stats::ratio;
use cyclecover_solver::api::{Optimality, Stats};
use std::time::Duration;

/// Which kernel served a request: read off the spec's largest demand and
/// the request's `partition_probes` provenance.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Unit demand on the branch-and-bound core (IterCore).
    Unit,
    /// Demands 2..=3 on the lane core (LaneCore).
    Lanes,
    /// Every budget probe on the partition kernel.
    Partition,
    /// Demands above 3 on the recursive MultiKernel.
    Multi,
    /// Some probes partitioned, some not; counted in no kernel's rate.
    Mixed,
    /// No search ran (heuristics, cached or refused answers).
    None,
}

impl Route {
    /// The route of one answer.
    pub fn of(max_demand: u32, stats: &Stats) -> Route {
        if stats.nodes == 0 {
            Route::None
        } else if stats.partition_probes > 0 {
            if stats.partition_probes == u64::from(stats.budgets_tried) {
                Route::Partition
            } else {
                Route::Mixed
            }
        } else if max_demand <= 1 {
            Route::Unit
        } else if max_demand <= 3 {
            Route::Lanes
        } else {
            Route::Multi
        }
    }

    /// Short tag for spans and the per-instance table.
    pub fn tag(self) -> &'static str {
        match self {
            Route::Unit => "unit",
            Route::Lanes => "lanes",
            Route::Partition => "partition",
            Route::Multi => "multi",
            Route::Mixed => "mixed",
            Route::None => "none",
        }
    }
}

/// Nodes and kernel time of one route.
#[derive(Default, Clone, Copy)]
struct Rate {
    nodes: u64,
    wall: Duration,
}

impl Rate {
    fn knodes_per_s(self) -> f64 {
        ratio(self.nodes as f64 / 1e3, self.wall.as_secs_f64())
    }
}

/// Search work summed over many answers.
#[derive(Default)]
pub struct KernelTotals {
    solve_wall: Duration,
    nodes: u64,
    pruned: u64,
    dominated: u64,
    sym_pruned: u64,
    canon_pruned: u64,
    budgets_tried: u64,
    partition_probes: u64,
    wasted_nodes: u64,
    memo_hits: u64,
    memo_entries: u64,
    shared_hits: u64,
    silent_off: u64,
    unit: Rate,
    lanes: Rate,
    partition: Rate,
    multi: Rate,
}

impl KernelTotals {
    /// Adds one answer; `memo_asked` says whether the request wanted the
    /// memo (an answer that searched past 1000 nodes with no memo entries
    /// then shows the memo was switched off without saying so).
    pub fn absorb(
        &mut self,
        max_demand: u32,
        memo_asked: bool,
        sol_stats: &Stats,
        verdict: &Optimality,
    ) {
        let s = sol_stats;
        self.solve_wall += s.wall;
        self.nodes += s.nodes;
        self.pruned += s.pruned;
        self.dominated += s.dominated;
        self.sym_pruned += s.sym_pruned;
        self.canon_pruned += s.canon_pruned;
        self.budgets_tried += u64::from(s.budgets_tried);
        self.partition_probes += s.partition_probes;
        if matches!(verdict, Optimality::BudgetExhausted { .. }) {
            self.wasted_nodes += s.nodes;
        }
        self.memo_hits += s.memo_hits;
        self.memo_entries += s.memo_entries;
        self.shared_hits += s.shared_hits;
        if memo_asked && s.nodes > 1000 && s.memo_entries == 0 {
            self.silent_off += 1;
        }
        let rate = match Route::of(max_demand, s) {
            Route::Unit => &mut self.unit,
            Route::Lanes => &mut self.lanes,
            Route::Partition => &mut self.partition,
            Route::Multi => &mut self.multi,
            Route::Mixed | Route::None => return,
        };
        rate.nodes += s.nodes;
        rate.wall += s.wall;
    }

    /// Total time inside `Engine::solve`, as `Stats::wall` reports it.
    pub fn solve_wall(&self) -> Duration {
        self.solve_wall
    }

    /// Writes the solver-layer metrics; counts are divided by `per` (the
    /// number of identical passes the totals span, 1 for a stream).
    pub fn write(&self, per: f64, out: &mut Outcome) {
        let per = per.max(1.0);
        let count = |v: u64| v as f64 / per;
        out.set("api.solve_ms", self.solve_wall.as_secs_f64() * 1e3 / per);
        out.set("api.nodes", count(self.nodes));
        out.set("api.pruned", count(self.pruned));
        out.set("api.dominated", count(self.dominated));
        out.set("api.sym_pruned", count(self.sym_pruned));
        out.set("api.canon_pruned", count(self.canon_pruned));
        out.set("api.budgets_tried", count(self.budgets_tried));
        out.set("api.partition_probes", count(self.partition_probes));
        out.set(
            "api.wasted_node_frac",
            ratio(self.wasted_nodes as f64, self.nodes as f64),
        );
        out.set("search_core.unit.knodes_per_s", self.unit.knodes_per_s());
        out.set("search_core.lanes.knodes_per_s", self.lanes.knodes_per_s());
        out.set("dlx.partition.knodes_per_s", self.partition.knodes_per_s());
        out.set("bnb.multi.knodes_per_s", self.multi.knodes_per_s());
        out.set("memo.hits", count(self.memo_hits));
        out.set("memo.entries", count(self.memo_entries));
        out.set(
            "memo.hits_per_knode",
            ratio(self.memo_hits as f64, self.nodes as f64 / 1e3),
        );
        out.set("memo.shared_hits", count(self.shared_hits));
        out.set("memo.silent_off", count(self.silent_off));
    }
}
