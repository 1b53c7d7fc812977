//! The typed experiment registry: every paper artefact the harness can
//! regenerate, declared as data.
//!
//! Each entry names the experiment, the paper artefact it reproduces,
//! the trace suites it needs, the scales it supports, and a one-line
//! description of its configuration grid — everything the planner
//! (see [`crate::orchestrate`]) needs to dedupe trace generation
//! across a multi-experiment run, and everything the CLI needs to
//! render help and validate names. This replaces the free-function
//! exports and string dispatch the CLI used to hand-roll.

use bpred_workloads::{Scale, Suite};

use crate::experiments;
use crate::format::Report;
use crate::traces::TraceSet;

/// One reproducible paper artefact: declarative metadata plus a runner.
///
/// [`ExperimentDef`] is the registry's data-driven implementation; the
/// trait exists so future experiment providers (generated grids,
/// external campaign definitions) can plug into the same orchestrator.
pub trait Experiment: Sync {
    /// The CLI / registry name (`fig2`, `ablation-init`, ...).
    fn name(&self) -> &'static str;
    /// The paper artefact reproduced (`Figure 2`, `Table 4`, ...).
    fn artefact(&self) -> &'static str;
    /// One-line description for help text and manifests.
    fn doc(&self) -> &'static str;
    /// The trace suites the experiment needs (empty: no traces).
    fn suites(&self) -> &'static [Suite];
    /// The scales the experiment supports.
    fn scales(&self) -> &'static [Scale];
    /// A one-line summary of the configuration grid driven.
    fn grid(&self) -> &'static str;
    /// Runs the experiment against an already-generated trace set.
    fn run(&self, set: &TraceSet, jobs: Option<usize>) -> Report;
}

/// A registry entry: the declarative form of one experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentDef {
    /// The CLI / registry name.
    pub name: &'static str,
    /// The paper artefact reproduced.
    pub artefact: &'static str,
    /// One-line description for help text and manifests.
    pub doc: &'static str,
    /// Trace suites the experiment needs (empty: no traces). The
    /// orchestrator runs the experiment on exactly these suites of the
    /// run's trace pool, in this order, whatever else the run holds:
    /// `repro all` and `repro run <name>` give it the same traces.
    pub suites: &'static [Suite],
    /// Scales the experiment supports.
    pub scales: &'static [Scale],
    /// One-line summary of the configuration grid driven.
    pub grid: &'static str,
    /// The runner.
    pub runner: fn(&TraceSet, Option<usize>) -> Report,
}

impl Experiment for ExperimentDef {
    fn name(&self) -> &'static str {
        self.name
    }
    fn artefact(&self) -> &'static str {
        self.artefact
    }
    fn doc(&self) -> &'static str {
        self.doc
    }
    fn suites(&self) -> &'static [Suite] {
        self.suites
    }
    fn scales(&self) -> &'static [Scale] {
        self.scales
    }
    fn grid(&self) -> &'static str {
        self.grid
    }
    fn run(&self, set: &TraceSet, jobs: Option<usize>) -> Report {
        (self.runner)(set, jobs)
    }
}

/// Every scale; all current experiments support all three.
const ALL_SCALES: &[Scale] = &[Scale::Smoke, Scale::Paper, Scale::Full];
/// Both paper suites.
const BOTH: &[Suite] = &[Suite::SpecInt95, Suite::IbsUltrix];
/// SPEC CINT95 only (the gcc/go-centric analyses).
const SPEC: &[Suite] = &[Suite::SpecInt95];
/// IBS-Ultrix only.
const IBS: &[Suite] = &[Suite::IbsUltrix];
/// The program-backed simulated kernels (the CFA cross-check).
const SIM: &[Suite] = &[Suite::SimKernels];
/// No traces at all (documentation tables).
const NONE: &[Suite] = &[];

fn run_table1(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::table1(set.scale())
}
fn run_table2(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::table2(set)
}
fn run_table3(_set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::table3()
}
fn run_table4(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::table4(set)
}
fn run_fig3(set: &TraceSet, jobs: Option<usize>) -> Report {
    experiments::fig34(set, Suite::SpecInt95, jobs)
}
fn run_fig4(set: &TraceSet, jobs: Option<usize>) -> Report {
    experiments::fig34(set, Suite::IbsUltrix, jobs)
}
fn run_fig5(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::fig5(set)
}
fn run_fig6(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::fig6(set)
}
fn run_fig7(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::fig78(set, "gcc")
}
fn run_fig8(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::fig78(set, "go")
}
fn run_aliasing(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::aliasing_taxonomy(set)
}
fn run_warmup(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::warmup_curves(set)
}
fn run_cfa(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::cfa_report(set)
}
fn run_cfa_bias(set: &TraceSet, _jobs: Option<usize>) -> Report {
    experiments::cfa_bias(set)
}

/// The registry, in paper order: tables and figures first, then the
/// ablations and extensions. DESIGN.md §4 is the human-readable index;
/// `repro verify` proves the two stay in lockstep.
pub const REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        name: "table1",
        artefact: "Table 1",
        doc: "workload inputs (paper Table 1)",
        suites: NONE,
        scales: ALL_SCALES,
        grid: "documentation only, no configs driven",
        runner: run_table1,
    },
    ExperimentDef {
        name: "table2",
        artefact: "Table 2",
        doc: "static/dynamic branch counts (paper Table 2)",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "trace statistics only, no configs driven",
        runner: run_table2,
    },
    ExperimentDef {
        name: "table3",
        artefact: "Table 3",
        doc: "normalized-count worked example (paper Table 3)",
        suites: NONE,
        scales: ALL_SCALES,
        grid: "the paper's verbatim 4-branch example",
        runner: run_table3,
    },
    ExperimentDef {
        name: "table4",
        artefact: "Table 4",
        doc: "bias-class change counts on gcc (paper Table 4)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "2 schemes at 256 counters, two-pass analysis on gcc",
        runner: run_table4,
    },
    ExperimentDef {
        name: "fig2",
        artefact: "Figure 2",
        doc: "suite-average misprediction vs size (paper Figure 2)",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "3 schemes x 8 sizes (132 configs incl. gshare.best search) per suite",
        runner: experiments::fig2,
    },
    ExperimentDef {
        name: "fig3",
        artefact: "Figure 3",
        doc: "per-benchmark curves, SPEC CINT95 (paper Figure 3)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "3 schemes x 8 sizes (132 configs incl. gshare.best search)",
        runner: run_fig3,
    },
    ExperimentDef {
        name: "fig4",
        artefact: "Figure 4",
        doc: "per-benchmark curves, IBS-Ultrix (paper Figure 4)",
        suites: IBS,
        scales: ALL_SCALES,
        grid: "3 schemes x 8 sizes (132 configs incl. gshare.best search)",
        runner: run_fig4,
    },
    ExperimentDef {
        name: "fig5",
        artefact: "Figure 5",
        doc: "gshare bias breakdown on gcc (paper Figure 5)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "2 gshare indexings at 256 counters, two-pass analysis on gcc",
        runner: run_fig5,
    },
    ExperimentDef {
        name: "fig6",
        artefact: "Figure 6",
        doc: "bi-mode bias breakdown on gcc (paper Figure 6)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "bi-mode(2x128+128) + reference gshare, two-pass analysis on gcc",
        runner: run_fig6,
    },
    ExperimentDef {
        name: "fig7",
        artefact: "Figure 7",
        doc: "misprediction by bias class, gcc (paper Figure 7)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "3 schemes x 3 sizes, two-pass attribution on gcc",
        runner: run_fig7,
    },
    ExperimentDef {
        name: "fig8",
        artefact: "Figure 8",
        doc: "misprediction by bias class, go (paper Figure 8)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "3 schemes x 3 sizes, two-pass attribution on go",
        runner: run_fig8,
    },
    ExperimentDef {
        name: "ablation-choice-update",
        artefact: "§2.2 ablation",
        doc: "partial vs always choice update",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "2 update rules x 5 sizes (10 configs)",
        runner: experiments::ablation_choice_update,
    },
    ExperimentDef {
        name: "ablation-init",
        artefact: "footnote 2 ablation",
        doc: "direction-bank initialisation",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "2 init policies x 3 sizes (6 configs)",
        runner: experiments::ablation_init,
    },
    ExperimentDef {
        name: "ablation-choice-size",
        artefact: "§4.2 ablation",
        doc: "choice predictor sizing",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "5 choice-table sizes at d=10",
        runner: experiments::ablation_choice_size,
    },
    ExperimentDef {
        name: "ablation-index",
        artefact: "§2.2 ablation",
        doc: "shared vs skewed bank index",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "2 index policies x 3 sizes (6 configs)",
        runner: experiments::ablation_index,
    },
    ExperimentDef {
        name: "ablation-delay",
        artefact: "methodology ablation",
        doc: "update-delay (resolution latency) sensitivity",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "2 schemes x 7 delays (14 configs)",
        runner: experiments::ablation_delay,
    },
    ExperimentDef {
        name: "ablation-flush",
        artefact: "IBS methodology ablation",
        doc: "context-switch flush-interval sensitivity",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "2 schemes x 4 flush intervals (8 configs)",
        runner: experiments::ablation_flush,
    },
    ExperimentDef {
        name: "aliasing",
        artefact: "§2.2 taxonomy",
        doc: "destructive/harmless/neutral alias taxonomy on gcc",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "3 schemes x 2 budgets, pairwise alias analysis on gcc",
        runner: run_aliasing,
    },
    ExperimentDef {
        name: "compare-dealias",
        artefact: "§2.1 comparison",
        doc: "bi-mode vs agree/gskew/yags/tournament",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "10 contenders x 3 budgets (30 configs)",
        runner: experiments::compare_dealias,
    },
    ExperimentDef {
        name: "future-trimode",
        artefact: "§5 future work",
        doc: "the paper's future-work direction: a weak third bank",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "bi-mode vs tri-mode x 3 sizes (6 configs)",
        runner: experiments::future_trimode,
    },
    ExperimentDef {
        name: "zoo.cost",
        artefact: "beyond-paper comparison",
        doc: "predictor zoo: tage/perceptron/cascade vs bi-mode at equal cost",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "5 families x 8 ladder points (40 configs)",
        runner: experiments::zoo_cost,
    },
    ExperimentDef {
        name: "warmup",
        artefact: "footnote 2 transient",
        doc: "windowed misprediction over time (convergence curves)",
        suites: SPEC,
        scales: ALL_SCALES,
        grid: "3 schemes, windowed rates on gcc",
        runner: run_warmup,
    },
    ExperimentDef {
        name: "cfa.report",
        artefact: "§2 bias structure",
        doc: "static CFA vs dynamic traces: sites, bias, trips, aliasing",
        suites: SIM,
        scales: ALL_SCALES,
        grid: "5 kernel programs x 2 alias configs (static)",
        runner: run_cfa,
    },
    ExperimentDef {
        name: "cfa.bias",
        artefact: "§2 H2P structure",
        doc: "per-site misprediction concentration vs static H2P ranking",
        suites: SIM,
        scales: ALL_SCALES,
        grid: "5 kernel programs x 3 predictor families, top-k curves",
        runner: run_cfa_bias,
    },
    ExperimentDef {
        name: "summary",
        artefact: "whole paper",
        doc: "reproduction scoreboard: every headline claim, judged live",
        suites: BOTH,
        scales: ALL_SCALES,
        grid: "11 headline claims recomputed (incl. gshare.best searches)",
        runner: experiments::summary,
    },
];

/// Every registered experiment, in paper order.
#[must_use]
pub fn all() -> &'static [ExperimentDef] {
    REGISTRY
}

/// Looks an experiment up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Every registered name, in paper order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_workloads::Workload;

    #[test]
    fn names_are_unique_and_lookup_works() {
        let names = names();
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "duplicate name `{a}`");
        }
        assert_eq!(find("fig2").map(|e| e.artefact), Some("Figure 2"));
        assert!(find("figZZ").is_none());
    }

    #[test]
    fn every_entry_is_fully_described() {
        for e in all() {
            assert!(!e.doc.is_empty(), "{}: empty doc", e.name);
            assert!(!e.grid.is_empty(), "{}: empty grid", e.name);
            assert!(!e.artefact.is_empty(), "{}: empty artefact", e.name);
            assert!(!e.scales.is_empty(), "{}: no scales", e.name);
            assert!(
                e.scales.contains(&Scale::Smoke),
                "{}: every experiment must support the smallest scale",
                e.name
            );
        }
    }

    #[test]
    fn trait_view_mirrors_the_definition() {
        let e = find("table4").expect("registered");
        let dynamic: &dyn Experiment = e;
        assert_eq!(dynamic.name(), "table4");
        assert_eq!(dynamic.artefact(), "Table 4");
        assert_eq!(dynamic.suites(), SPEC);
        assert_eq!(dynamic.grid(), e.grid);
        assert_eq!(dynamic.doc(), e.doc);
        assert_eq!(dynamic.scales(), ALL_SCALES);
    }

    #[test]
    fn no_trace_experiments_run_on_an_empty_set() {
        let empty = TraceSet::of(Vec::new(), Scale::Smoke, Some(1));
        for name in ["table1", "table3"] {
            let e = find(name).expect("registered");
            assert!(e.suites.is_empty());
            let report = e.run(&empty, None);
            assert_eq!(report.id, name);
            assert!(!report.sections.is_empty());
        }
    }

    #[test]
    fn traced_experiments_run_through_the_trait() {
        let set = TraceSet::of(
            vec![
                Workload::by_name("gcc").expect("registered"),
                Workload::by_name("go").expect("registered"),
            ],
            Scale::Smoke,
            Some(2),
        );
        let e = find("fig7").expect("registered");
        let report = e.run(&set, Some(2));
        assert_eq!(report.id, "fig7");
        assert!(!report.sections.is_empty());
    }
}
