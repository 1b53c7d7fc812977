//! The run planner and orchestrator: `repro run <names...>` / `repro
//! all` resolve to one shared [`Plan`] — trace generation deduped
//! across experiments, one thread budget, one [`TraceSet`] pool — and
//! [`execute`] drives every planned experiment sequentially under an
//! [`Observer`], assembling the run [`Manifest`] as it goes. Each
//! experiment sees only its own suites of the pool, so its results do
//! not depend on which other experiments share the run.
//!
//! Planning is pure (no I/O), so the CLI can reject bad requests
//! before any trace is generated, and tests can assert on plans
//! cheaply.

use bpred_workloads::{Scale, Suite, Workload};

use crate::format::Report;
use crate::manifest::{ExperimentRecord, Manifest};
use crate::observe::{Observer, StageStats};
use crate::registry::{self, Experiment, ExperimentDef};
use crate::store;
use crate::traces::{self, TraceSet};

/// A resolved run: which experiments, at what scale, with which
/// deduplicated workload pool.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The experiments to run, deduplicated, in registry order.
    pub experiments: Vec<&'static ExperimentDef>,
    /// Scale every experiment runs at.
    pub scale: Scale,
    /// Shared thread budget (`None`: machine parallelism).
    pub jobs: Option<usize>,
    /// The deduplicated union of every required suite's workloads.
    pub workloads: Vec<Workload>,
    /// Run name: `all` when the whole registry runs, else the
    /// experiment names joined with `+`.
    pub run_name: String,
}

/// Resolves experiment names into a [`Plan`].
///
/// Duplicate names collapse; experiments run in registry (paper)
/// order regardless of request order, so a plan's trace pool and
/// manifest are independent of argument shuffling.
///
/// # Errors
///
/// Returns a message naming the valid choices if any name is unknown,
/// or an error if `names` is empty.
pub fn plan(names: &[String], scale: Scale, jobs: Option<usize>) -> Result<Plan, String> {
    if names.is_empty() {
        return Err("nothing to run: name at least one experiment".to_owned());
    }
    for name in names {
        if registry::find(name).is_none() {
            return Err(format!(
                "unknown experiment `{name}`; valid experiments: {}",
                registry::names().join(", ")
            ));
        }
    }
    let experiments: Vec<&'static ExperimentDef> = registry::all()
        .iter()
        .filter(|e| names.iter().any(|n| n == e.name))
        .collect();
    let mut suites: Vec<Suite> = Vec::new();
    for e in &experiments {
        for s in e.suites() {
            if !suites.contains(s) {
                suites.push(*s);
            }
        }
    }
    let mut workloads = Vec::new();
    for s in &suites {
        for w in Workload::suite_workloads(*s) {
            if workloads
                .iter()
                .all(|have: &Workload| have.name() != w.name())
            {
                workloads.push(w);
            }
        }
    }
    let run_name = if experiments.len() == registry::all().len() {
        "all".to_owned()
    } else {
        experiments
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join("+")
    };
    Ok(Plan {
        experiments,
        scale,
        jobs,
        workloads,
        run_name,
    })
}

/// A convenience: the plan that runs the entire registry.
///
/// # Errors
///
/// Propagates [`plan`] errors (cannot occur for a non-empty registry).
pub fn plan_all(scale: Scale, jobs: Option<usize>) -> Result<Plan, String> {
    let names: Vec<String> = registry::names().iter().map(|&n| n.to_owned()).collect();
    plan(&names, scale, jobs)
}

/// Everything [`execute`] produces: the reports in run order and the
/// structured manifest.
#[derive(Debug)]
pub struct RunOutcome {
    /// One report per experiment, in run order, each ending with its
    /// stage-observability note.
    pub reports: Vec<Report>,
    /// The structured record of the whole run.
    pub manifest: Manifest,
}

/// Executes a plan: one shared trace-generation stage, then every
/// experiment sequentially, each observed for wall time and work.
/// `on_report` fires after each experiment with its report (already
/// carrying the stage note) and stage stats — the CLI streams output
/// from it; tests can collect.
pub fn execute(
    plan: &Plan,
    mut on_report: impl FnMut(&'static ExperimentDef, &Report, &StageStats),
) -> RunOutcome {
    let mut observer = Observer::new();
    let set = observer.stage("traces", || {
        TraceSet::of(plan.workloads.clone(), plan.scale, plan.jobs)
    });
    let trace_stage = observer
        .stages()
        .first()
        .cloned()
        .unwrap_or_else(|| unreachable!("the traces stage was just recorded"));
    let mut reports = Vec::new();
    let mut records = Vec::new();
    for def in &plan.experiments {
        let mut report = observer.stage(def.name, || def.run(&set.restrict(def.suites), plan.jobs));
        let stats = observer
            .last()
            .cloned()
            .unwrap_or_else(|| unreachable!("the experiment stage was just recorded"));
        report.note(stats.note());
        let engines = stats.engine_note();
        if !engines.is_empty() {
            report.note(engines);
        }
        report.note(stats.store_note());
        records.push(ExperimentRecord {
            name: def.name.to_owned(),
            artefact: def.artefact.to_owned(),
            grid: def.grid.to_owned(),
            stats: stats.clone(),
            sections: report.sections.len(),
            notes: report.notes.len(),
        });
        on_report(def, &report, &stats);
        reports.push(report);
    }
    let manifest = Manifest {
        run: plan.run_name.clone(),
        scale: plan.scale,
        jobs: plan.jobs,
        cache_dir: traces::cache_location(),
        store_dir: store::location(),
        store_mode: store::mode().to_string(),
        trace_stage,
        experiments: records,
        total: observer.total(),
    };
    RunOutcome { reports, manifest }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest as M;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|&x| x.to_owned()).collect()
    }

    #[test]
    fn plan_rejects_unknown_names_listing_choices() {
        let err = plan(&s(&["figZZ"]), Scale::Smoke, None).expect_err("unknown");
        assert!(err.contains("figZZ"));
        assert!(err.contains("fig2") && err.contains("summary"), "{err}");
    }

    #[test]
    fn plan_rejects_empty_requests() {
        let err = plan(&[], Scale::Smoke, None).expect_err("empty");
        assert!(err.contains("at least one"), "{err}");
    }

    #[test]
    fn plan_dedupes_names_and_workloads_in_stable_order() {
        // fig5 and fig7 both need only SPEC; requesting them twice in
        // reverse order must yield one SPEC pool in registry order.
        let p = plan(&s(&["fig7", "fig5", "fig7"]), Scale::Smoke, Some(2)).expect("valid");
        assert_eq!(
            p.experiments.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["fig5", "fig7"]
        );
        assert_eq!(p.run_name, "fig5+fig7");
        let spec = Workload::suite_workloads(Suite::SpecInt95);
        assert_eq!(p.workloads.len(), spec.len());
        // Adding an IBS-needing experiment grows the pool to the union.
        let p2 = plan(&s(&["fig5", "fig4"]), Scale::Smoke, None).expect("valid");
        let ibs = Workload::suite_workloads(Suite::IbsUltrix);
        assert_eq!(p2.workloads.len(), spec.len() + ibs.len());
    }

    #[test]
    fn plan_all_covers_the_registry_and_is_named_all() {
        let p = plan_all(Scale::Smoke, None).expect("registry is non-empty");
        assert_eq!(p.experiments.len(), crate::registry::all().len());
        assert_eq!(p.run_name, "all");
    }

    #[test]
    fn no_trace_plans_carry_no_workloads() {
        let p = plan(&s(&["table1", "table3"]), Scale::Smoke, None).expect("valid");
        assert!(p.workloads.is_empty());
        assert_eq!(p.run_name, "table1+table3");
    }

    #[test]
    fn execute_runs_the_plan_and_builds_a_valid_manifest() {
        let p = plan(&s(&["table4", "fig7"]), Scale::Smoke, Some(2)).expect("valid");
        let mut seen = Vec::new();
        let outcome = execute(&p, |def, report, stats| {
            assert_eq!(def.name, report.id);
            assert_eq!(def.name, stats.name);
            seen.push(def.name);
        });
        assert_eq!(seen, ["table4", "fig7"]);
        assert_eq!(outcome.reports.len(), 2);
        for (report, def) in outcome.reports.iter().zip(&p.experiments) {
            // Stage and store notes always land; the engine note rides
            // between them whenever the stage drove any lanes (a warm
            // result store can serve everything without a drive).
            assert!(report.notes.len() >= 2, "stage + store notes appended");
            assert!(
                report
                    .notes
                    .iter()
                    .any(|note| note.starts_with(&format!("Stage {}:", def.name))),
                "missing stage note: {:?}",
                report.notes
            );
            assert!(
                report
                    .notes
                    .iter()
                    .any(|note| note.starts_with("Result store:")),
                "missing store note: {:?}",
                report.notes
            );
            if report.notes.iter().any(|note| note.starts_with("Engines:")) {
                let stats = outcome
                    .manifest
                    .experiments
                    .iter()
                    .find(|e| e.name == def.name)
                    .expect("record exists");
                assert!(stats.stats.configs > 0, "engine note implies driven lanes");
            }
        }
        let m = &outcome.manifest;
        assert_eq!(m.run, "table4+fig7");
        assert_eq!(m.trace_stage.name, "traces");
        // On a warm result store every job may be served without a
        // drive, so either branches were simulated or jobs hit.
        assert!(
            m.total.branches > 0 || m.total.store.hits > 0,
            "experiments simulate branches or hit the store: {:?}",
            m.total
        );
        assert_eq!(
            m.total.store.total(),
            m.total.store.hits + m.total.store.misses,
            "provenance accounting is total"
        );
        let text = m.to_json().emit();
        let summary = M::validate(&text, &["table4", "fig7"]).expect("valid manifest");
        assert!(summary.contains("2 experiments"), "{summary}");
    }

    #[test]
    fn an_experiment_sees_only_its_own_suites() {
        // cfa.report pulls the simulated kernels into the shared pool;
        // table2 must still list exactly its own SPEC and IBS rows.
        let csv = |names: &[&str]| {
            let p = plan(&s(names), Scale::Smoke, Some(2)).expect("valid");
            let outcome = execute(&p, |_, _, _| {});
            let table2 = outcome.reports.iter().find(|r| r.id == "table2");
            table2.expect("table2 ran").sections[0].1.to_csv()
        };
        assert_eq!(csv(&["table2", "cfa.report"]), csv(&["table2"]));
    }
}
