//! No registry row without an input it wins on.
//!
//! Every kernel in the registry (`AlgoChoice::ALL`) costs a cost-model
//! arm, a conformance tolerance and a dispatch arm in each layer, and
//! the planner may propose every one of them; a row no model,
//! technique, batch size or memory budget ever selects pays for none of
//! it. The probe below plans the paper's three
//! models × {plain, weight pruning 99.5 %, TTQ 0.09 under a `Ternary`
//! label} × batch {1, 8} through `PlanCompiler::standard()`, then walks
//! each plan down a budget descent (`peak_bytes − 1` until
//! `BudgetInfeasible`), and requires every row to carry the
//! `[tag]` of at least one step somewhere. A row that fails this is
//! withdrawn (kernel, row, enum variant, cost arm), not exempted; an
//! exemption, if one is ever needed, is listed in `EXEMPT` by name with
//! its reason.
//!
//! Each model × technique is materialised once and every plan compiles a
//! copy-on-write replica of it. The models are built at `WIDTH` of the
//! paper's channel counts: 90 plans in a third of a second reach all
//! ten rows.

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{AlgoChoice, Error, ExecConfig, PlanCompiler, PlanError, WeightFormat};
use cnn_stack::stack::{try_materialise, CompressionChoice, PlatformChoice, StackConfig};
use std::collections::BTreeSet;

const WIDTH: f64 = 0.25;

/// Rows allowed to be unreached: `(tag, reason)`.
const EXEMPT: [(&str, &str); 0] = [];

/// The `[tag]`s on a plan's step names.
fn tags(plan: &cnn_stack::nn::InferencePlan, seen: &mut BTreeSet<String>) {
    for step in plan.steps() {
        if let Some((_, tag)) = step.name.rsplit_once(" [") {
            seen.insert(tag.trim_end_matches(']').to_string());
        }
    }
}

#[test]
fn every_proposable_row_is_selected_by_some_paper_plan() {
    let techniques = [
        (CompressionChoice::Plain, WeightFormat::Dense),
        (
            CompressionChoice::WeightPruning { sparsity_pct: 99.5 },
            WeightFormat::Dense,
        ),
        (
            CompressionChoice::TernaryQuantisation { threshold: 0.09 },
            WeightFormat::Ternary,
        ),
    ];
    let compiler = PlanCompiler::standard();
    let mut seen = BTreeSet::new();
    let mut plans = 0;
    for kind in ModelKind::all() {
        for (compression, format) in techniques {
            let cfg = StackConfig::plain(kind, PlatformChoice::IntelI7)
                .compress(compression)
                .format(format);
            let model = try_materialise(&cfg, WIDTH).unwrap();
            for batch in [1, 8] {
                let shape = model.input_shape(batch);
                let mut budget = None;
                loop {
                    let exec = ExecConfig {
                        plan_budget: budget,
                        ..ExecConfig::serial()
                    };
                    let mut net = model.network.replica();
                    match compiler.run(&mut net, &shape, &exec) {
                        Ok(plan) => {
                            tags(&plan, &mut seen);
                            plans += 1;
                            budget = Some(plan.footprint().peak_bytes - 1);
                        }
                        Err(Error::Plan(PlanError::BudgetInfeasible { .. })) => break,
                        Err(other) => panic!("{kind} {compression:?} b{batch}: {other:?}"),
                    }
                }
            }
        }
    }
    let unreached: Vec<&str> = AlgoChoice::ALL
        .into_iter()
        .map(AlgoChoice::tag)
        .filter(|tag| !seen.contains(*tag) && !EXEMPT.iter().any(|(t, _)| t == tag))
        .collect();
    assert!(
        unreached.is_empty(),
        "rows no plan selects: {unreached:?} ({plans} plans reached {seen:?})"
    );
}
