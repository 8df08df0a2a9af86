//! Golden-trace tests: serial inference sessions at `ObsLevel::Trace`
//! must reproduce the checked-in deterministic text traces exactly.
//!
//! The text exporter sorts by timestamp and emits no durations, so a
//! *sequential* session's trace depends only on the compiled plan —
//! step names, fusion decisions, algorithm choices and step order — and
//! regenerating it flags any silent change to the plan pipeline.
//!
//! To bless a new golden after an intentional plan change:
//!
//! ```text
//! CNN_STACK_BLESS=1 cargo test --test trace_golden
//! ```

use cnn_stack::models::ModelKind;
use cnn_stack::nn::{ExecConfig, GuardConfig, InferenceSession, ObsLevel, PlanCompiler};
use cnn_stack::obs::text_trace;
use cnn_stack::tensor::Tensor;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("CNN_STACK_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; generate it with CNN_STACK_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "trace drifted from {}; if the plan change is intentional, \
         re-bless with CNN_STACK_BLESS=1",
        name
    );
}

/// Compiles `kind` through the standard plan pipeline at width 0.25,
/// runs one serial traced inference and returns the text trace.
fn traced_run(kind: ModelKind) -> String {
    let mut model = kind.build_width(10, 0.25);
    let cfg = ExecConfig {
        observer: ObsLevel::Trace,
        ..ExecConfig::serial()
    };
    let plan = model
        .compile_plan(1, &cfg, &PlanCompiler::standard())
        .expect("plan compiles");
    let mut session = InferenceSession::with_guard(&mut model.network, plan, GuardConfig::Off)
        .expect("session builds");
    let input = Tensor::from_fn([1, 3, 32, 32], |i| ((i * 7 % 23) as f32) * 0.1 - 1.1);
    let mut out = Tensor::zeros(session.plan().output_shape().to_vec());
    session.run_into(&input, &mut out).expect("clean run");
    text_trace(
        session
            .observer()
            .expect("Trace level attaches an observer"),
    )
}

/// MobileNet exercises depthwise separable steps and fold-and-fuse
/// (conv + BN + ReLU collapse into one traced span each).
#[test]
fn mobilenet_trace_matches_golden() {
    check_golden("mobilenet_trace.txt", &traced_run(ModelKind::MobileNet));
}

/// ResNet-18 exercises residual-block steps: the skip connections keep
/// whole blocks as single plan steps with their own span names.
#[test]
fn resnet18_trace_matches_golden() {
    check_golden("resnet18_trace.txt", &traced_run(ModelKind::ResNet18));
}

/// The golden format itself: first line is the version header, every
/// following line is an indented `span`/`mark` entry, the `run` span
/// comes first and every step span nests inside it.
#[test]
fn trace_text_format_invariants() {
    let trace = traced_run(ModelKind::MobileNet);
    let mut lines = trace.lines();
    assert_eq!(lines.next(), Some("trace-text v1"));
    assert_eq!(lines.next(), Some("span run"));
    let mut steps = 0;
    for line in lines {
        assert!(
            line.starts_with("  span ") || line.starts_with("  mark "),
            "step events nest one level under the run span: {line:?}"
        );
        steps += 1;
    }
    assert!(steps > 10, "MobileNet should trace a span per fused step");
}
