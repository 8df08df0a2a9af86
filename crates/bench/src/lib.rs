//! Shared harness utilities for the figure/table regenerators.
//!
//! Every binary in `src/bin/` reproduces one artefact of the paper's
//! evaluation section (see `DESIGN.md` §3 for the index) and prints the
//! same rows/series the paper reports. This library holds the pieces
//! they share: the Table III / Table V operating-point lookups, cell
//! construction, and plain-text table rendering — plus the one
//! `BENCH_SMOKE` switch, the report writer and the resident-memory
//! reading the hand-rolled benches share.

use cnn_stack_compress::{AccuracyModel, Technique};
use cnn_stack_core::{CompressionChoice, PlatformChoice, StackConfig};
use cnn_stack_models::ModelKind;

/// Whether `BENCH_SMOKE` is set: every hand-rolled bench then runs its
/// quick CI mode (tiny shapes, one iteration, gates off, JSON under
/// `target/` instead of the repository root).
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Writes a hand-rolled bench's JSON report: `BENCH_<name>.json` at the
/// repository root, or `target/BENCH_<name>.smoke.json` under
/// [`smoke`] so a CI run never touches a checked-in report.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_report(name: &str, json: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = if smoke() {
        root.join(format!("target/BENCH_{name}.smoke.json"))
    } else {
        root.join(format!("BENCH_{name}.json"))
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Resident set size of this process in MB (`VmRSS`), or 0 where
/// `/proc` does not say.
pub fn resident_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Which table's operating points to use when configuring a technique.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatingPoints {
    /// Table III: the accuracy-optimal Pareto elbows.
    Table3,
    /// Table V: accuracy fixed at 90 %.
    Table5,
}

/// The compression choice for a model × technique at the chosen table's
/// operating point.
pub fn compression_at(
    kind: ModelKind,
    technique: Technique,
    points: OperatingPoints,
) -> CompressionChoice {
    let x = match points {
        OperatingPoints::Table3 => AccuracyModel::table3_operating_point(kind, technique),
        OperatingPoints::Table5 => AccuracyModel::table5_operating_point(kind, technique),
    };
    match technique {
        Technique::WeightPruning => CompressionChoice::WeightPruning { sparsity_pct: x },
        Technique::ChannelPruning => CompressionChoice::ChannelPruning { compression_pct: x },
        Technique::TernaryQuantisation => CompressionChoice::TernaryQuantisation { threshold: x },
    }
}

/// The four Fig. 4 legend entries for one model on one platform, at the
/// chosen operating points: plain, weight pruning, channel pruning,
/// quantisation.
pub fn figure4_configs(
    kind: ModelKind,
    platform: PlatformChoice,
    points: OperatingPoints,
) -> Vec<(&'static str, StackConfig)> {
    let base = StackConfig::plain(kind, platform);
    vec![
        ("Plain", base),
        (
            "Weight Pruning",
            base.compress(compression_at(kind, Technique::WeightPruning, points)),
        ),
        (
            "Channel Pruning",
            base.compress(compression_at(kind, Technique::ChannelPruning, points)),
        ),
        (
            "Quantisation",
            base.compress(compression_at(kind, Technique::TernaryQuantisation, points)),
        ),
    ]
}

/// Renders an aligned plain-text table.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        headers.iter().map(|h| h.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats seconds with sensible precision for table cells.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_points_round_trip() {
        let c = compression_at(
            ModelKind::Vgg16,
            Technique::WeightPruning,
            OperatingPoints::Table3,
        );
        assert_eq!(
            c,
            CompressionChoice::WeightPruning {
                sparsity_pct: 76.54
            }
        );
        let c = compression_at(
            ModelKind::MobileNet,
            Technique::TernaryQuantisation,
            OperatingPoints::Table5,
        );
        assert_eq!(c, CompressionChoice::TernaryQuantisation { threshold: 0.2 });
    }

    #[test]
    fn figure4_has_four_legend_entries() {
        let cfgs = figure4_configs(
            ModelKind::ResNet18,
            PlatformChoice::OdroidXu4,
            OperatingPoints::Table3,
        );
        assert_eq!(cfgs.len(), 4);
        assert_eq!(cfgs[0].0, "Plain");
        assert_eq!(cfgs[2].0, "Channel Pruning");
    }

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("== T =="));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table("T", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0123), "12.3 ms");
        assert_eq!(fmt_seconds(42e-6), "42.0 us");
    }
}
