//! `e2e compare <set-a> <set-b>`: do two sets of runs of one commit
//! agree within the benchmark's own bounds?
//!
//! A set is a text file holding the output of any number of runs, one
//! after another (`e2e … >> set-a.txt`). Each run is recognised by its
//! `# workload <name> …` note and its result line. Per workload and
//! end-to-end metric the two medians are compared, and each set's
//! quartile distance over its median is taken as the driver takes it; a
//! median that moved, or runs that spread, by more than the metric's
//! bound prints `NOISY` and the exit code is 1. Bounds are read from
//! `BENCHMARK.json` in the working directory.

use crate::json::Json;
use crate::stats::{run_median, run_spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// workload → metric → one value per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let mut workload: Option<String> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# workload ") {
            workload = rest.split_whitespace().next().map(str::to_owned);
        } else if line.starts_with("{\"correct\"") {
            let name = workload
                .take()
                .ok_or("a result line without a '# workload' note before it")?;
            let result = Json::parse(line)?;
            let metrics = result.get("metrics").ok_or("a result without metrics")?;
            for (metric, m) in metrics.as_obj() {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{metric} has no numeric value"))?;
                set.entry(name.clone())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    if set.is_empty() {
        return Err("no runs found".into());
    }
    Ok(set)
}

/// `(name, bound)` of the declared end-to-end metrics.
fn bounds(decl: &Json) -> Result<Vec<(String, f64)>, String> {
    decl.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end section")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.map(str::to_owned)
                .zip(bound)
                .ok_or_else(|| "an end_to_end entry lacks name or bound".to_owned())
        })
        .collect()
}

/// The metric whose spread the driver does not hold to its bound: one
/// run has only a few set-ups to take a median of.
const SPREAD_EXEMPT: &str = "setup_s";

/// The comparison table and whether any row is noisy: a median that
/// moved by more than the bound (relative to the first set, as the
/// driver takes it; either direction, since both sets are one commit),
/// or runs of one set that spread by more than the bound.
fn compare(a: &Set, b: &Set, bounds: &[(String, f64)]) -> (String, bool) {
    let mut out = format!(
        "{:<16} {:<17} {:>5} {:>10} {:>10} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "runs",
        "median A",
        "median B",
        "diff",
        "spread A",
        "spread B",
        "bound"
    );
    let mut noisy = false;
    for (workload, metrics_a) in a {
        for (metric, bound) in bounds {
            let runs_a = metrics_a.get(metric).map_or(&[][..], Vec::as_slice);
            let runs_b = b
                .get(workload)
                .and_then(|m| m.get(metric))
                .map_or(&[][..], Vec::as_slice);
            out.push_str(&format!("{workload:<16} {metric:<17} "));
            if runs_a.is_empty() || runs_b.is_empty() {
                noisy = true;
                out.push_str("MISSING\n");
                continue;
            }
            let (ma, mb) = (run_median(runs_a), run_median(runs_b));
            let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
            let (sa, sb) = (run_spread(runs_a), run_spread(runs_b));
            let steady = metric == SPREAD_EXEMPT || sa.max(sb) <= *bound;
            let verdict = if diff.abs() <= *bound && steady {
                "ok"
            } else {
                noisy = true;
                "NOISY"
            };
            out.push_str(&format!(
                "{:>2}/{:<2} {ma:>10.4} {mb:>10.4} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.1}%  {verdict}\n",
                runs_a.len(),
                runs_b.len(),
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0
            ));
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        noisy = true;
        out.push_str(&format!("{workload:<16} only in the second set: MISSING\n"));
    }
    (out, noisy)
}

pub fn main(args: &[String]) -> ExitCode {
    let [path_a, path_b] = args else {
        eprintln!("usage: e2e compare <set-a> <set-b>");
        return ExitCode::from(2);
    };
    let load = |path: &str| -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let decl = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t))
        .and_then(|d| bounds(&d));
    match (load(path_a), load(path_b), decl) {
        (Ok(a), Ok(b), Ok(bounds)) => {
            let (table, noisy) = compare(&a, &b, &bounds);
            print!("{table}");
            if noisy {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (a, b, d) => {
            for e in [a.err(), b.err(), d.err()].into_iter().flatten() {
                eprintln!("e2e compare: {e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, latency: f64) -> String {
        format!(
            "# workload {workload} seed 1\nlatency_ms_p05 {latency} ms\n\
             {{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {{\"latency_ms_p05\": {{\"value\": {latency}, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    fn bound() -> Vec<(String, f64)> {
        vec![("latency_ms_p05".to_owned(), 0.1)]
    }

    #[test]
    fn medians_within_the_bound_are_ok() {
        let a = parse_set(&[run("w", 10.5), run("w", 11.2), run("w", 11.0)].concat()).unwrap();
        let b = parse_set(&[run("w", 11.5), run("w", 11.9), run("w", 11.3)].concat()).unwrap();
        assert_eq!(a["w"]["latency_ms_p05"], [10.5, 11.2, 11.0]);
        let (table, noisy) = compare(&a, &b, &bound());
        assert!(!noisy, "{table}");
        assert!(table.contains("+4.55%") && table.trim_end().ends_with("ok"));
    }

    #[test]
    fn a_median_beyond_the_bound_either_way_is_noisy() {
        let a = parse_set(&run("w", 10.0)).unwrap();
        for other in [11.5, 8.5] {
            let (table, noisy) = compare(&a, &parse_set(&run("w", other)).unwrap(), &bound());
            assert!(noisy && table.contains("NOISY"), "{table}");
        }
    }

    #[test]
    fn runs_that_spread_beyond_the_bound_are_noisy_except_set_up() {
        // Equal medians; the first set's quartiles are 25 % apart.
        let wide = [run("w", 8.0), run("w", 10.0), run("w", 10.5)].concat();
        let tight = [run("w", 9.9), run("w", 10.0), run("w", 10.1)].concat();
        let (a, b) = (parse_set(&wide).unwrap(), parse_set(&tight).unwrap());
        let (table, noisy) = compare(&a, &b, &bound());
        assert!(
            noisy && table.contains("25.00%") && table.contains("NOISY"),
            "{table}"
        );
        let (table, noisy) = compare(&b, &b, &bound());
        assert!(!noisy, "{table}");
        let as_setup = |s: &str| s.replace("latency_ms_p05", "setup_s");
        let (a, b) = (
            parse_set(&as_setup(&wide)).unwrap(),
            parse_set(&as_setup(&tight)).unwrap(),
        );
        let (table, noisy) = compare(&a, &b, &[("setup_s".to_owned(), 0.1)]);
        assert!(!noisy, "{table}");
    }

    #[test]
    fn a_workload_or_metric_missing_from_one_set_is_flagged() {
        let a = parse_set(&run("w", 10.0)).unwrap();
        let b = parse_set(&run("v", 10.0)).unwrap();
        let (table, noisy) = compare(&a, &b, &bound());
        assert!(noisy);
        assert_eq!(table.matches("MISSING").count(), 2, "{table}");
    }

    #[test]
    fn malformed_sets_are_errors() {
        assert!(parse_set("").is_err());
        assert!(parse_set("{\"correct\": true, \"metrics\": {}}").is_err());
        assert!(parse_set("# workload w\n{\"correct\" oops").is_err());
    }

    #[test]
    fn bounds_come_from_the_declaration() {
        let decl = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(bounds(&decl).unwrap(), [("setup_s".to_owned(), 0.25)]);
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());
    }
}
