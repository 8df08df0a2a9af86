//! `e2e`: the repeatable end-to-end + per-layer benchmark.
//!
//! ```text
//! e2e --workload <name> --seed <u64> [--seconds 30] [--trace 0|1] [--smoke]
//! e2e compare <set-a> <set-b>
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! is for, and how to read the `harness.*` lines before blaming code.

mod compare;
mod engine;
mod json;
mod report;
mod schedule;
mod serve;
mod spans;
mod stats;
mod trace;

use engine::{Options, Workload, WORKLOADS};
use report::Report;
use spans::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations so a traced run can report how many a
/// steady-state `run_into` makes (the engine promises none).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter is
// a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Where a traced run leaves its Chrome trace, relative to the working
/// directory (the repo's `.gitignore` already covers `/target`).
const TRACE_DIR: &str = "target/bench-e2e";

/// Runs one workload and returns its report and the sanity checks a
/// traced run failed.
fn run(w: &Workload, opts: &Options) -> (Report, Vec<String>) {
    let mut report = Report::new(opts.trace);
    let mut rec = Recorder::new(opts.trace);
    report.note(format!(
        "workload {} seed {} seconds {} trace {} smoke {} cpus {}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        u8::from(opts.smoke),
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    if !w.gated {
        report.note(
            "not declared in BENCHMARK.json: too noisy on a shared host to be held to a bound",
        );
    }
    // One root span, so every other span has a cause to name.
    let (mut violations, _) = rec.time("run", None, |rec| match (w.serve, opts.trace) {
        (false, false) => {
            engine::run_closed(w, opts, &mut report, rec);
            Vec::new()
        }
        (true, false) => {
            serve::run(w, opts, &mut report, rec);
            Vec::new()
        }
        (false, true) => {
            let inputs = engine::Inputs::generate(w, opts, rec);
            trace::trace_engine(w, opts, opts.seconds, &inputs, &mut report, rec)
        }
        (true, true) => serve::trace(w, opts, &mut report, rec),
    });
    let per_request: &[&str] = if w.serve {
        &["loadgen.submit", "ticket.wait"]
    } else {
        &["engine.run"]
    };
    violations.extend(rec.violations(per_request));
    if opts.trace {
        let path = format!("{TRACE_DIR}/{}.trace.json", w.name);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, rec.chrome_trace()));
        match written {
            Ok(()) => report.note(format!("{} spans written to {path}", rec.spans().len())),
            Err(e) => violations.push(format!("cannot write {path}: {e}")),
        }
    }
    (report, violations)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke]\n       \
         e2e compare <set-a> <set-b>",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut opts = Options {
        seed: 0,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--smoke" => {
                opts.smoke = true;
                true
            }
            "--workload" => {
                workload = value().and_then(|v| WORKLOADS.iter().find(|w| w.name == v));
                workload.is_some()
            }
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| opts.seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| (0.5..=60.0).contains(s))
                .map(|v| opts.seconds = v)
                .is_some(),
            "--trace" => value()
                .and_then(|v| match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| opts.trace = v)
                .is_some(),
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let (report, violations) = run(workload, &opts);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("trace sanity check failed: {v}");
        }
        return ExitCode::FAILURE;
    }
    print!("{}", report.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::BTreeSet;

    /// The declaration in `BENCHMARK.json` and the binary cannot drift:
    /// every workload, run for a second at width 0.25, prints exactly
    /// the declared names, each once, and gets every output right. One
    /// test, so the runs do not compete for the two cores.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            decl.get(key)
                .expect("declared section")
                .as_arr()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        let gated: Vec<&str> = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names("workloads"), gated);
        for w in &WORKLOADS {
            for trace in [false, true] {
                let opts = Options {
                    seed: 11,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                };
                let (report, violations) = run(w, &opts);
                assert!(violations.is_empty(), "{}: {violations:?}", w.name);
                let text = report.render();
                let result = Json::parse(text.lines().last().expect("a result line"))
                    .expect("result parses");
                assert_eq!(
                    result.get("correct"),
                    Some(&Json::Bool(true)),
                    "{}:\n{text}",
                    w.name
                );
                let emitted: Vec<String> = result
                    .get("metrics")
                    .expect("metrics")
                    .as_obj()
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                let declared = names(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(
                    emitted.iter().collect::<BTreeSet<_>>().len(),
                    emitted.len(),
                    "a metric is printed twice"
                );
                assert_eq!(
                    emitted.iter().collect::<BTreeSet<_>>(),
                    declared.iter().collect::<BTreeSet<_>>(),
                    "{} trace={trace}",
                    w.name
                );
                if !trace {
                    let ok = result.get("metrics").and_then(|m| m.get("ok_share"));
                    assert_eq!(
                        ok.and_then(|m| m.get("value")).and_then(Json::as_f64),
                        Some(1.0)
                    );
                }
            }
        }

        // Batch composition is a property of the schedule, not of
        // timing: two served runs report the same batches.
        let served = WORKLOADS
            .iter()
            .find(|w| w.serve)
            .expect("a served workload");
        let opts = Options {
            seed: 5,
            seconds: 2.0,
            trace: true,
            smoke: true,
        };
        let (a, _) = run(served, &opts);
        let (b, _) = run(served, &opts);
        for name in ["serve.batches", "serve.batch_size_mean"] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
        assert_eq!(a.get("serve.batch_size_mean"), Some(1.6));
    }
}
