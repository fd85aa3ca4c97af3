//! Tiny-size smoke test: every workload, untraced and traced, emits
//! every metric `BENCHMARK.json` names, with its unit, and every verdict
//! matches its reference.

use rma_perfbench::{run, Opts, Size, Workload, END_TO_END, PER_LAYER};
use std::time::Duration;

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        spec.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{w:?}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_no_failures() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                workload,
                seed: 7,
                budget: Duration::from_millis(100),
                trace,
                size: Size::Tiny,
            };
            let report = run(&opts).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, table, "{workload:?} trace={trace}");
            assert!(report.attempted > 0, "{workload:?} trace={trace}");
            assert_eq!(
                report.failed, 0,
                "{workload:?} trace={trace}: failed_ratio must be 0"
            );
            assert!(
                report.correct,
                "{workload:?} trace={trace}: {}",
                report.to_json()
            );
            let json = report.to_json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
