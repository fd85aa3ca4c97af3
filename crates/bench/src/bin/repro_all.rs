//! Runs every repro binary's experiment in sequence (Tables 2-4,
//! Figures 5, 9-12, Code 2, and the counted rows of `BENCH_paper.json`).
//! Equivalent to invoking each repro_* binary.

use std::process::Command;

fn main() {
    let exps = [
        "repro_table2",
        "repro_table3",
        "repro_fig5",
        "repro_code2",
        "repro_counts",
        "repro_fig9",
        "repro_fig10",
        "repro_table4",
        "repro_ablation_stride",
        "repro_ablation_clocks",
        "repro_fig11",
        "repro_fig12",
    ];
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir");
    for exp in exps {
        println!("\n================ {exp} ================\n");
        let status = Command::new(dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        assert!(status.success(), "{exp} failed");
    }
}
