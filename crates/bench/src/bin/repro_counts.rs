//! Prints `BENCH_paper.json`: the paper's deterministic claims as exact
//! counts (see [`rma_bench::paper_counts`]). Takes no flags; regenerate
//! the checked-in file with
//! `cargo run --release -p rma-bench --bin repro_counts > BENCH_paper.json`.

fn main() {
    print!("{}", rma_bench::paper_counts());
}
