//! The paper's figures, the §7 federation experiment, the ablations and the
//! §8 extension, from one runner with every claim asserted:
//!
//! ```sh
//! cargo bench -p rndi-bench --bench figures                # all eleven
//! cargo bench -p rndi-bench --bench figures -- fig5 a3     # some
//! ```
//!
//! The name → experiment table is [`rndi_bench::runner::FIGURES`].

fn main() -> std::process::ExitCode {
    rndi_bench::runner::main()
}
