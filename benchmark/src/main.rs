//! Command-line entry point; see the library crate and `README.md`.

fn main() {
    std::process::exit(relief_benchmark::main_with(std::env::args().skip(1)));
}
