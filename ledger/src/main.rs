fn main() -> std::process::ExitCode {
    ledger::cli::main()
}
