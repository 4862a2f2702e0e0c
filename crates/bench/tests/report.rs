//! The committed smoke report is what the code prints today, and Fig 7's
//! two take-aways hold on its rows. Both read one in-process run.

use std::sync::OnceLock;

fn smoke() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| bench::report(bench::Preset::Smoke, "all"))
}

#[test]
fn committed_smoke_report_is_current() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/reproduction-smoke.md"
    );
    let committed = std::fs::read_to_string(path).unwrap_or_default();
    let first_change = smoke()
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    assert!(
        smoke() == committed,
        "docs/reproduction-smoke.md is stale; first changed line (index, (now, committed)): \
         {first_change:?}. Regenerate both reports from the repository root:\n  \
         cargo run --release -p bench --bin repro -- all --smoke > docs/reproduction-smoke.md\n  \
         cargo run --release -p bench --bin repro -- all > docs/REPRODUCTION.md"
    );
}

#[test]
fn fig7_error_falls_with_n1_and_is_no_lower_in_3d() {
    // Rows `| 1e3 | 5.307 % | 13.682 % |` of the Figure 7 table.
    let section = smoke()
        .split("\n## ")
        .find(|s| s.starts_with("Figure 7"))
        .unwrap();
    let rows: Vec<[f64; 2]> = section
        .lines()
        .filter(|l| l.starts_with("| 1e"))
        .map(|l| {
            let cell = |i: usize| l.split('|').nth(i).unwrap().trim().trim_end_matches(" %");
            [cell(2).parse().unwrap(), cell(3).parse().unwrap()]
        })
        .collect();
    assert_eq!(rows.len(), 4, "n₁ = 1e3..1e6:\n{section}");
    for d in 0..2 {
        let falls = rows.windows(2).all(|w| w[1][d] < w[0][d]);
        assert!(
            falls,
            "{}-D error must fall at every n₁ step: {rows:?}",
            d + 2
        );
    }
    assert!(
        rows.iter().all(|[e2, e3]| e3 >= e2),
        "3-D error below 2-D: {rows:?}"
    );
}
