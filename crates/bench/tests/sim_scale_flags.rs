//! `sim_scale` rejects a value flag whose value is missing or unparsable
//! (exit 2, like an unknown flag) before running anything, instead of
//! falling back to the default — a bare `--out` would otherwise overwrite
//! the committed record. The retired `--jobs` is an unknown flag.

#[test]
fn value_flags_without_a_usable_value_exit_two() {
    let cases: [&[&str]; 5] = [
        &["--out"],
        &["--out", "--quick"],
        &["--jobs", "x"],
        &["--city-n"],
        &["--city-n", "5x"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sim_scale"))
            .args(args)
            .output()
            .expect("run sim_scale");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
