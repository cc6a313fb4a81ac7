//! Option checking at the binary surface: an option the subcommand does
//! not take exits 2 with the usage text before the subcommand runs, so
//! `sesr infer-bench --help` cannot run the bench and overwrite the
//! `BENCH_infer.json` in the working directory.

use std::process::Command;

#[test]
fn an_option_the_subcommand_does_not_take_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("sesr_cli_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (argv, bad) in [
        (&["infer-bench", "--help"][..], "--help"),
        (&["infer-bench", "--bogus", "1"], "--bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sesr"))
            .current_dir(&dir)
            .args(argv)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(bad) && stderr.contains("USAGE"), "{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{argv:?} wrote {written:?}");
    }
    std::fs::remove_dir(&dir).unwrap();
}
