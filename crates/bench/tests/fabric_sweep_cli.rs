//! `fabric_sweep` drives the switch model directly and has no world to
//! shard, so it refuses the engine flags before doing any work, rather
//! than stamping an engine it never used into its run record.

use std::process::Command;

#[test]
fn engine_flags_exit_2_before_any_work() {
    let dir = std::env::temp_dir().join(format!("fabric_sweep_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for flags in [&["--shards", "2"][..], &["--run-mode", "seq"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fabric_sweep"))
            .args(flags)
            .args(["--record", "r.json"])
            .current_dir(&dir)
            .env("BENCH_SCALE", "0.05")
            .output()
            .expect("run fabric_sweep");
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--shards and --run-mode"),
            "{flags:?}: the refusal must name the flags"
        );
        assert!(!dir.join("r.json").exists(), "{flags:?}: wrote a run record");
        assert!(!dir.join("BENCH_fabric.json").exists(), "{flags:?}: ran the sweep");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
