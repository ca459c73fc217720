//! End-to-end tests for the `nmap_dse` binary: kill-and-resume of a
//! sharded sweep must leave byte-identical outputs and refuse corrupt
//! or foreign checkpoint records, `--smoke` must write every record of
//! its one sweep, the flag
//! validity rules must reject misuse cleanly, `--profile` must write
//! real data, also when the failure gate stops the run, with one
//! `dse.sweep` event that reports the workers the pool really used and
//! the LP work of every MCF route solve, and the paper studies must
//! print their rows.

use std::path::PathBuf;
use std::process::{Command, Output};

use noc_dse::spec::mapper_catalogue;

fn nmap_dse(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nmap_dse")).args(args).output().expect("binary launches")
}

/// A scratch directory that cleans up after itself.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("nmap_dse_cli_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        Self(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small sim-backed sweep: 2 apps × 2 topologies × 2 mappers ×
/// 2 routings × 2 bandwidths = 32 scenarios.
const SWEEP_SPEC: &str = "\
seed 11
capacity 800
app pip
app dsp
topology fit
topology fit-torus
mapper nmap-init gmap
routing min-path xy
simulate {
  warmup 300
  measure 1500
  drain 800
  bandwidths 700 1200
}
";

#[test]
fn killed_and_resumed_sweep_is_byte_identical_to_straight_through() {
    let scratch = ScratchDir::new("resume");
    let spec = scratch.path("sweep.dse");
    std::fs::write(&spec, SWEEP_SPEC).unwrap();

    // Ground truth: the plain (unsharded) engine.
    let full = scratch.path("full.jsonl");
    let out = nmap_dse(&["--spec", &spec, "--jsonl", &full, "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // "Kill" after 3 of 7 shards: exit code 3, partial prefix on disk.
    let ckpt = scratch.path("ckpt");
    let part = scratch.path("part.jsonl");
    let out = nmap_dse(&[
        "--spec",
        &spec,
        "--jsonl",
        &part,
        "--resume",
        &ckpt,
        "--shard-size",
        "5",
        "--shard-budget",
        "3",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(3), "budget stop must exit 3");
    let partial = std::fs::read_to_string(&part).unwrap();
    assert_eq!(partial.lines().count(), 15, "3 shards of 5 streamed");

    // Resume at a different thread count: restored + fresh shards must
    // concatenate to exactly the straight-through bytes.
    let resumed = scratch.path("resumed.jsonl");
    let out = nmap_dse(&[
        "--spec",
        &spec,
        "--jsonl",
        &resumed,
        "--resume",
        &ckpt,
        "--shard-size",
        "5",
        "--threads",
        "4",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("3 restored"), "resume skipped nothing: {stdout}");
    let full_bytes = std::fs::read(&full).unwrap();
    assert_eq!(std::fs::read(&resumed).unwrap(), full_bytes, "resumed JSONL diverged");
    assert!(full_bytes.starts_with(partial.as_bytes()), "interrupted run not a prefix");
}

#[test]
fn corrupt_checkpoint_record_is_rejected_with_its_line() {
    let scratch = ScratchDir::new("corrupt");
    let spec = scratch.path("four.dse");
    std::fs::write(&spec, "capacity 800\napp pip dsp\nmapper nmap-init\nrouting min-path xy\n")
        .unwrap();
    let ckpt = scratch.path("ckpt");
    let args = ["--spec", &spec, "--resume", &ckpt, "--shard-size", "2"];
    assert_eq!(nmap_dse(&[&args[..], &["--shard-budget", "1"]].concat()).status.code(), Some(3));
    // A shard file is input from outside: a negative capacity, an
    // infinite cost or a well-formed record of another scenario (here
    // another mapper) must fail the resume, not panic or be written out.
    let shard = std::path::Path::new(&ckpt).join("shard-00000.jsonl");
    let written = std::fs::read_to_string(&shard).unwrap();
    // The shard with the first line's `key` set to `value`.
    let corrupt = |key: &str, value: &str| {
        let start = written.find(&format!("\"{key}\":")).expect("key written") + key.len() + 3;
        let end = start + written[start..].find(',').expect("not the last field");
        format!("{}{value}{}", &written[..start], &written[end..])
    };
    for (key, value) in [("capacity", "-800"), ("comm_cost", "1e999"), ("mapper", "\"gmap\"")] {
        std::fs::write(&shard, corrupt(key, value)).unwrap();
        let out = nmap_dse(&[&args[..], &["--jsonl", &scratch.path("resumed.jsonl")]].concat());
        assert_eq!(out.status.code(), Some(1), "{key} {value}: a corrupt shard must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let place = format!("shard file {} line 1: field '{key}'", shard.display());
        assert!(stderr.contains(&place), "{key} {value}: stderr: {stderr}");
    }
}

#[test]
fn smoke_outputs_hold_every_record_of_one_sweep() {
    let scratch = ScratchDir::new("smoke");
    let (jsonl, csv) = (scratch.path("smoke.jsonl"), scratch.path("smoke.csv"));
    let out = nmap_dse(&["--smoke", "--threads", "2", "--jsonl", &jsonl, "--csv", &csv]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("running ").count(), 1, "one sweep: {stdout}");
    assert!(stdout.contains("running 98 scenarios..."), "stdout: {stdout}");
    assert_eq!(std::fs::read_to_string(&jsonl).unwrap().lines().count(), 98);
    let csv = std::fs::read_to_string(&csv).unwrap();
    assert_eq!(csv.lines().count(), 99, "header plus one row per scenario");
    let mut rows = csv.lines().map(|line| line.split(',').collect::<Vec<_>>());
    let column = rows.next().unwrap().iter().position(|&h| h == "mapper").expect("mapper column");
    let mut mappers: Vec<&str> = rows.map(|row| row[column]).collect();
    mappers.sort_unstable();
    mappers.dedup();
    let mut catalogue: Vec<&str> = mapper_catalogue().iter().map(|&(k, _)| k).collect();
    catalogue.sort_unstable();
    assert_eq!(mappers, catalogue, "every catalogued mapper has a row");
}

#[test]
fn retired_cache_flags_are_rejected() {
    let usage = nmap_dse(&["--help"]);
    assert!(usage.status.success());
    let usage = String::from_utf8_lossy(&usage.stdout);
    for flag in ["--cache-dir", "--cache-mem-cap"] {
        assert!(!usage.contains(flag), "{flag} still in the usage:\n{usage}");
        let out = nmap_dse(&["--spec", "sweep.dse", flag, "1"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unexpected argument `{flag}`")), "{flag}: {stderr}");
    }
}

#[test]
fn sharded_flags_require_spec_mode() {
    let out = nmap_dse(&["--smoke", "--resume", "/tmp/nowhere"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("only valid with --spec"), "stderr: {stderr}");
}

#[test]
fn shard_budget_requires_resume() {
    let scratch = ScratchDir::new("budget");
    let spec = scratch.path("sweep.dse");
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    // Without a checkpoint a budget stop could never continue: a rerun
    // would start again from shard 0.
    let out = nmap_dse(&["--spec", &spec, "--shard-size", "5", "--shard-budget", "1"]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--shard-budget needs --resume"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "rejected at parse time, before any scenario ran");
}

#[test]
fn mismatched_checkpoint_is_rejected() {
    let scratch = ScratchDir::new("mismatch");
    let spec = scratch.path("sweep.dse");
    std::fs::write(&spec, SWEEP_SPEC).unwrap();
    let ckpt = scratch.path("ckpt");
    let args = ["--spec", &spec, "--resume", &ckpt, "--shard-size", "5", "--shard-budget", "1"];
    assert_eq!(nmap_dse(&args).status.code(), Some(3));
    // Same checkpoint, different shard size: a different sweep.
    let out = nmap_dse(&["--spec", &spec, "--resume", &ckpt, "--shard-size", "4"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different sweep"), "stderr: {stderr}");
}

/// The value of counter `name` in a `--profile` JSONL file.
fn profile_counter(profile: &str, name: &str) -> Option<u64> {
    let prefix = format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
    profile.lines().find_map(|line| line.strip_prefix(&prefix)?.strip_suffix('}')?.parse().ok())
}

#[test]
fn default_build_profile_carries_real_data() {
    let scratch = ScratchDir::new("profile");
    let path = scratch.path("profile.jsonl");
    let out = nmap_dse(&["--fig5c", "--smoke", "--threads", "2", "--profile", &path]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let profile = std::fs::read_to_string(&path).unwrap();
    for name in ["sim.cycles_executed", "dse.tasks"] {
        let value = profile_counter(&profile, name);
        assert!(value.is_some_and(|v| v > 0), "{name} = {value:?} in:\n{profile}");
    }
}

#[test]
fn mcf_spec_profile_carries_lp_counters() {
    let scratch = ScratchDir::new("lp_profile");
    let spec = scratch.path("mcf.dse");
    // 400 MB/s links overload the DSP design's minimum-hop routing, so
    // both scopes run MCF1 and pivot.
    std::fs::write(
        &spec,
        "capacity 400\napp dsp\ntopology mesh 3x2\nmapper nmap-init\nrouting mcf-quadrant mcf-all\n",
    )
    .unwrap();
    let path = scratch.path("profile.jsonl");
    let out =
        nmap_dse(&["--spec", &spec, "--threads", "2", "--profile", &path, "--allow-failures"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let profile = std::fs::read_to_string(&path).unwrap();
    for name in ["lp.solves", "lp.pivots", "lp.phase1_pivots", "lp.cg.rounds", "lp.cg.columns"] {
        let value = profile_counter(&profile, name);
        assert!(value.is_some_and(|v| v > 0), "{name} = {value:?} in:\n{profile}");
    }
    assert!(!profile.contains("lp.warm_start"), "retired counters in:\n{profile}");
}

#[test]
fn retired_lp_flags_are_rejected() {
    for flag in ["--warm-lp", "--bench-mcf"] {
        let out = nmap_dse(&["--smoke", flag, "out.json"]);
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unexpected argument `{flag}`")), "{flag}: {stderr}");
    }
}

#[test]
fn sweep_event_reports_the_workers_the_pool_used() {
    let scratch = ScratchDir::new("sweep_event");
    let spec = scratch.path("three.dse");
    // Three scenarios: two bundled apps and one random graph.
    std::fs::write(&spec, "app pip dsp\nrandom 9 1\nmapper nmap-init\nrouting min-path\n").unwrap();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // `--threads 0` asks for every core and `--threads 8` for more workers
    // than scenarios: the pool runs at most one worker per scenario.
    for (threads, workers) in [("0", cores.min(3)), ("8", 3)] {
        let path = scratch.path(&format!("profile-{threads}.jsonl"));
        let out = nmap_dse(&["--spec", &spec, "--threads", threads, "--profile", &path]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let profile = std::fs::read_to_string(&path).unwrap();
        let events: Vec<_> =
            profile.lines().filter(|l| l.contains("\"name\":\"dse.sweep\"")).collect();
        assert_eq!(events.len(), 1, "one dse.sweep event per sweep in:\n{profile}");
        let event = events[0];
        assert!(
            event.contains(&format!(",\"threads\":{workers},")),
            "--threads {threads}: {event}"
        );
        assert!(
            event.ends_with(
                ",\"shards_total\":1,\"shards_run\":1,\"shards_restored\":0,\"completed\":true}"
            ),
            "--threads {threads}: {event}"
        );
    }
}

#[test]
fn profile_is_written_when_the_failure_gate_fires() {
    let scratch = ScratchDir::new("failed_profile");
    let spec = scratch.path("unfit.dse");
    // Sixteen VOPD cores cannot be placed on four routers.
    std::fs::write(&spec, "app vopd\ntopology mesh 2x2\nmapper nmap-init\nrouting min-path\n")
        .unwrap();
    let path = scratch.path("profile.jsonl");
    let out = nmap_dse(&["--spec", &spec, "--profile", &path]);
    assert_eq!(out.status.code(), Some(1), "the failure gate must fire");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 of 1 scenarios failed"), "stderr: {stderr}");
    let profile = std::fs::read_to_string(&path).expect("profile written on the error path");
    assert!(
        profile
            .lines()
            .any(|l| l.contains("\"name\":\"dse.scenario\"") && l.contains("\"ok\":false")),
        "no failed dse.scenario event in:\n{profile}"
    );
}

#[test]
fn loop_flag_is_an_unexpected_argument() {
    // Both simulator loops give the same bytes, so no study offers the
    // choice: `--loop` is an unknown flag, and the usage names none.
    let out = nmap_dse(&["--fig5c", "--loop", "full-scan"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `--loop`"), "stderr: {stderr}");
    assert!(!stderr.contains("full-scan"), "the usage still offers a loop: {stderr}");
}

/// True when some line of `stdout` is exactly these cells.
fn has_row(stdout: &str, cells: &[&str]) -> bool {
    stdout.lines().any(|line| line.split_whitespace().eq(cells.iter().copied()))
}

#[test]
fn fig4_and_table1_print_their_rows() {
    let out = nmap_dse(&["--fig4", "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let vopd = ["VOPD", "500", "857", "500", "719", "500", "500", "257"];
    assert!(has_row(&stdout, &vopd), "no VOPD row in:\n{stdout}");

    let out = nmap_dse(&["--table1", "--threads", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(has_row(&stdout, &["Avg", "1.13", "1.92"]), "no Avg row in:\n{stdout}");
}
