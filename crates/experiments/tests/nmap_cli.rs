//! Tests for the `nmap_cli` binary: every mapper of the `.dse`
//! catalogue maps a small app, and bad inputs must exit nonzero with a
//! clear message on stderr — never a panic, never a success code — for
//! every mapper.

use std::path::PathBuf;
use std::process::{Command, Output};

use noc_dse::spec::mapper_catalogue;

/// Every `--algorithm` keyword: the mapper catalogue's.
fn keywords() -> Vec<&'static str> {
    mapper_catalogue().iter().map(|&(keyword, _)| keyword).collect()
}

fn nmap_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nmap_cli")).args(args).output().expect("binary launches")
}

/// A scratch file that cleans up after itself.
struct TempFile(PathBuf);

impl TempFile {
    fn with_content(name: &str, content: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("nmap_cli_test_{}_{name}", std::process::id()));
        std::fs::write(&path, content).expect("temp dir is writable");
        Self(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn assert_clean_failure(output: &Output, needle: &str) {
    let stderr = stderr_of(output);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr missing `{needle}`: {stderr}");
    assert!(!stderr.contains("panicked"), "binary panicked: {stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "binary crashed instead of reporting: {stderr}");
}

#[test]
fn nonexistent_app_file_fails_cleanly() {
    let out = nmap_cli(&["/definitely/not/a/real/file.app"]);
    assert_clean_failure(&out, "cannot read /definitely/not/a/real/file.app");
}

#[test]
fn unparsable_app_file_reports_the_line() {
    let bad = TempFile::with_content("garbage.app", "core a\nfrobnicate the widgets\n");
    let out = nmap_cli(&[bad.path()]);
    assert_clean_failure(&out, "line 2: unknown keyword `frobnicate`");
    // Bandwidths above the cap once overflowed the placement cost to
    // infinity and panicked NMAP's `initialize` and GMAP.
    let huge = TempFile::with_content(
        "huge_bandwidth.app",
        "comm a b 1e308\ncomm a c 1e308\ncomm b c 1e308\n",
    );
    for algorithm in keywords() {
        let out = nmap_cli(&[huge.path(), "--algorithm", algorithm]);
        assert_clean_failure(&out, "line 1: communication bandwidth");
    }
}

#[test]
fn app_larger_than_topology_fails_cleanly() {
    // Five cores cannot fit a 2x2 mesh; every algorithm must refuse the
    // problem up front rather than panic mid-search.
    let app = TempFile::with_content(
        "five_cores.app",
        "comm a b 10\ncomm b c 10\ncomm c d 10\ncomm d e 10\n",
    );
    for algorithm in keywords() {
        let out = nmap_cli(&[app.path(), "--mesh", "2x2", "--algorithm", algorithm]);
        assert_clean_failure(&out, "5 cores but the topology only has 4 nodes");
    }
}

#[test]
fn pbb_beyond_its_node_limit_fails_cleanly() {
    let app = TempFile::with_content("pair.app", "comm a b 10\n");
    let out = nmap_cli(&[app.path(), "--mesh", "12x12", "--algorithm", "pbb"]);
    assert_clean_failure(&out, "pbb supports at most 128 nodes, topology has 144");
}

#[test]
fn disconnected_custom_topology_fails_cleanly() {
    // Node 0 reaches 1 and 1 reaches 2, but nothing leads back: routing
    // any placement of this chain would need a path that does not exist.
    let app = TempFile::with_content("chain.app", "comm a b 100\ncomm b c 50\n");
    let noc = TempFile::with_content("oneway.noc", "custom 3\nlink 0 1 500\nlink 1 2 500\n");
    for algorithm in keywords() {
        let out = nmap_cli(&[app.path(), "--noc", noc.path(), "--algorithm", algorithm]);
        assert_clean_failure(&out, "line 1: custom topology of 3 nodes is not strongly connected");
    }
}

#[test]
fn every_catalogue_mapper_places_and_routes_as_it_scored() {
    let app = TempFile::with_content("dsp.app", "comm a b 100\ncomm b c 100\ncomm c d 50\n");
    for algorithm in keywords() {
        let out = nmap_cli(&[app.path(), "--algorithm", algorithm]);
        assert_eq!(out.status.code(), Some(0), "{algorithm}: {}", stderr_of(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let split = stdout.starts_with("split routing: total flow 250, slack 0, up to ");
        assert_eq!(split, algorithm.starts_with("nmap-split"), "{algorithm}: {stdout}");
    }
}

#[test]
fn unparsable_topology_file_fails_cleanly() {
    let app = TempFile::with_content("ok.app", "comm a b 10\n");
    let noc = TempFile::with_content("bad.noc", "mesh 2 2 100\nlink 0 1 50\n");
    let out = nmap_cli(&[app.path(), "--noc", noc.path()]);
    assert_clean_failure(&out, "only valid for custom topologies");
}

#[test]
fn oversized_topology_file_fails_cleanly() {
    // Declarations beyond the node cap are input errors, reported before
    // the topology is built.
    let app = TempFile::with_content("small.app", "comm a b 10\n");
    for (name, noc, needle) in [
        ("custom.noc", "custom 18446744073709551615\n", "line 1: custom node count"),
        ("link.noc", "custom 3\nlink 0 4294967296 3\n", "line 2: destination node 4294967296"),
        ("mesh.noc", "mesh 512 512 512 1000\n", "line 1: grid node count 134217728 exceeds"),
    ] {
        let noc = TempFile::with_content(name, noc);
        let out = nmap_cli(&[app.path(), "--noc", noc.path()]);
        assert_clean_failure(&out, needle);
    }
}

#[test]
fn bad_flags_print_usage() {
    let out = nmap_cli(&["--mesh", "not-dims", "whatever.app"]);
    assert_clean_failure(&out, "bad dimensions");
    let out = nmap_cli(&[]);
    assert_clean_failure(&out, "usage:");
    let out = nmap_cli(&["app.app", "--algorithm", "quantum"]);
    assert_clean_failure(&out, "unknown mapper `quantum`");
    // `--algorithm` takes the `.dse` spelling, validated as in a spec.
    let out = nmap_cli(&["app.app", "--algorithm", "nmap[p0r1]"]);
    assert_clean_failure(&out, "mapper `nmap[p0r1]`: ");
    // The split mapper's scope is part of its name.
    let out = nmap_cli(&["app.app", "--algorithm", "nmap-split", "--scope", "quadrant"]);
    assert_clean_failure(&out, "unknown mapper `nmap-split`");
    // The error names the spellings it would have accepted.
    assert!(stderr_of(&out).contains("nmap-split-all"), "{}", stderr_of(&out));
    let out = nmap_cli(&["app.app", "--scope", "quadrant"]);
    assert_clean_failure(&out, "unexpected argument `--scope`");
    let out = nmap_cli(&["app.app", "--mesh", "0x3"]);
    assert_clean_failure(&out, "want extents from 1 to 512");
    let out = nmap_cli(&["app.app", "--torus", "512x512"]);
    assert_clean_failure(&out, "grid node count 262144 exceeds the maximum 65536");
}

#[test]
fn capacity_with_a_topology_file_is_rejected() {
    // A `.noc` file declares its own link capacities, so `--capacity`
    // would silently do nothing: 400 MB/s on 500 MB/s links passed as
    // feasible under `--capacity 100`.
    let app = TempFile::with_content("pair.app", "core a\ncore b\ncomm a b 400\n");
    let noc = TempFile::with_content("pair.noc", "custom 2\nlink 0 1 500\nlink 1 0 500\n");
    for order in [
        [app.path(), "--noc", noc.path(), "--capacity", "100"],
        [app.path(), "--capacity", "100", "--noc", noc.path()],
    ] {
        let out = nmap_cli(&order);
        assert_clean_failure(&out, "--capacity cannot be combined with --noc");
        assert!(out.stdout.is_empty(), "{order:?} printed a mapping");
    }
    let out = nmap_cli(&[app.path(), "--noc", noc.path()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

#[test]
fn infeasible_bandwidth_exits_two_not_one() {
    // Exit code 2 is the documented "constraints unsatisfied" signal,
    // distinct from input errors.
    let app = TempFile::with_content("hot.app", "comm a b 500\n");
    let out = nmap_cli(&[app.path(), "--mesh", "2x2", "--capacity", "100"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("NOT satisfied"));
}
