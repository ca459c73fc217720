//! Shared `--profile <path>` handling for the study binaries.
//!
//! The single-study harnesses (`fig5c_latency`, `search_ablation`, …)
//! take no arguments beyond an optional instrumentation-profile path;
//! this module gives them one parser. Every binary with the flag,
//! `nmap_dse` included, writes through [`ProfileFlag::write`], so the
//! flag behaves identically everywhere: a live [`Probe`] only when a
//! path was given, and JSON-lines output via
//! [`noc_probe::Profile::to_jsonl`].

use noc_probe::Probe;

/// The parsed `--profile` flag plus the probe to thread through the run.
#[derive(Debug)]
pub struct ProfileFlag {
    /// Destination path (`None`: flag absent, probe disabled).
    pub path: Option<String>,
    /// Live when a path was given, disabled otherwise.
    pub probe: Probe,
}

impl ProfileFlag {
    /// A live probe when `path` is given; otherwise the disabled handle,
    /// whose hooks are no-ops.
    pub fn new(path: Option<String>) -> Self {
        let probe = if path.is_some() { Probe::new() } else { Probe::disabled() };
        Self { path, probe }
    }

    /// Parses the process arguments, accepting only `--profile <path>`.
    ///
    /// # Errors
    ///
    /// A usage message on any other argument or a missing path operand.
    pub fn from_env(usage: &str) -> Result<Self, String> {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--profile" => {
                    path = Some(args.next().ok_or(format!("--profile needs a path\n{usage}"))?);
                }
                other => return Err(format!("unexpected argument `{other}`\n{usage}")),
            }
        }
        Ok(Self::new(path))
    }

    /// Writes the accumulated profile when a path was given.
    ///
    /// # Errors
    ///
    /// A message when the file cannot be written.
    pub fn write(&self) -> Result<(), String> {
        let Some(path) = &self.path else { return Ok(()) };
        std::fs::write(path, self.probe.snapshot().to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    }
}
