//! Parent side of "never hang, count instead": every workload and the
//! probe set run in a child process of `perf` under a host-time
//! watchdog. A child that panics, aborts or outlives its deadline is
//! killed, waited for and reported; the benchmark itself never sticks.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

/// Why a child produced no result.
#[derive(Debug)]
pub enum ChildError {
    Spawn(std::io::Error),
    TimedOut(Duration),
    Exited(std::process::ExitStatus),
    BadOutput(String),
}

impl std::fmt::Display for ChildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChildError::Spawn(e) => write!(f, "cannot start child: {e}"),
            ChildError::TimedOut(d) => {
                write!(
                    f,
                    "child killed by the watchdog after {:.0} s",
                    d.as_secs_f64()
                )
            }
            ChildError::Exited(status) => write!(f, "child died: {status}"),
            ChildError::BadOutput(why) => write!(f, "child printed no result: {why}"),
        }
    }
}

/// Run this executable again with `args`, wait at most `deadline`, and
/// parse the last line of its standard output as the result object. The
/// child is always reaped before this returns.
pub fn run_child(args: &[String], deadline: Duration) -> Result<Value, ChildError> {
    let exe = std::env::current_exe().map_err(ChildError::Spawn)?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(ChildError::Spawn)?;
    // Drain the pipe on a thread so a chatty child can never block on a
    // full pipe while the parent is only polling for its exit.
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() >= deadline => {
                // Kill can only fail if the child already exited.
                let _ = child.kill();
                let _ = child.wait();
                break Err(ChildError::TimedOut(deadline));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(ChildError::Spawn(e));
            }
        }
    };
    let out = reader
        .join()
        .expect("reader thread does not panic")
        .map_err(|e| ChildError::BadOutput(e.to_string()));
    let status = status?;
    if !status.success() {
        return Err(ChildError::Exited(status));
    }
    let out = out?;
    let last = out
        .lines()
        .last()
        .ok_or_else(|| ChildError::BadOutput("empty output".into()))?;
    serde_json::from_str(last).map_err(|e| ChildError::BadOutput(e.to_string()))
}
