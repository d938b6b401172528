//! What the host contributes to a result: its identity (core count, rustc,
//! commit), a fixed CPU reference loop that tells host drift apart from a
//! program change, peak resident memory, and a measured copy-bandwidth roof.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Logical cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line of host identity: core count, compiler and commit.
pub fn record() -> String {
    format!(
        "{{\"nproc\":{},\"rustc\":{:?},\"commit\":{:?}}}",
        nproc(),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (a source checkout without `.git`).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Times a fixed integer-hash loop that touches no memory: the same work on
/// every run, so a change in its time is the host, not the program.
pub fn ref_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
