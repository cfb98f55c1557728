//! What the harness reads from the host: process CPU time and peak memory
//! from `/proc`, the core count, and the environment check that keeps
//! `FOOTPRINT_*` variables from changing what is measured.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI; reading it
/// properly needs `sysconf`, i.e. a libc binding the offline build lacks.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (live and
/// joined), from `/proc/self/stat`.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "/proc/self/stat: unexpected format".to_owned())
}

/// `utime` and `stime` are fields 14 and 15; the command name (field 2)
/// may itself contain spaces or parentheses, so count from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_owned())
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Hardware threads available to this process.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The first `FOOTPRINT_*` variable among `vars`, if any. The program
/// reads several (`FOOTPRINT_THREADS`, `FOOTPRINT_SENTINEL`,
/// `FOOTPRINT_QUICK`, ...); every op sets the corresponding option
/// explicitly, and refusing to start when one is present means a stray
/// export cannot silently change a number.
pub fn footprint_variable(vars: impl IntoIterator<Item = String>) -> Option<String> {
    vars.into_iter().find(|name| name.starts_with("FOOTPRINT_"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(machine_threads() >= 1);
    }

    #[test]
    fn any_footprint_variable_is_refused() {
        let env = |names: &[&str]| names.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(footprint_variable(env(&["PATH", "HOME"])), None);
        assert_eq!(
            footprint_variable(env(&["PATH", "FOOTPRINT_THREADS", "FOOTPRINT_QUICK"])),
            Some("FOOTPRINT_THREADS".to_owned())
        );
        assert_eq!(footprint_variable(env(&["MY_FOOTPRINT_X"])), None);
    }
}
