//! Process-level readings from `/proc`.

/// Peak resident set size of this process (`VmHWM`) in MB, or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the peak-RSS mark to the current resident size, so a workload
/// that shares its process with earlier ones reports its own peak. Best
/// effort: where the kernel refuses, the mark stays a running maximum.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Kernel clock ticks per second for `/proc` times (`USER_HZ`, 100 on
/// every Linux architecture).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_present_and_sane() {
        let rss = super::peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
        let before = super::cpu_seconds().expect("/proc/self/stat");
        let after = super::cpu_seconds().unwrap();
        assert!(before >= 0.0 && after >= before);
    }
}
