//! Peak memory, read from `/proc/self/status`.

use crate::error::BenchError;

/// Peak resident set size so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, BenchError> {
    let path = "/proc/self/status";
    let status =
        std::fs::read_to_string(path).map_err(|e| BenchError::Proc(format!("{path}: {e}")))?;
    parse_vm_hwm_mb(&status)
}

/// The `VmHWM` line of `/proc/<pid>/status`, MB (10^6 bytes).
pub fn parse_vm_hwm_mb(status: &str) -> Result<f64, BenchError> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| BenchError::Proc("status has no VmHWM line".into()))?;
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| BenchError::Proc(format!("unparsable `{line}`")))?;
    Ok(kib as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tdtu\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Ok(2.097152));
        assert!(parse_vm_hwm_mb("Name:\tdtu\n").is_err());
        assert!(parse_vm_hwm_mb("VmHWM:\tlots kB\n").is_err());
    }

    #[test]
    fn live_process_reads() {
        assert!(peak_rss_mb().expect("own status") > 0.0);
    }
}
