//! Host readings from Linux `/proc`: CPU time stolen by other guests, this
//! process's CPU time and its peak resident memory. They explain noisy runs;
//! where `/proc` is missing they read as zero.

/// Clock ticks per second of `/proc` CPU counters (`USER_HZ`), 100 on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of the counters that are compared over the timed phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostSample {
    steal: u64,
    total: u64,
    process_ticks: u64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let (steal, total) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| parse_cpu_line(&text))
            .unwrap_or_default();
        let process_ticks = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|text| parse_process_ticks(&text))
            .unwrap_or_default();
        HostSample {
            steal,
            total,
            process_ticks,
        }
    }

    /// Percentage of all CPU time between the two readings that the
    /// hypervisor gave to other guests.
    pub fn steal_pct(&self, later: &HostSample) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        crate::stats::ratio(steal as f64 * 100.0, total as f64)
    }

    /// CPU seconds this process used between the two readings.
    pub fn cpu_seconds(&self, later: &HostSample) -> f64 {
        later.process_ticks.saturating_sub(self.process_ticks) as f64 / TICKS_PER_SECOND
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vm_hwm_kb(&text))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(steal, total)` ticks from the aggregate `cpu` line of `/proc/stat`.
fn parse_cpu_line(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    // time is already counted in user and nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// `utime + stime` from `/proc/self/stat`; the command name may hold spaces,
/// so fields are counted after its closing parenthesis.
fn parse_process_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the file; the rest starts at field 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let text = "cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 50 2 25 400 5 0 1 15 0 0\n";
        assert_eq!(parse_cpu_line(text), Some((30, 998)));
        assert_eq!(parse_cpu_line("intr 1 2 3\n"), None);
    }

    #[test]
    fn steal_and_cpu_deltas() {
        let a = HostSample {
            steal: 10,
            total: 1000,
            process_ticks: 50,
        };
        let b = HostSample {
            steal: 30,
            total: 2000,
            process_ticks: 300,
        };
        assert_eq!(a.steal_pct(&b), 2.0);
        assert_eq!(a.cpu_seconds(&b), 2.5);
        assert_eq!(a.steal_pct(&a), 0.0);
    }

    #[test]
    fn parses_process_ticks_past_a_spaced_name() {
        let text = "4242 (serve bench) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20 0 9 0";
        assert_eq!(parse_process_ticks(text), Some(333));
        assert_eq!(parse_process_ticks("garbage"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let text = "Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }
}
