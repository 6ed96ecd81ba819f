//! Peak resident-set probe: `VmHWM` from `/proc/self/status`, reset
//! through `/proc/self/clear_refs` at the start of a measured phase.

const BYTES_PER_MB: f64 = 1e6;

/// Reads a `kB` field (e.g. `VmHWM`) of `/proc/self/status`, in bytes.
#[must_use]
pub fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// Resets the peak-RSS mark to the current RSS. `false` when the kernel
/// refuses (then no phase peak can be measured).
#[must_use]
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The peak RSS of one measured phase.
#[derive(Debug)]
pub struct PhasePeak {
    armed: bool,
}

impl PhasePeak {
    /// Resets the peak mark; the phase starts now.
    #[must_use]
    pub fn start() -> PhasePeak {
        PhasePeak {
            armed: reset_peak(),
        }
    }

    /// Peak RSS since [`PhasePeak::start`] in MB (10^6 bytes), or `None`
    /// when the reset was refused or `/proc` is unreadable.
    #[must_use]
    pub fn peak_mb(&self) -> Option<f64> {
        if !self.armed {
            return None;
        }
        status_bytes("VmHWM").map(|b| b as f64 / BYTES_PER_MB)
    }
}

/// Peak-RSS growth of one call in MB: resets the mark, runs `f`, and
/// returns the peak minus the RSS before the call (`None` when the
/// reset was refused).
pub fn peak_growth_mb<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let before = status_bytes("VmRSS");
    let armed = reset_peak();
    let out = f();
    let grown = match (armed, before, status_bytes("VmHWM")) {
        (true, Some(before), Some(peak)) => Some(peak.saturating_sub(before) as f64 / BYTES_PER_MB),
        _ => None,
    };
    (out, grown)
}
