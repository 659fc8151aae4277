//! Process-wide shutdown flag set from SIGTERM/SIGINT.
//!
//! The handler does the only thing that is async-signal-safe to do: store
//! into a static atomic. Accept loops poll [`shutdown_requested`] between
//! waits and run their ordinary drain path, so a `kill -TERM` is
//! indistinguishable from an in-band shutdown request.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// SIGTERM signal number (Linux).
pub const SIGTERM: i32 = 15;
/// SIGINT signal number (Linux).
pub(crate) const SIGINT: i32 = 2;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    // glibc's signal() has BSD semantics (no handler reset, SA_RESTART);
    // that is exactly what a flag-setting handler wants.
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

const SIG_ERR: usize = usize::MAX;

/// Install the flag-setting handler for SIGTERM and SIGINT. Idempotent;
/// later installs just re-point the handler at the same flag.
pub fn install_shutdown_flag() -> io::Result<()> {
    let handler: extern "C" fn(i32) = on_signal;
    for sig in [SIGTERM, SIGINT] {
        if unsafe { signal(sig, handler as usize) } == SIG_ERR {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Whether a shutdown signal has arrived.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Send `sig` to the current process (test hook for the loopback
/// graceful-shutdown suites).
pub fn raise_signal(sig: i32) -> io::Result<()> {
    if unsafe { raise(sig) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigterm_sets_the_flag() {
        install_shutdown_flag().unwrap();
        SHUTDOWN.store(false, Ordering::SeqCst);
        assert!(!shutdown_requested());
        raise_signal(SIGTERM).unwrap();
        assert!(shutdown_requested());
        SHUTDOWN.store(false, Ordering::SeqCst);
        assert!(!shutdown_requested());
    }
}
