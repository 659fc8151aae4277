//! RLIMIT_NOFILE helpers: an event-driven node advertising tens of
//! thousands of connections must check (and, within the hard limit, raise)
//! its file-descriptor budget instead of dying mid-accept.

use std::io;

const RLIMIT_NOFILE: i32 = 7;

#[repr(C)]
#[derive(Clone, Copy)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// The current (soft, hard) file-descriptor limits.
pub(crate) fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut rl = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((rl.cur, rl.max))
}

/// Raise the soft fd limit toward `want`, clamped to the hard limit.
/// Returns the resulting soft limit; never lowers it.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let (cur, max) = nofile_limit()?;
    if want <= cur {
        return Ok(cur);
    }
    let target = want.min(max);
    let rl = RLimit { cur: target, max };
    if unsafe { setrlimit(RLIMIT_NOFILE, &rl) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_are_sane_and_raise_is_monotone() {
        let (cur, max) = nofile_limit().unwrap();
        assert!(cur > 0 && max >= cur);
        let after = raise_nofile_limit(cur).unwrap();
        assert_eq!(after, cur, "raising to the current limit is a no-op");
        let bumped = raise_nofile_limit(cur.saturating_add(1)).unwrap();
        assert!(bumped >= cur);
    }
}
