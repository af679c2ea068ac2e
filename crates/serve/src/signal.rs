//! SIGTERM-to-flag bridge for graceful shutdown.
//!
//! The handler does the only thing that is async-signal-safe here: store
//! one atomic. The accept loop polls [`terminated`] and runs the actual
//! drain (stop admitting, checkpoint the in-flight job, close the bus)
//! in ordinary code. No runtime dependency is available for signal
//! handling, so the registration goes through libc's `signal(2)` — the
//! one place in the workspace that needs `unsafe`.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

#[allow(unsafe_code)]
mod ffi {
    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;

    extern "C" fn on_term(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        super::TERM.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install_handler() {
        let handler = on_term as extern "C" fn(i32) as usize;
        // SAFETY: `signal(2)` with a handler that only stores an atomic
        // flag; both signal numbers are valid, and the handler pointer
        // outlives the process.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Installs the SIGTERM/SIGINT handler. Idempotent.
pub(crate) fn install() {
    ffi::install_handler();
}

/// Whether a termination signal has arrived since [`install`].
#[must_use]
pub(crate) fn terminated() -> bool {
    TERM.load(Ordering::SeqCst)
}
