//! Helpers shared by the serve integration suites.

use std::sync::mpsc;
use std::time::Duration;

/// Upper bound on one serve integration test's run time (debug builds
/// included).
const TIMEOUT: Duration = Duration::from_secs(300);

/// Runs `test` on a helper thread and fails if it has not finished within
/// [`TIMEOUT`], so a hung serve path fails the suite instead of stalling
/// it. A panic inside `test` is re-raised here.
pub fn within_timeout(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    match finished.recv_timeout(TIMEOUT) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the test thread panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("test still running after {TIMEOUT:?}"),
    }
}
