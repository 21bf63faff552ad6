//! Fixture: trips `request-sleep` and nothing else (planted as the serve
//! plane's idle-worker path).
pub fn wait_for_work(depth: &std::sync::atomic::AtomicUsize) {
    while depth.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}
