// Fixture: the same aliased locks, each guard dropped before the
// blocking call — no finding.

use std::sync::{Arc, Mutex};
use std::time::Duration;

type Seen = Arc<Mutex<Vec<u64>>>;

fn poll(seen: &Seen) {
    let n = seen.lock().unwrap().len();
    std::thread::sleep(Duration::from_millis(n as u64));
}

fn record() {
    let fired = Seen::default();
    let shared = Arc::clone(&fired);
    shared.lock().unwrap().push(1);
    std::thread::sleep(Duration::from_millis(1));
}
